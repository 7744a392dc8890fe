(** DNS domain names on the wire (RFC 1035 §3.1, §4.1.4).

    A name is a sequence of length-prefixed labels terminated by a zero
    byte; a length byte with the top two bits set (>= 0xC0) is a
    compression pointer to an earlier offset in the message.

    {!Wire.name_labels} is what a *correct* decompressor does.
    {!expand_like_connman} mirrors what Connman 1.34's [get_name] writes
    into its 1024-byte stack buffer — the exact length-prefixed byte
    stream, with no output bound — so the exploit builder can predict
    buffer contents byte-for-byte. *)

type t = string list
(** Labels, e.g. [["www"; "example"; "com"]].  The root name is []. *)

val of_string : string -> t
(** Split on dots; ["."] and [""] give the root name, and a single
    trailing dot (the fully-qualified spelling) is stripped.  Raises
    [Invalid_argument] on empty labels (consecutive or leading dots) and
    on labels longer than 63 bytes — construction is total over its
    stated domain instead of minting names that only explode later
    inside {!encode}. *)

val of_string_opt : string -> t option
(** {!of_string} returning [None] instead of raising. *)

val to_string : t -> string

val valid : t -> bool
(** RFC limits: each label 1–63 bytes, total encoding ≤ 255. *)

val encode : t -> string
(** Uncompressed wire form (length-prefixed labels + terminating 0).
    Raises [Invalid_argument] if a label exceeds 63 bytes. *)

val encoded_size : t -> int
(** [String.length (encode labels)], raising as {!encode} does. *)

val write_encoded : Bytes.t -> int -> t -> unit
(** [write_encoded b pos labels] writes [encode labels] into [b] at
    [pos], for labels {!encoded_size} accepted. *)

val expand_like_connman :
  ?limit:int -> string -> int -> (string * int, string) result
(** The vulnerable expansion: returns the raw length-prefixed byte stream
    [get_name] copies (terminator excluded) and the bytes consumed at the
    starting position.  Labels with length 64–191 — invalid per RFC — are
    accepted and copied verbatim, as permissive parsers do.  [limit]
    (default 65536) only bounds the simulation itself; the real buffer
    bound that is missing in CVE-2017-12865 is *not* applied here. *)
