(** Zero-copy DNS wire codec: reusable decode views and encode arenas.

    {!Packet} keeps the friendly materializing API as a thin shim over
    this module; hot paths (the Connman proxy, the dnsmasq daemon, the
    resolver, the benchmarks) hold one {!view} and one {!arena} and
    reuse them across packets so steady-state parsing and encoding
    allocate (almost) nothing.

    {b Borrowing rules.}  A [view] borrows the message string passed to
    {!parse} until the next [parse] on the same view; every offset
    returned by an accessor indexes that string.  Do not read accessors
    of a view whose last [parse] returned an error.  An [arena]'s bytes
    are valid until the next {!reset} or write; {!contents} copies them
    out into a fresh string. *)

(** {1 Byte accessors}

    Unchecked big-endian reads — callers are expected to pass offsets
    already validated by {!parse} or the walker. *)

val get_u8 : string -> int -> int
val get_u16 : string -> int -> int
val get_u32 : string -> int -> int

(** {1 Strict name walker} *)

val walk :
  string -> int -> emit:(pos:int -> len:int -> unit) -> (int, string) result
(** [walk msg off ~emit] validates the (possibly compressed) name at
    [off], calling [emit ~pos ~len] for each label's byte range, and
    returns the bytes consumed at [off] (a pointer consumes 2).  Strict:
    label lengths above 63 are rejected, and every compression pointer
    must point {e strictly backward} — before the name itself, and
    before the previous pointer's target once jumped — as real
    resolvers require.  Error strings match the legacy
    {!Legacy.name_decode}/{!Packet.decode} classes. *)

val skip_name : string -> int -> (int, string) result
(** {!walk} without observing labels. *)

val name_equal_consumed :
  string -> int -> string list -> (bool * int, string) result
(** [name_equal_consumed msg off labels] walks the wire name at [off]
    and compares it against [labels] without materializing anything.
    [Ok (equal, consumed)] on a well-formed name. *)

val name_labels : string -> int -> (string list * int, string) result
(** Materialize the name at [off]: its labels and the bytes consumed at
    [off], or {!walk}'s error.  The strict name decoder; agrees with
    {!Legacy.name_decode} on every input. *)

val name_to_string : string -> int -> string
(** Dotted rendering ([ "." ] for the root) of a name already validated
    by {!parse}.  Raises [Invalid_argument] on a malformed name — that
    is a caller bug, not an input condition. *)

val rtype_is_name : int -> bool
(** True for the record types whose RDATA is a (possibly compressed)
    domain name: NS (2), CNAME (5), PTR (12). *)

(** {1 Decoding} *)

type view
(** Reusable parse state: packed [int] arrays of offsets into the
    borrowed message.  Grown geometrically, never shrunk. *)

val create_view : unit -> view

val parse : view -> string -> (unit, string) result
(** Validate [msg] and index it into the view.  Accepts exactly the
    messages the legacy {!Packet.decode} accepts, with the same error
    strings (enforced by the codec-differential fuzz mode). *)

(** {2 Header accessors} *)

val id : view -> int
val flags : view -> int
val qr : view -> bool
val opcode : view -> int
val aa : view -> bool
val tc : view -> bool
val rd : view -> bool
val ra : view -> bool
val rcode : view -> int
val qdcount : view -> int
val ancount : view -> int
val nscount : view -> int
val arcount : view -> int

(** {2 Section accessors}

    Questions are indexed [0 .. qdcount-1].  Resource records are
    indexed [0 .. ancount + nscount + arcount - 1] in wire order:
    answers first, then authorities (starting at [ancount]), then
    additionals. *)

val question_name : view -> int -> int
(** Offset of question [i]'s name in the borrowed message. *)

val question_qtype : view -> int -> int
(** Question [i]'s qtype code. *)

val rr_name : view -> int -> int
val rr_rtype : view -> int -> int
val rr_ttl : view -> int -> int
val rr_rdlen : view -> int -> int

val rr_rdata : view -> int -> int
(** Offset of record [i]'s rdata in the borrowed message ([rr_rdlen]
    bytes; for CNAME/NS/PTR it is a validated, possibly compressed
    name). *)

(** {1 Encoding} *)

type arena
(** Reusable encode state: a growable output buffer plus a single-pass
    name-compression table.  {!reset} before each message; the
    compression decisions are byte-identical to the legacy
    [Buffer]/[Hashtbl] encoder. *)

val arena : ?capacity:int -> unit -> arena
val reset : arena -> unit
val length : arena -> int

val contents : arena -> string
(** Copy of the bytes written since the last {!reset}. *)

val add_u8 : arena -> int -> unit
val add_u16 : arena -> int -> unit
val add_u32 : arena -> int -> unit
val add_string : arena -> string -> unit
val add_substring : arena -> string -> int -> int -> unit

val add_name : arena -> compress:bool -> string list -> unit
(** Emit a name, pointing at a previously emitted equal suffix when
    [compress] is set.  Raises [Invalid_argument] on empty or >63-byte
    labels with the same message as {!Packet.encode}. *)
