(** Byte-granular shadow memory for taint tracking.

    One taint label per guest byte, stored in sparse per-page arrays that
    mirror {!Memory}'s page layout.  A label packs a provenance source id
    and a byte offset within that source, so a tainted byte found anywhere
    in the guest can be traced back to the exact wire byte it came from.

    The shadow is a pure side table: it never touches guest memory and
    guest memory never touches it, which is what lets the sanitizer be a
    strict observer of the interpreters. *)

type label = int
(** [0] is clean.  A non-zero label is [(src lsl 16) lor (offset + 1)]:
    16 bits of source offset (so sources up to 65535 bytes — far above the
    4096-byte UDP ceiling) and the provenance id above them. *)

val clean : label

val make : src:int -> offset:int -> label
(** [make ~src ~offset] builds the label for byte [offset] of source
    [src].  Raises [Invalid_argument] if [offset] is outside
    [0, 0xFFFE] or [src] is negative. *)

val source_of : label -> int
(** Provenance id of a non-zero label. *)

val offset_of : label -> int
(** Byte offset within the source of a non-zero label. *)

val join : label -> label -> label
(** Label of a value derived from two inputs.  Keeps the first non-zero
    label (lowest-offset operand wins), which preserves exact provenance
    through the byte-copy loops the exploits flow through. *)

type t
(** A sparse shadow map over the full 32-bit guest address space. *)

val create : unit -> t

val get : t -> int -> label
(** [get t addr] — label of guest byte [addr]; [clean] if never set. *)

val set : t -> int -> label -> unit
(** [set t addr label].  Setting [clean] on an untouched page allocates
    nothing. *)

val clear_range : t -> int -> len:int -> unit
(** Mark [len] bytes from [addr] clean. *)

val clear : t -> unit
(** Drop every label (all pages). *)

val tainted : t -> int
(** Number of bytes currently carrying a non-zero label. *)
