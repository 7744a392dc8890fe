(** Connman release catalogue relative to CVE-2017-12865.

    All releases up to and including 1.34 carry the unchecked copy in
    [get_name]; 1.35 (August 2017) added the size check.  §II–III of the
    paper names the versions shipped by Yocto (1.31), OpenELEC (1.34) and
    Tizen (< 4.0). *)

type t = { major : int; minor : int }

val v1_30 : t
val v1_31 : t
val v1_32 : t
val v1_33 : t
val v1_34 : t
val v1_35 : t

val make : int -> int -> t
val of_string : string -> t option
val to_string : t -> string
val compare : t -> t -> int

val vulnerable : t -> bool
(** [true] iff the release predates the 1.35 fix. *)

val rotate : t -> 'a list -> 'a list
(** [rotate v items] moves the first [v.minor mod n] of the [n] items to
    the end.  The programs lay their functions out in this order, so
    distinct releases lay them out differently (real binaries shift with
    every compile) and gadget addresses are version-specific: an exploit
    built against 1.34 does not transfer to 1.31 untouched. *)

val all : t list
(** The catalogue, oldest first. *)

val pp : Format.formatter -> t -> unit
