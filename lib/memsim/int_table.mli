(** Hash tables keyed by [int]: [Stdlib.Hashtbl]'s buckets, growth and
    fold order, specialised to [int] keys with a multiplicative hash, so
    the key is hashed and compared inline on every probe — what the page
    lookups of {!Memory}, {!Icache} and {!Shadow} and the sanitizer's
    per-store return-slot probes need.  A key has at most one binding
    when only {!replace} adds it; {!add} shadows, as in [Hashtbl]. *)

type 'a t

val create : int -> 'a t
(** An empty table with at least that many buckets (16 at least). *)

val reset : 'a t -> unit
(** Empty the table and shrink it back to its initial size. *)

val length : 'a t -> int
val add : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
(** Removes the most recent binding of the key, if any. *)

val find : 'a t -> int -> 'a
(** Raises [Not_found]. *)

val find_or : 'a t -> int -> default:'a -> 'a
(** The binding of the key, or [default]: {!find} without the raise. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val replace : 'a t -> int -> 'a -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In [Hashtbl.fold]'s order: bucket by bucket, each bucket most recent
    binding first.  [f] must not modify the table. *)
