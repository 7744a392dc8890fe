(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the reproduction — ASLR base selection,
    software-diversity shuffles, network jitter — draws from an explicit,
    seeded generator so that every experiment is replayable bit-for-bit. *)

type t

val create : int -> t
(** [create seed] — the same seed always yields the same stream. *)

val split : t -> t
(** Derive an independent generator (for giving each device its own
    stream without coupling their draws). *)

val next64 : t -> int
(** Next raw 62-bit non-negative value (OCaml [int]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val bits : t -> int -> int
(** [bits t n] is an [n]-bit uniform value, [0 <= n <= 30]. *)

val bool : t -> bool

val skip : t -> int -> unit
(** [skip t n] leaves [t] where [n] draws would leave it, in O(1)
    ({!next64}, {!int}, {!bits}, {!bool} and {!float} each draw once).  Raises [Invalid_argument] on a
    negative [n]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
