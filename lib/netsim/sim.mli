(** Discrete-event simulation clock.

    Events fire in timestamp order (FIFO among equal timestamps), each
    receiving the simulator so it can schedule follow-ups.  Time is in
    microseconds. *)

type t

val create : ?seed:int -> unit -> t
val now : t -> int
val rng : t -> Memsim.Rng.t

val schedule : t -> delay:int -> (t -> unit) -> unit
(** [delay] is relative to [now]; negative delays are clamped to 0. *)

val run : ?until:int -> t -> int
(** Process events until the queue empties (or simulated time passes
    [until]).  Returns the number of events processed.  With [until],
    the clock always ends at [max now until] even when the heap drains
    early — the horizon was simulated, so later [schedule ~delay] calls
    are relative to it, not to the last event that happened to fire. *)

val pending : t -> int
