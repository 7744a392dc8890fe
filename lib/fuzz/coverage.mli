(** Edge-coverage bitmap over the retired-instruction stream.

    Feeds from the interpreters' pc stream: pass [touch] as the
    [on_step] observer of [Loader.Process.call] and the map sees every
    pc the run tries to execute.  (Behind [Telemetry.Profile.set_sink]
    it sees the same stream, at the cost of the profiler's counts.)  An
    edge is a hashed (previous pc, pc) pair in a fixed 65536-bucket map,
    as in AFL. *)

type t

val create : unit -> t

val begin_exec : t -> unit
(** Start a new execution: resets the previous-pc state and the
    per-exec hit set (O(1) — the global map is untouched). *)

val touch : t -> int -> unit
(** One instruction at this pc.  Intended as an [on_step] observer. *)

val commit : t -> int
(** Fold the current execution's edges into the global map; returns the
    number of edges never seen by {e any} prior execution (> 0 means
    the input found new coverage and belongs in the corpus). *)

val edges : t -> int
(** Distinct edges ever hit. *)
