(** Edge-coverage bitmap over the retired-instruction stream.

    Feeds from the interpreters' pc stream: pass {!observer} as the
    [on_step] observer of [Loader.Process.call] and the map sees every
    pc the run tries to execute, and folds a copy loop the engine runs
    as one bulk step into the state its passes would leave.  (Behind
    [Telemetry.Profile.set_sink], {!touch} sees the same stream, pc by
    pc, at the cost of the profiler's counts and of the bulk steps.)
    An edge is a hashed (previous pc, pc) pair in a fixed 65536-bucket
    map, as in AFL. *)

type t

val create : unit -> t

val begin_exec : t -> unit
(** Start a new execution: resets the previous-pc state and the
    per-exec hit set (O(1) — the global map is untouched). *)

val touch : t -> int -> unit
(** One instruction at this pc. *)

val observer : t -> Machine.Hook.observer
(** {!touch} with its fold, how the fuzzer attaches the map: [k >= 1]
    in-order passes over a block's pcs run as [min k 2] passes.  After
    two passes every edge of the repeated block is marked, its back
    edge [(pcs.(n-1), pcs.(0))] included, and the previous pc is
    [pcs.(n-1)] again, so a further pass changes nothing. *)

val commit : t -> int
(** Fold the current execution's edges into the global map; returns the
    number of edges never seen by {e any} prior execution (> 0 means
    the input found new coverage and belongs in the corpus). *)

val edges : t -> int
(** Distinct edges ever hit. *)
