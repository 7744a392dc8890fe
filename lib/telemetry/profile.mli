(** Instruction-level profiler.

    The interpreters' profiling hook calls {!record} with the program
    counter of every instruction a run tries to execute; reporting buckets the raw pc counts by
    nearest symbol using a caller-supplied [symbolize] function (in
    practice [Exploit.Debugger.symbolize], which renders
    ["name+0x12"] or a bare hex address).  The ["+0x..."] offset suffix
    is stripped so all samples inside one function aggregate under its
    base symbol.

    Conservation invariant, asserted by the tests: the per-symbol counts
    of {!report} (and the folded lines of {!folded}) sum to {!total},
    which equals the number of instructions the CPU retired while the
    profiler was attached — plus one when a run ends on a failed fetch
    or an enforcement veto, whose pc is recorded but never retires. *)

type t

val create : unit -> t
val record : t -> int -> unit  (** one retired instruction at this pc *)

val set_sink : t -> (int -> unit) option -> unit
(** Attach (or detach with [None]) a tap on the raw pc stream: the sink
    fires on every {!record}, after the count update.  A consumer that
    needs the instruction stream but not the histogram — e.g. a fuzzer's
    edge-coverage map — is cheaper as an [on_step] observer of
    [Loader.Process.call]; the sink serves one that wants both.  [None]
    by default; the cost when detached is one option check per retired
    instruction. *)

val fold : t -> (int array -> int -> unit) option
(** [fold t], while [t] has no sink: [Some f], where [f pcs k] leaves
    the counts and {!total} that [k] passes of {!record} over [pcs]
    leave, at the cost of one pass ([Machine.Hook.profile] hands it to
    the engine's copy-loop summaries).  [None] with a sink attached,
    which must see every pc. *)

val total : t -> int  (** instructions recorded *)

val distinct_pcs : t -> int

val report : t -> symbolize:(int -> string) -> (string * int) list
(** Per-symbol instruction counts, sorted by count descending (ties by
    symbol name ascending). *)

val folded : t -> symbolize:(int -> string) -> ?root:string -> unit -> string
(** Flamegraph-ready folded-stack lines: ["root;symbol count\n"] per
    symbol (root defaults to ["all"]).  Feed to
    [flamegraph.pl] / speedscope as-is. *)

val pp_flat : ?top:int -> symbolize:(int -> string) -> Format.formatter -> t -> unit
(** Flat profile table: count, percentage, symbol; [top] rows (default
    all). *)

val clear : t -> unit
