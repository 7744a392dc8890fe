(** Coverage-guided snapshot fuzzer for the Connman parse path.

    Boots the daemon image once, takes a copy-on-write snapshot
    ({!Loader.Process.snapshot}), then per execution restores the
    snapshot, writes a mutated DNS datagram into the guest rx buffer and
    calls [parse_response] with edge coverage ({!Coverage}) as its
    [on_step] observer.  Inputs reaching new edges join the corpus;
    crashing inputs are replayed under the taint oracle
    ({!Sanitizer.Oracle}) from the same snapshot for triage, stopped at
    the oracle's first report, so every crash report carries the
    detection rule and the [wire[off]@fuzz -> mem -> pc] provenance
    chain.

    A run is a pure function of [config.seed]: the stats (and their
    JSON) are byte-identical across re-runs. *)

type config = {
  arch : Loader.Arch.t;
  version : Connman.Version.t;
  profile : Defense.Profile.t;
  seed : int;
  max_execs : int;  (** mutation budget (seed executions not counted) *)
  stop_on_find : bool;
      (** stop at the first crash the oracle triages as redzone-write —
          the Listing-1 overflow signature *)
}

val default_config : config
(** x86, Connman 1.34, W⊕X profile, seed 1, 2000 execs, no early stop. *)

type crash = {
  exec : int;  (** 1-based mutation-execution index *)
  input : string;  (** the wire bytes *)
  outcome : string;
  steps : int;
  rule : string option;  (** first detection rule fired during triage *)
  wire_offset : int option;  (** wire byte the report chains back to *)
  provenance : string option;  (** rendered report with symbolized pc *)
}

type stats = {
  cfg : config;
  seed_inputs : int;
  execs : int;
  corpus : int;
  edges : int;
  total_steps : int;
      (** guest instructions retired across all runs, a triage counted
          as the full run (= its coverage run's steps), not where its
          halting oracle stopped it *)
  crashes : crash list;  (** deduped by (outcome, rule), chronological *)
  rediscovered_at : int option;
      (** execution index of the first redzone-write triage *)
  first_rule : string option;
}

val benign_seeds : unit -> string list
(** The well-formed seed corpus (encoded responses, compression
    included). *)

val run : config -> stats

val stats_value : stats -> Telemetry.Json.value
(** The [fuzz-stats-v1] document; deterministic (no wall-clock fields). *)

val stats_json : stats -> string
(** [Telemetry.Json.print] of {!stats_value}: byte-identical for equal
    seeds. *)

val pp_stats : Format.formatter -> stats -> unit

val hex_of_string : string -> string
val string_of_hex : string -> string
(** Inverse of {!hex_of_string}; raises [Invalid_argument] on odd-length
    input (used to replay the committed regression corpus). *)
