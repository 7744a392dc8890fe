(** Fleet-scale resilience campaigns: thousands of simulated Connman
    devices under mixed benign/attack traffic, chaos, hierarchical
    supervision, quarantine, and a staged patch rollout.

    One campaign builds a {!Netsim.World} of [lans] LANs, boots three
    daemon {e templates} — the vulnerable firmware, the patched build, and an
    injected faulty "patch" that still ships the vulnerable parser —
    and forks every device from its cohort's template via copy-on-write
    snapshots ({!Connman.Dnsproxy.fork}), so spawning is µs-scale.

    Each LAN's resolver answers benign queries through a
    {!Dns.Cache}; once the attack window opens it also forges exploit
    payloads (built once with {!Exploit.Autogen} against an analysis
    boot) and oversized-name DoS answers, and {e pins} a bounded number
    of victims per LAN, re-DoSing them on every query — the crash-loop
    generator.  Devices run a per-device {!Core.Supervisor} plus a
    {!Health} machine, rolled up per LAN by {!Hierarchy}; quarantined
    devices leave rotation, are reimaged and reintroduced after
    probation (crash-loop give-ups via {!Core.Supervisor.revive}).  The
    {!Rollout} plan patches the fleet canary-first with a regression
    gate per wave.

    Everything draws from seeded RNGs (the world's, and one per LAN
    resolver): the same [config] replays bit-identically, and {!json}
    is byte-deterministic ([fleet-campaign-v1]). *)

type config = {
  seed : int;
  devices : int;
  lans : int;  (** devices are assigned round-robin: device i → LAN i mod lans *)
  arch : Loader.Arch.t;
  diversity_frac : float;
      (** fraction of the fleet booted as software-diversity variants
          ({!Connman.Dnsproxy.fork_diversified}): each such device gets
          a fresh seeded layout on {e every} spawn — initial boot,
          supervisor restart, probation reimage, patch wave — drawn via
          {!Diversity.Pool.seed_for} from a per-member master seed.
          Membership is a deterministic interleaved spread across LANs
          and rollout waves.  [0.0] (the default) disables the cohort. *)
  round_gap_us : int;  (** per-device benign lookup period *)
  benign_names : int;  (** benign name population per LAN *)
  attack_start_us : int;  (** attack window: [attack_start_us, horizon) *)
  forge_exploit : float;  (** P(forge the exploit payload) per answer *)
  forge_dos : float;  (** P(DoS + pin the source) per answer *)
  pinned_per_lan : int;  (** attacker focus: victims re-DoSed every query *)
  chaos : Netsim.Faults.policy;  (** world-wide impairment policy *)
  sup_policy : Core.Supervisor.policy;
      (** per-device supervision (backoff/burst); the default keeps
          {!Core.Supervisor.default_policy}. *)
  health : Health.config;
  escalate_frac : float;  (** LAN-supervisor escalation threshold *)
  rollout_start_us : int;
  canary : int;  (** canary wave size, devices *)
  wave : int;  (** subsequent wave size *)
  soak_us : int;  (** per-wave soak before the regression gate *)
  wave_gap_us : int;  (** gap between a wave's verdict and the next wave *)
  rollback_frac : float;  (** gate threshold, see {!Rollout.decide} *)
  bad_wave : int option;  (** inject the faulty patch into this wave *)
  sample_gap_us : int;  (** time-series sampling period *)
  horizon_us : int;
}

val default_config : config
(** 1,000 devices / 20 LANs, 90 simulated seconds, faulty
    patch in wave 2. *)

val smoke_config : config
(** CI-sized: 48 devices / 4 LANs, canary + one wave (the
    injected bad patch, so the rollback path is exercised), 40 simulated
    seconds. *)

type wave_outcome = {
  o_wave : Rollout.wave;
  o_applied_us : int;
  o_evaluated_us : int;
  o_hits : int;  (** wave members that crashed/compromised during soak *)
  o_rolled_back : bool;
}

type sample = {
  s_at_us : int;
  s_compromises : int;  (** in the window ending at [s_at_us] *)
  s_crashes : int;
  s_patched : int;  (** devices on the good patch *)
  s_healthy : int;
  s_degraded : int;
  s_quarantined : int;
  s_reintroduced : int;
}

type report = {
  r_config : config;
  r_waves : wave_outcome list;  (** application order; retried waves appear twice *)
  r_samples : sample list;
  r_lookups : int;
  r_answered : int;
  r_availability : float;  (** answered / lookups over the whole run *)
  r_compromises : int;  (** compromise events (a device can repeat) *)
  r_compromised_devices : int;  (** devices ever compromised *)
  r_diversified : int;  (** devices in the diversity cohort *)
  r_div_compromised : int;  (** diversified devices ever compromised *)
  r_stock_compromised : int;  (** stock devices ever compromised *)
  r_crashes : int;
  r_restarts : int;  (** supervisor-performed restarts *)
  r_quarantines : int;
  r_reintroductions : int;
  r_revivals : int;  (** supervisor give-ups cleared via [revive] *)
  r_escalations : int;
  r_rollbacks : int;
  r_forks : int;  (** CoW daemon spawns, initial population included *)
  r_converged_us : int;
      (** when the whole fleet landed on the good patch ([-1] = never) *)
  r_cache_hits : int;  (** resolver-side caches, all LANs *)
  r_cache_misses : int;
  r_delivered : int;  (** world datagrams delivered *)
  r_dropped : int;
  r_events : int;  (** scheduler events processed *)
}

val default_rules : string
(** Flight-recorder rules ({!Telemetry.Monitor.add_rules} format) for a
    fleet campaign: recorded compromise/crash/availability trajectories,
    the compromise-wave / SLO-burn alerts, and the per-diversity-cohort
    compromised-fraction recordings ([div] vs [stock]) with an alert on
    the stock cohort's fraction — the series the cohort gauges feed even
    when [diversity_frac = 0] (all-zero, so the rules stay quiet). *)

val monitor_ok : Telemetry.Monitor.t -> bool
(** The acceptance predicate of a campaign run under a monitor loaded
    with {!default_rules}: at least one alert incident both fired and
    resolved, and at least one incident's timeline starts at the
    wire-byte provenance of a hostile answer and ends in containment
    (quarantine or rollback). *)

val run :
  ?metrics:Telemetry.Metrics.t -> ?monitor:Telemetry.Monitor.t -> config -> report
(** Execute the campaign.  When [metrics] is given, the
    [netsim_*] series, per-cohort fleet gauges (label ["cohort"] = wave
    label), health-census gauges (label ["state"]), and fleet counters
    are registered before the run, so the registry can be scraped after
    (or, embedded, during) the campaign.  Raises [Invalid_argument] on
    inconsistent configs (devices < lans, non-positive sizes, …).

    When [monitor] is given, the same series register into its registry,
    a world barrier scrapes it every {!Telemetry.Monitor.interval_us},
    and the campaign journals its causal event stream: wire-byte
    provenance of each hostile answer (overflow-name offset inside the
    forged response), sanitizer compromise verdicts and parser crashes,
    health transitions (degraded/quarantine/reintroduced/recovered),
    cell escalations, rollout waves (applied/ok/rollback), supervisor
    lifecycles, and fleet convergence. *)

val json : report -> string
(** Byte-deterministic [fleet-campaign-v1] document (fixed key order,
    [%.4f] floats, {!Telemetry.Json.print}): same seed ⇒ identical
    bytes. *)

val ok : report -> bool
(** The campaign's acceptance predicate: the fleet converged on the
    good patch, the final sample window saw zero compromises, benign
    availability stayed above one half, and — when a faulty patch was
    injected — at least one automatic rollback fired. *)

val pp : Format.formatter -> report -> unit
(** Human-readable summary. *)
