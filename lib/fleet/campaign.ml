module W = Netsim.World
module Sim = Netsim.Sim
module Ip = Netsim.Ip
module Rng = Memsim.Rng
module Dnsproxy = Connman.Dnsproxy
module Version = Connman.Version
module Supervisor = Core.Supervisor
module Autogen = Exploit.Autogen
module Profile = Defense.Profile

let client_port = 5353

type config = {
  seed : int;
  devices : int;
  lans : int;
  arch : Loader.Arch.t;
  diversity_frac : float;
  round_gap_us : int;
  benign_names : int;
  attack_start_us : int;
  forge_exploit : float;
  forge_dos : float;
  pinned_per_lan : int;
  chaos : Netsim.Faults.policy;
  sup_policy : Supervisor.policy;
  health : Health.config;
  escalate_frac : float;
  rollout_start_us : int;
  canary : int;
  wave : int;
  soak_us : int;
  wave_gap_us : int;
  rollback_frac : float;
  bad_wave : int option;
  sample_gap_us : int;
  horizon_us : int;
}

let default_config =
  {
    seed = 42;
    devices = 1000;
    lans = 20;
    arch = Loader.Arch.X86;
    diversity_frac = 0.0;
    round_gap_us = 5_000_000;
    benign_names = 48;
    attack_start_us = 1_000_000;
    forge_exploit = 0.25;
    forge_dos = 0.05;
    pinned_per_lan = 2;
    chaos = { Netsim.Faults.default with drop = 0.02 };
    sup_policy = Supervisor.default_policy;
    health = Health.default_config;
    escalate_frac = 0.35;
    rollout_start_us = 10_000_000;
    canary = 32;
    wave = 160;
    soak_us = 6_000_000;
    wave_gap_us = 1_000_000;
    rollback_frac = 0.05;
    bad_wave = Some 2;
    sample_gap_us = 5_000_000;
    horizon_us = 90_000_000;
  }

let smoke_config =
  {
    default_config with
    devices = 48;
    lans = 4;
    round_gap_us = 2_000_000;
    attack_start_us = 500_000;
    forge_exploit = 0.3;
    forge_dos = 0.1;
    pinned_per_lan = 1;
    health =
      { Health.default_config with window_us = 8_000_000;
        probation_us = 6_000_000 };
    rollout_start_us = 4_000_000;
    canary = 8;
    wave = 40;
    soak_us = 3_000_000;
    wave_gap_us = 500_000;
    bad_wave = Some 1;
    sample_gap_us = 2_000_000;
    horizon_us = 40_000_000;
  }

(* Default flight-recorder rules for a fleet campaign: a couple of
   recorded trajectories (compromised fraction, compromise/crash rates,
   windowed availability) and the alerts the acceptance story needs —
   the compromise wave must fire while the attack spreads and resolve
   once containment + rollout win.  Thresholds are per-second rates, so
   they hold across fleet sizes roughly proportionally to device count;
   they are tuned for the default and smoke configs. *)
let default_rules =
  "# recorded trajectories\n\
   record fleet_compromised_fraction = fleet_compromised_devices / fleet_devices\n\
   record fleet_compromise_rate = rate(fleet_compromises_total[10s])\n\
   record fleet_crash_rate = rate(fleet_crashes_total[10s])\n\
   record fleet_availability = rate(fleet_answered_total[15s]) / rate(fleet_lookups_total[15s])\n\
   # alerts\n\
   alert compromise_wave if fleet_compromise_rate > 0.2 for 3s clear 0.02\n\
   alert compromised_fraction_slo if fleet_compromised_fraction > 0.02 for 5s\n\
   alert crash_storm if fleet_crash_rate > 2 for 5s clear 0.2\n\
   alert availability_slo_burn if 1 - fleet_availability > 0.5 for 10s clear 0.2\n\
   # diversity cohorts (all-zero series when diversity_frac = 0)\n\
   record fleet_div_compromised_fraction = fleet_diversity_compromised{cohort=\"div\"} / fleet_diversity_devices{cohort=\"div\"}\n\
   record fleet_stock_compromised_fraction = fleet_diversity_compromised{cohort=\"stock\"} / fleet_diversity_devices{cohort=\"stock\"}\n\
   alert stock_cohort_compromised if fleet_stock_compromised_fraction > 0.05 for 5s clear 0.01\n"

(* The acceptance predicate of a campaign run under [default_rules]: some
   alert incident resolved, and some incident's timeline runs from the
   wire-byte provenance of a hostile answer to its containment
   (quarantine or rollback). *)
let monitor_ok mon =
  let module M = Telemetry.Monitor in
  let incidents = M.incidents mon in
  let contained i =
    match (i.M.i_timeline, List.rev i.M.i_timeline) with
    | first :: _, last :: _ ->
        first.M.e_kind = "wire_provenance"
        && (last.M.e_kind = "quarantine" || last.M.e_kind = "rollback")
    | _ -> false
  in
  List.exists (fun i -> i.M.i_resolved_us >= 0) incidents
  && List.exists contained incidents

type wave_outcome = {
  o_wave : Rollout.wave;
  o_applied_us : int;
  o_evaluated_us : int;
  o_hits : int;
  o_rolled_back : bool;
}

type sample = {
  s_at_us : int;
  s_compromises : int;
  s_crashes : int;
  s_patched : int;
  s_healthy : int;
  s_degraded : int;
  s_quarantined : int;
  s_reintroduced : int;
}

type report = {
  r_config : config;
  r_waves : wave_outcome list;
  r_samples : sample list;
  r_lookups : int;
  r_answered : int;
  r_availability : float;
  r_compromises : int;
  r_compromised_devices : int;
  r_diversified : int;
  r_div_compromised : int;
  r_stock_compromised : int;
  r_crashes : int;
  r_restarts : int;
  r_quarantines : int;
  r_reintroductions : int;
  r_revivals : int;
  r_escalations : int;
  r_rollbacks : int;
  r_forks : int;
  r_converged_us : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_delivered : int;
  r_dropped : int;
  r_events : int;
}

let arch_name = function Loader.Arch.X86 -> "x86" | Loader.Arch.Arm -> "arm"

let validate cfg =
  let fail fmt = Printf.ksprintf invalid_arg ("Fleet.Campaign.run: " ^^ fmt) in
  if cfg.devices < 1 then fail "devices must be positive";
  if cfg.lans < 1 then fail "lans must be positive";
  if cfg.devices < cfg.lans then fail "need at least one device per LAN";
  if cfg.devices / cfg.lans > 200 then fail "more than 200 devices per LAN";
  if cfg.benign_names < 1 then fail "benign_names must be positive";
  if cfg.round_gap_us < 1 || cfg.sample_gap_us < 1 then
    fail "round_gap_us and sample_gap_us must be positive";
  if cfg.horizon_us < cfg.round_gap_us then
    fail "horizon shorter than one traffic round";
  if cfg.forge_exploit < 0.0 || cfg.forge_dos < 0.0
     || cfg.forge_exploit +. cfg.forge_dos > 1.0
  then fail "forge probabilities must be non-negative and sum to <= 1";
  if cfg.pinned_per_lan < 0 then fail "pinned_per_lan must be non-negative";
  if cfg.diversity_frac < 0.0 || cfg.diversity_frac > 1.0 then
    fail "diversity_frac must be in [0, 1]";
  ignore (Netsim.Faults.validate cfg.chaos)

(* One fleet device.  The supervisor watches the *member*, not a daemon
   instance: [restart] re-forks from the member's current cohort
   template, so a patch (daemon swap) never invalidates the supervisor
   and a supervisor restart reimages rather than re-booting the
   possibly-compromised image. *)
type member = {
  idx : int;
  mhost : W.host;
  mlan : int;
  mcell : Hierarchy.cell;
  mhealth : Health.t;
  mutable mdaemon : Dnsproxy.t;
  mutable mtemplate : Dnsproxy.t;
  mutable mcohort : string;
  mutable mpatched : bool;
  mutable mrotation : bool;
  mutable msup : Supervisor.t option;
  mutable mhits : int;  (* crash/compromise events since the last patch *)
  mutable mever_compromised : bool;
  mdiversity : int option;  (* per-member variant master seed; None = stock *)
  mutable mboots : int;  (* daemon spawns, to derive per-boot variant seeds *)
  forks : int ref;  (* campaign-wide CoW spawn counter *)
}

(* Re-spawn a member's daemon from its current cohort template.
   Diversified members draw a fresh variant seed on every spawn —
   initial boot, supervisor restart, probation reimage, patch wave —
   so whatever layout an attacker learned from a previous boot dies
   with the crash that revealed it. *)
let respawn m =
  incr m.forks;
  m.mboots <- m.mboots + 1;
  match m.mdiversity with
  | None -> Dnsproxy.fork m.mtemplate
  | Some master ->
      Dnsproxy.fork_diversified m.mtemplate
        ~diversity_seed:(Diversity.Pool.seed_for ~master m.mboots)

type lan_ctx = {
  l_lan : W.lan;
  l_resolver : W.host;
  l_resolver_ip : Ip.t;
  l_cache : Dns.Cache.t;
  mutable l_pinned : Ip.t list;
}

let run ?metrics ?monitor cfg =
  validate cfg;
  let world = W.create ~seed:cfg.seed () in
  W.set_default_policy world cfg.chaos;
  (* Three firmware templates: the vulnerable build, the real fix, and
     the injected faulty "patch" (a rebuild that still ships the
     vulnerable parser).  Every device is a CoW fork of one of these. *)
  let base version seed_off =
    {
      Dnsproxy.version;
      arch = cfg.arch;
      profile = Profile.wx;
      boot_seed = cfg.seed + seed_off;
      diversity_seed = None;
    }
  in
  let vuln_t = Dnsproxy.create (base Version.v1_34 0) in
  let good_t = Dnsproxy.create (base Version.v1_35 1) in
  let bad_t = Dnsproxy.create (base Version.v1_34 2) in
  (* The exploit is planned once against the attacker's analysis copy
     (their own boot of the same firmware) and replayed fleet-wide. *)
  let analysis = Dnsproxy.process (Dnsproxy.create (base Version.v1_34 5000)) in
  let raw_name =
    match Autogen.generate ~analysis:(Exploit.Target.connman analysis) () with
    | Ok (_payload, raw) -> raw
    | Error e -> invalid_arg ("Fleet.Campaign.run: exploit generation: " ^ e)
  in
  let forks = ref 0 in
  (* Diversity cohort membership: the low product bits of an odd
     multiplier are a bijection on 16-bit indices, so the diversified
     set is an exactly-[diversity_frac] spread interleaved across LANs
     and rollout waves (never a contiguous index range that would alias
     a wave cohort). *)
  let div_threshold = int_of_float ((cfg.diversity_frac *. 65536.0) +. 0.5) in
  let diversified i = (i * 0x9E37_79B9) land 0xFFFF < div_threshold in
  (* Flight-recorder journal: a no-op closure when no monitor is attached
     keeps the hot paths branch-cheap. *)
  let jn =
    match monitor with
    | None -> fun ?detail:_ ~ts:_ ~source:_ ~actor:_ _ -> ()
    | Some mon ->
        fun ?detail ~ts ~source ~actor kind ->
          Telemetry.Monitor.journal mon ~ts ~source ~actor ?detail kind
  in
  let journaling = monitor <> None in
  (* Wire-byte provenance: locate the overflow name inside the forged
     response.  Every forged exploit answer embeds [raw_name] at the same
     offset (the benign qname length is fixed), so the first search is
     cached and later hits are a single memcmp at the cached offset. *)
  let prov_cache = ref (-1) in
  let rlen = String.length raw_name in
  let provenance_detail payload =
    let plen = String.length payload in
    if plen > 4096 then
      Printf.sprintf "oversized DoS answer: %d-byte payload (name > 4KiB)" plen
    else begin
      let matches_at o =
        o >= 0
        && o + rlen <= plen
        &&
        let i = ref 0 in
        while !i < rlen && payload.[o + !i] = raw_name.[!i] do incr i done;
        !i = rlen
      in
      let off =
        if matches_at !prov_cache then !prov_cache
        else begin
          let found = ref (-1) in
          (try
             for o = 0 to plen - rlen do
               if matches_at o then begin
                 found := o;
                 raise Exit
               end
             done
           with Exit -> ());
          prov_cache := !found;
          !found
        end
      in
      if off >= 0 then
        Printf.sprintf
          "forged answer: %d-byte overflow name at wire[%d..%d] of %d bytes"
          rlen off (off + rlen - 1) plen
      else Printf.sprintf "hostile answer: %d-byte payload" plen
    end
  in
  let lookups = ref 0 and answered = ref 0 in
  let compromises = ref 0 and crashes = ref 0 in
  let win_comp = ref 0 and win_crash = ref 0 in
  let revivals = ref 0 and rollbacks = ref 0 in
  let samples = ref [] and waves_out = ref [] in
  let converged = ref (-1) in
  let hier = Hierarchy.create ~escalate_frac:cfg.escalate_frac () in
  let lans =
    Array.init cfg.lans (fun l ->
        let lan = W.add_lan world ~name:(Printf.sprintf "lan-%02d" l) in
        let resolver =
          W.add_host world ~name:(Printf.sprintf "resolver-%02d" l)
        in
        let rip = Ip.of_string (Printf.sprintf "10.%d.0.1" l) in
        W.set_host_ip resolver (Some rip);
        W.attach resolver lan;
        {
          l_lan = lan;
          l_resolver = resolver;
          l_resolver_ip = rip;
          l_cache = Dns.Cache.create ();
          l_pinned = [];
        })
  in
  let cells =
    Array.map (fun lc -> Hierarchy.add_cell hier ~name:(W.lan_name lc.l_lan))
      lans
  in
  let members =
    Array.init cfg.devices (fun i ->
        let l = i mod cfg.lans in
        let j = i / cfg.lans in
        let lc = lans.(l) in
        let host = W.add_host world ~name:(Printf.sprintf "dev-%04d" i) in
        W.set_host_ip host (Some (Ip.of_string (Printf.sprintf "10.%d.1.%d" l (10 + j))));
        W.attach host lc.l_lan;
        let m =
          {
            idx = i;
            mhost = host;
            mlan = l;
            mcell = cells.(l);
            mhealth = Health.create ~config:cfg.health ();
            mdaemon = vuln_t;  (* placeholder, replaced by [respawn] below *)
            mtemplate = vuln_t;
            mcohort = "fleet";
            mpatched = false;
            mrotation = true;
            msup = None;
            mhits = 0;
            mever_compromised = false;
            mdiversity =
              (if diversified i then
                 Some (Diversity.Pool.seed_for ~master:(cfg.seed lxor 0xD1F0) i)
               else None);
            mboots = 0;
            forks;
          }
        in
        m.mdaemon <- respawn m;
        m)
  in
  let cell_members = Array.make cfg.lans [] in
  Array.iter
    (fun m -> cell_members.(m.mlan) <- m :: cell_members.(m.mlan))
    members;
  let plan =
    Rollout.plan ~devices:cfg.devices ~canary:cfg.canary ~wave:cfg.wave
      ~bad_wave:cfg.bad_wave
  in
  List.iter
    (fun (w : Rollout.wave) ->
      for k = w.Rollout.w_first to w.Rollout.w_first + w.Rollout.w_count - 1 do
        members.(k).mcohort <- w.Rollout.w_label
      done)
    plan;
  let sim = W.sim world in
  let now () = Sim.now sim in
  (* Health side effects: entering quarantine pulls the device out of
     rotation and arms the probation timer; probation reimages the
     device from its current template, clears a supervisor give-up via
     [revive], and puts it back on watch as [Reintroduced]. *)
  let rec after_health m prev st ~now ~cause =
    if st <> prev then begin
      let dev = W.host_name m.mhost in
      match st with
      | Health.Quarantined -> ()  (* journaled in [enter_quarantine] *)
      | Health.Degraded -> jn ~ts:now ~source:"health" ~actor:dev ~detail:cause "degraded"
      | Health.Reintroduced ->
          jn ~ts:now ~source:"health" ~actor:dev ~detail:cause "reintroduced"
      | Health.Healthy ->
          jn ~ts:now ~source:"health" ~actor:dev ~detail:cause "recovered"
    end;
    if st = Health.Quarantined && prev <> Health.Quarantined then
      enter_quarantine m ~cause;
    Hierarchy.check hier m.mcell ~now
  and enter_quarantine m ~cause =
    m.mrotation <- false;
    jn ~ts:(now ()) ~source:"health" ~actor:(W.host_name m.mhost) ~detail:cause
      "quarantine";
    Sim.schedule sim ~delay:cfg.health.Health.probation_us (fun _ ->
        reintroduce m)
  and reintroduce m =
    let now = now () in
    if Health.state m.mhealth = Health.Quarantined then begin
      let st = Health.observe m.mhealth ~now Health.Probation_over in
      m.mdaemon <- respawn m;
      (match m.msup with
      | Some sup when Supervisor.gave_up sup ->
          Supervisor.revive sup;
          incr revivals
      | _ -> ());
      m.mrotation <- true;
      after_health m Health.Quarantined st ~now ~cause:"probation_over"
    end
  in
  (* Per-LAN escalation: contain the cell by quarantining every member
     already degraded.  The hook runs inside [Hierarchy.check], so it
     must not recurse into [check] for the same cell. *)
  Array.iteri
    (fun l cell ->
      Hierarchy.on_escalate cell (fun () ->
          jn
            ~ts:(now ())
            ~source:"cell"
            ~actor:(W.lan_name lans.(l).l_lan)
            "cell_escalated";
          List.iter
            (fun m ->
              if Health.state m.mhealth = Health.Degraded then begin
                let now = now () in
                let st = Health.observe m.mhealth ~now Health.Cell_escalated in
                if st = Health.Quarantined then
                  enter_quarantine m ~cause:"cell_escalated"
              end)
            cell_members.(l)))
    cells;
  Array.iter
    (fun m ->
      let on_event (e : Supervisor.event) =
        match e.Supervisor.kind with
        | Supervisor.Gave_up ->
            let now = now () in
            let prev = Health.state m.mhealth in
            let st = Health.observe m.mhealth ~now Health.Crash_loop in
            after_health m prev st ~now ~cause:"crash_loop"
        | _ -> ()
      in
      let name = Printf.sprintf "dev-%04d" m.idx in
      let sup =
        Supervisor.supervise ~policy:cfg.sup_policy ~name ~on_event ~kind:"connmand"
          ~alive:(fun () -> Dnsproxy.alive m.mdaemon)
          ~restart:(fun () -> m.mdaemon <- respawn m)
          sim
      in
      Supervisor.set_monitor sup monitor;
      m.msup <- Some sup;
      Hierarchy.attach m.mcell ~name ~sup ~health:m.mhealth)
    members;
  Array.iter
    (fun m ->
      W.on_udp m.mhost ~port:client_port (fun _ctx dgram ->
          let d =
            Dnsproxy.handle_response
              ~origin:(Ip.to_string dgram.W.src)
              m.mdaemon dgram.W.payload
          in
          let now = now () in
          let dev = W.host_name m.mhost in
          match d with
          | Dnsproxy.Cached _ ->
              incr answered;
              let prev = Health.state m.mhealth in
              let st = Health.observe m.mhealth ~now Health.Probe_ok in
              after_health m prev st ~now ~cause:"probe_ok"
          | Dnsproxy.Dropped _ -> ()
          | Dnsproxy.Compromised _ ->
              incr compromises;
              incr win_comp;
              m.mever_compromised <- true;
              m.mhits <- m.mhits + 1;
              if journaling then begin
                jn ~ts:now ~source:"net" ~actor:dev
                  ~detail:(provenance_detail dgram.W.payload) "wire_provenance";
                jn ~ts:now ~source:"daemon" ~actor:dev
                  ~detail:"sanitizer verdict: control-flow hijack" "compromise"
              end;
              let prev = Health.state m.mhealth in
              let st = Health.observe m.mhealth ~now Health.Compromised in
              Option.iter Supervisor.notify m.msup;
              after_health m prev st ~now ~cause:"compromised"
          | Dnsproxy.Crashed _ | Dnsproxy.Blocked _ ->
              incr crashes;
              incr win_crash;
              m.mhits <- m.mhits + 1;
              if journaling then begin
                (* Only hostile answers are big enough to crash the
                   parser; record what the wire carried. *)
                if String.length dgram.W.payload > 512 then
                  jn ~ts:now ~source:"net" ~actor:dev
                    ~detail:(provenance_detail dgram.W.payload) "wire_provenance";
                jn ~ts:now ~source:"daemon" ~actor:dev ~detail:"parser fault"
                  "crash"
              end;
              let prev = Health.state m.mhealth in
              let st = Health.observe m.mhealth ~now Health.Crashed in
              Option.iter Supervisor.notify m.msup;
              after_health m prev st ~now ~cause:"crashed"))
    members;
  (* Each LAN's resolver: benign answers resolve through the LAN's
     answer cache; inside the attack window it forges the exploit or a
     DoS answer instead, and keeps a bounded set of "pinned" victims it
     re-DoSes on every query (the crash-loop generator). *)
  let benign lc query reply ~now =
    match query.Dns.Packet.questions with
    | [ q ] when q.Dns.Packet.qtype = Dns.Packet.A ->
        let name = Dns.Name.to_string q.Dns.Packet.qname in
        let now_s = now / 1_000_000 in
        let ip =
          match Dns.Cache.find lc.l_cache ~now:now_s name with
          | Dns.Cache.Hit ip -> ip
          | Dns.Cache.Negative_hit | Dns.Cache.Miss ->
              let ip = 0x0A_00_00_00 lor (Hashtbl.hash name land 0xFF_FF_FF) in
              Dns.Cache.insert lc.l_cache ~now:now_s ~name ~ttl:300 ~ipv4:ip;
              ip
        in
        reply
          (Dns.Packet.encode
             (Dns.Packet.response ~query
                [ Dns.Packet.a_record q.Dns.Packet.qname ~ttl:300 ~ipv4:ip ]))
    | _ -> ()
  in
  Array.iteri
    (fun li lc ->
      (* Forge decisions draw from a per-LAN RNG, not the world's: the
         draw sequence a resolver sees depends only on its own query
         arrival order, so link-fault draws elsewhere in the world do
         not reshuffle who gets exploited. *)
      let rng = Rng.create (cfg.seed + (104729 * (li + 1))) in
      W.on_udp lc.l_resolver ~port:53 (fun _ctx dgram ->
          match Dns.Packet.decode dgram.W.payload with
          | Error _ -> ()
          | Ok query ->
              let reply payload =
                W.send world ~from:lc.l_resolver ~sport:53 ~dst:dgram.W.src
                  ~dport:dgram.W.sport payload
              in
              let now = now () in
              let in_attack = now >= cfg.attack_start_us in
              let dos () =
                Dns.Craft.hostile_response ~query
                  ~raw_name:(Dns.Craft.dos_name ~size:8192) ()
              in
              if in_attack && List.mem dgram.W.src lc.l_pinned then reply (dos ())
              else
                let draw = if in_attack then Rng.float rng else 1.0 in
                if in_attack && draw < cfg.forge_exploit then
                  reply (Autogen.response_for ~query ~raw_name)
                else if
                  in_attack
                  && draw < cfg.forge_exploit +. cfg.forge_dos
                  && List.length lc.l_pinned < cfg.pinned_per_lan
                then begin
                  lc.l_pinned <- dgram.W.src :: lc.l_pinned;
                  reply (dos ())
                end
                else benign lc query reply ~now))
    lans;
  (* Benign traffic: every device looks up one of its LAN's names each
     round, phase-shifted per device so the load spreads inside the
     round. *)
  let rounds = cfg.horizon_us / cfg.round_gap_us in
  Array.iter
    (fun m ->
      let offset = 50_000 + (m.idx * 7919 mod (max 1 (cfg.round_gap_us / 2))) in
      for r = 0 to rounds - 1 do
        Sim.schedule sim
          ~delay:((r * cfg.round_gap_us) + offset)
          (fun _ ->
            if m.mrotation && Dnsproxy.alive m.mdaemon then begin
              incr lookups;
              let k = (m.idx + (r * 31)) mod cfg.benign_names in
              let qname =
                Dns.Name.of_string
                  (Printf.sprintf "host-%02d.lan-%02d.fleet" k m.mlan)
              in
              let q = Dnsproxy.make_query m.mdaemon qname in
              W.send world ~from:m.mhost ~sport:client_port
                ~dst:lans.(m.mlan).l_resolver_ip ~dport:53
                (Dns.Packet.encode q)
            end)
      done)
    members;
  (* Staged rollout: apply a wave, soak, gate, advance or roll back (a
     rolled-back wave reverts to the vulnerable image and is retried
     with the good patch). *)
  let apply_wave (w : Rollout.wave) template =
    for k = w.Rollout.w_first to w.Rollout.w_first + w.Rollout.w_count - 1 do
      let m = members.(k) in
      m.mtemplate <- template;
      m.mpatched <- template == good_t;
      m.mdaemon <- respawn m;
      m.mhits <- 0
    done
  in
  let all_patched () = Array.for_all (fun m -> m.mpatched) members in
  let rec start_wave = function
    | [] -> ()
    | (w : Rollout.wave) :: rest ->
        let applied = now () in
        jn ~ts:applied ~source:"rollout" ~actor:"rollout"
          ~detail:
            (Printf.sprintf "%s: %d devices%s" w.Rollout.w_label
               w.Rollout.w_count
               (if w.Rollout.w_bad then " (faulty build)" else ""))
          "wave_applied";
        apply_wave w (if w.Rollout.w_bad then bad_t else good_t);
        Sim.schedule sim ~delay:cfg.soak_us (fun _ ->
            let evaluated = now () in
            let hits = ref 0 in
            for k = w.Rollout.w_first to w.Rollout.w_first + w.Rollout.w_count - 1
            do
              if members.(k).mhits > 0 then incr hits
            done;
            let rolled =
              Rollout.decide ~size:w.Rollout.w_count ~hits:!hits
                ~rollback_frac:cfg.rollback_frac
              = `Rollback
            in
            waves_out :=
              {
                o_wave = w;
                o_applied_us = applied;
                o_evaluated_us = evaluated;
                o_hits = !hits;
                o_rolled_back = rolled;
              }
              :: !waves_out;
            if rolled then begin
              incr rollbacks;
              jn ~ts:evaluated ~source:"rollout" ~actor:"rollout"
                ~detail:
                  (Printf.sprintf "%s: %d/%d devices hit" w.Rollout.w_label
                     !hits w.Rollout.w_count)
                "rollback";
              apply_wave w vuln_t;
              Sim.schedule sim ~delay:cfg.wave_gap_us (fun _ ->
                  start_wave ({ w with Rollout.w_bad = false } :: rest))
            end
            else begin
              jn ~ts:evaluated ~source:"rollout" ~actor:"rollout"
                ~detail:
                  (Printf.sprintf "%s: %d/%d devices hit" w.Rollout.w_label
                     !hits w.Rollout.w_count)
                "wave_ok";
              if all_patched () && !converged < 0 then begin
                converged := evaluated;
                jn ~ts:evaluated ~source:"fleet" ~actor:"fleet"
                  "converged"
              end;
              Sim.schedule sim ~delay:cfg.wave_gap_us (fun _ -> start_wave rest)
            end)
  in
  Sim.schedule sim ~delay:cfg.rollout_start_us (fun _ -> start_wave plan);
  (* Fleet time series. *)
  for s = 1 to cfg.horizon_us / cfg.sample_gap_us do
    Sim.schedule sim ~delay:(s * cfg.sample_gap_us) (fun _ ->
        let counts = Hierarchy.state_counts hier in
        let get st = try List.assoc st counts with Not_found -> 0 in
        samples :=
          {
            s_at_us = now ();
            s_compromises = !win_comp;
            s_crashes = !win_crash;
            s_patched =
              Array.fold_left
                (fun a m -> if m.mpatched then a + 1 else a)
                0 members;
            s_healthy = get Health.Healthy;
            s_degraded = get Health.Degraded;
            s_quarantined = get Health.Quarantined;
            s_reintroduced = get Health.Reintroduced;
          }
          :: !samples;
        win_comp := 0;
        win_crash := 0)
  done;
  (* The fleet series register into the explicit [?metrics] registry and
     into the monitor's own (deduplicated when they are the same one). *)
  let regs =
    let base = Option.to_list metrics in
    match monitor with
    | Some mon ->
        let mreg = Telemetry.Monitor.registry mon in
        if List.memq mreg base then base else base @ [ mreg ]
    | None -> base
  in
  List.iter
    (fun reg ->
      W.register_metrics world reg;
      let count f =
        float_of_int
          (Array.fold_left (fun a m -> if f m then a + 1 else a) 0 members)
      in
      List.iter
        (fun (w : Rollout.wave) ->
          let label = w.Rollout.w_label in
          let labels = [ ("cohort", label) ] in
          Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
            ~help:"devices in the rollout cohort" "fleet_devices" (fun () ->
              count (fun m -> m.mcohort = label));
          Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
            ~help:"cohort devices on the good patch" "fleet_patched" (fun () ->
              count (fun m -> m.mcohort = label && m.mpatched));
          Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
            ~help:"cohort devices ever compromised" "fleet_compromised_devices"
            (fun () -> count (fun m -> m.mcohort = label && m.mever_compromised)))
        plan;
      (* Diversity cohorts ("div" = per-boot variant layouts, "stock" =
         the template image).  Always registered — all-zero "div" series
         when diversity_frac = 0 — so the default recording rules and
         the stock-cohort alert resolve against a stable series set. *)
      List.iter
        (fun (label, pred) ->
          let labels = [ ("cohort", label) ] in
          Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
            ~help:"devices in the diversity cohort" "fleet_diversity_devices"
            (fun () -> count pred);
          Telemetry.Metrics.probe reg ~labels ~kind:`Gauge
            ~help:"diversity-cohort devices ever compromised"
            "fleet_diversity_compromised" (fun () ->
              count (fun m -> pred m && m.mever_compromised)))
        [
          ("div", fun m -> m.mdiversity <> None);
          ("stock", fun m -> m.mdiversity = None);
        ];
      List.iter
        (fun st ->
          Telemetry.Metrics.probe reg
            ~labels:[ ("state", Health.state_name st) ]
            ~kind:`Gauge ~help:"devices per health state" "fleet_health_devices"
            (fun () -> count (fun m -> Health.state m.mhealth = st)))
        Health.all_states;
      let c name help f =
        Telemetry.Metrics.probe reg ~kind:`Counter ~help name (fun () ->
            float_of_int (f ()))
      in
      c "fleet_lookups_total" "benign lookups issued" (fun () -> !lookups);
      c "fleet_answered_total" "lookups answered (response parsed)" (fun () ->
          !answered);
      c "fleet_compromises_total" "compromise events" (fun () -> !compromises);
      c "fleet_crashes_total" "crash events" (fun () -> !crashes);
      c "fleet_quarantines_total" "quarantine entries" (fun () ->
          Array.fold_left (fun a m -> a + Health.quarantines m.mhealth) 0 members);
      c "fleet_reintroductions_total" "probation completions" (fun () ->
          Array.fold_left
            (fun a m -> a + Health.reintroductions m.mhealth)
            0 members);
      c "fleet_revivals_total" "supervisor give-ups cleared" (fun () ->
          !revivals);
      c "fleet_rollbacks_total" "rollout waves rolled back" (fun () ->
          !rollbacks);
      c "fleet_escalations_total" "LAN-supervisor escalations" (fun () ->
          Hierarchy.escalations hier);
      c "fleet_forks_total" "CoW daemon spawns" (fun () -> !forks))
    regs;
  (* The monitor scrapes at world barriers: every event at or before the
     barrier time has run before the scrape reads the registry. *)
  (match monitor with
  | None -> ()
  | Some mon ->
      W.set_barrier world ~every_us:(Telemetry.Monitor.interval_us mon)
        (fun now -> Telemetry.Monitor.scrape mon ~now));
  let events = W.run ~until:cfg.horizon_us world in
  let wstats = W.stats world in
  let cache_hits, cache_misses =
    Array.fold_left
      (fun (h, ms) lc ->
        let s = Dns.Cache.stats lc.l_cache in
        (h + s.Dns.Cache.hits, ms + s.Dns.Cache.misses))
      (0, 0) lans
  in
  {
    r_config = cfg;
    r_waves = List.rev !waves_out;
    r_samples = List.rev !samples;
    r_lookups = !lookups;
    r_answered = !answered;
    r_availability =
      (if !lookups = 0 then 1.0
       else float_of_int !answered /. float_of_int !lookups);
    r_compromises = !compromises;
    r_compromised_devices =
      Array.fold_left
        (fun a m -> if m.mever_compromised then a + 1 else a)
        0 members;
    r_diversified =
      Array.fold_left
        (fun a m -> if m.mdiversity <> None then a + 1 else a)
        0 members;
    r_div_compromised =
      Array.fold_left
        (fun a m ->
          if m.mdiversity <> None && m.mever_compromised then a + 1 else a)
        0 members;
    r_stock_compromised =
      Array.fold_left
        (fun a m ->
          if m.mdiversity = None && m.mever_compromised then a + 1 else a)
        0 members;
    r_crashes = !crashes;
    r_restarts =
      Array.fold_left
        (fun a m ->
          a + match m.msup with Some s -> Supervisor.restarts s | None -> 0)
        0 members;
    r_quarantines =
      Array.fold_left (fun a m -> a + Health.quarantines m.mhealth) 0 members;
    r_reintroductions =
      Array.fold_left
        (fun a m -> a + Health.reintroductions m.mhealth)
        0 members;
    r_revivals = !revivals;
    r_escalations = Hierarchy.escalations hier;
    r_rollbacks = !rollbacks;
    r_forks = !forks;
    r_converged_us = !converged;
    r_cache_hits = cache_hits;
    r_cache_misses = cache_misses;
    r_delivered = wstats.W.delivered;
    r_dropped = wstats.W.dropped;
    r_events = events;
  }

let ok r =
  let last_clean =
    match List.rev r.r_samples with
    | s :: _ -> s.s_compromises = 0
    | [] -> false
  in
  r.r_converged_us >= 0 && last_clean
  && r.r_availability > 0.5
  && (match r.r_config.bad_wave with
     | Some _ -> r.r_rollbacks >= 1
     | None -> true)

(* fleet-campaign-v1: fixed key order, %.4f floats, no hash iteration
   anywhere, so the same seed always yields the same bytes. *)
let json r =
  let open Telemetry.Json in
  let c = r.r_config in
  print
    (Obj
       [
         ("schema", Str "fleet-campaign-v1");
         ("seed", Int c.seed);
         ("devices", Int c.devices);
         ("lans", Int c.lans);
         ("arch", Str (arch_name c.arch));
         ("diversity_frac", fixed 4 c.diversity_frac);
         ("horizon_us", Int c.horizon_us);
         ("lookups", Int r.r_lookups);
         ("answered", Int r.r_answered);
         ("availability", fixed 4 r.r_availability);
         ("compromises", Int r.r_compromises);
         ("compromised_devices", Int r.r_compromised_devices);
         ("diversified_devices", Int r.r_diversified);
         ("div_compromised_devices", Int r.r_div_compromised);
         ("stock_compromised_devices", Int r.r_stock_compromised);
         ("crashes", Int r.r_crashes);
         ("restarts", Int r.r_restarts);
         ("quarantines", Int r.r_quarantines);
         ("reintroductions", Int r.r_reintroductions);
         ("revivals", Int r.r_revivals);
         ("escalations", Int r.r_escalations);
         ("rollbacks", Int r.r_rollbacks);
         ("forks", Int r.r_forks);
         ("converged_us", Int r.r_converged_us);
         ("ok", Bool (ok r));
         ( "cache",
           Obj [ ("hits", Int r.r_cache_hits); ("misses", Int r.r_cache_misses) ]
         );
         ( "net",
           Obj
             [
               ("delivered", Int r.r_delivered);
               ("dropped", Int r.r_dropped);
               ("events", Int r.r_events);
             ] );
         ( "waves",
           Arr
             (List.map
                (fun o ->
                  let w = o.o_wave in
                  Obj
                    [
                      ("index", Int w.Rollout.w_index);
                      ("label", Str w.Rollout.w_label);
                      ("first", Int w.Rollout.w_first);
                      ("count", Int w.Rollout.w_count);
                      ("bad", Bool w.Rollout.w_bad);
                      ("applied_us", Int o.o_applied_us);
                      ("evaluated_us", Int o.o_evaluated_us);
                      ("hits", Int o.o_hits);
                      ("rolled_back", Bool o.o_rolled_back);
                    ])
                r.r_waves) );
         ( "samples",
           Arr
             (List.map
                (fun s ->
                  Obj
                    [
                      ("at_us", Int s.s_at_us);
                      ("compromises", Int s.s_compromises);
                      ("crashes", Int s.s_crashes);
                      ("patched", Int s.s_patched);
                      ("healthy", Int s.s_healthy);
                      ("degraded", Int s.s_degraded);
                      ("quarantined", Int s.s_quarantined);
                      ("reintroduced", Int s.s_reintroduced);
                    ])
                r.r_samples) );
       ])

let pp ppf r =
  Format.fprintf ppf
    "@[<v>fleet campaign: %d devices / %d LANs (seed %d)@,\
     lookups %d, answered %d (availability %.4f)@,\
     compromises %d (%d devices; %d/%d diversified vs %d stock), crashes %d, restarts %d@,\
     quarantines %d, reintroductions %d, revivals %d, escalations %d@,\
     waves %d (%d rolled back), converged at %dus@,\
     forks %d, cache %d/%d hit/miss, net %d delivered / %d dropped@]"
    r.r_config.devices r.r_config.lans r.r_config.seed
    r.r_lookups r.r_answered r.r_availability r.r_compromises
    r.r_compromised_devices r.r_div_compromised r.r_diversified
    r.r_stock_compromised r.r_crashes r.r_restarts r.r_quarantines
    r.r_reintroductions r.r_revivals r.r_escalations
    (List.length r.r_waves) r.r_rollbacks r.r_converged_us r.r_forks
    r.r_cache_hits r.r_cache_misses r.r_delivered r.r_dropped
