(* Fleet engine tests: the health state machine and supervision
   hierarchy contracts, the rollout planner, and the campaign acceptance
   criteria — 1,000 devices over 20 LANs, compromises driven
   to zero by the staged rollout, one automatic rollback from the
   injected bad patch, and quarantined devices reintroduced after
   probation.  The default-config document is pinned to the byte in
   test/golden (fleet.json.expected). *)

module H = Fleet.Health
module Hier = Fleet.Hierarchy
module R = Fleet.Rollout
module C = Fleet.Campaign
module Sup = Core.Supervisor
module Sim = Netsim.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- health state machine --- *)

let hcfg = { H.quarantine_crashes = 3; window_us = 1_000; probation_us = 5_000 }

let test_health_crash_path () =
  let h = H.create ~config:hcfg () in
  check_bool "starts healthy" true (H.state h = H.Healthy);
  ignore (H.observe h ~now:10 H.Crashed);
  check_bool "first crash degrades" true (H.state h = H.Degraded);
  ignore (H.observe h ~now:20 H.Probe_ok);
  check_bool "probe heals" true (H.state h = H.Healthy);
  (* Three crashes inside the window: the device-level crash-loop
     verdict. *)
  ignore (H.observe h ~now:100 H.Crashed);
  ignore (H.observe h ~now:200 H.Crashed);
  ignore (H.observe h ~now:300 H.Crashed);
  check_bool "crash loop quarantines" true (H.state h = H.Quarantined);
  check_int "one quarantine" 1 (H.quarantines h);
  ignore (H.observe h ~now:400 H.Probe_ok);
  check_bool "probe ignored while quarantined" true
    (H.state h = H.Quarantined);
  ignore (H.observe h ~now:5_300 H.Probation_over);
  check_bool "probation reintroduces" true (H.state h = H.Reintroduced);
  check_int "one reintroduction" 1 (H.reintroductions h);
  ignore (H.observe h ~now:5_400 H.Probe_ok);
  check_bool "probe heals a reintroduced device" true (H.state h = H.Healthy);
  (* The transition log kept every edge, oldest first. *)
  check_int "transition count" 6 (List.length (H.transitions h));
  check_bool "log is time-ordered" true
    (let ats = List.map (fun t -> t.H.at) (H.transitions h) in
     List.sort compare ats = ats)

let test_health_window_and_immediate_causes () =
  (* Crashes spread wider than the window degrade but never quarantine. *)
  let h = H.create ~config:hcfg () in
  ignore (H.observe h ~now:0 H.Crashed);
  ignore (H.observe h ~now:2_000 H.Crashed);
  ignore (H.observe h ~now:4_000 H.Crashed);
  check_bool "slow crashes only degrade" true (H.state h = H.Degraded);
  (* Compromise quarantines immediately, from any live state. *)
  ignore (H.observe h ~now:4_100 H.Compromised);
  check_bool "compromise quarantines" true (H.state h = H.Quarantined);
  let h2 = H.create ~config:hcfg () in
  ignore (H.observe h2 ~now:0 H.Crash_loop);
  check_bool "supervisor give-up quarantines from healthy" true
    (H.state h2 = H.Quarantined);
  (* Cell escalation is bulk containment: degraded devices only. *)
  let h3 = H.create ~config:hcfg () in
  ignore (H.observe h3 ~now:0 H.Cell_escalated);
  check_bool "escalation ignores a healthy device" true
    (H.state h3 = H.Healthy);
  ignore (H.observe h3 ~now:10 H.Crashed);
  ignore (H.observe h3 ~now:20 H.Cell_escalated);
  check_bool "escalation quarantines a degraded device" true
    (H.state h3 = H.Quarantined)

(* --- supervision hierarchy --- *)

type fake_daemon = { mutable up : bool }

let test_hierarchy_escalation () =
  let sim = Sim.create ~seed:1 () in
  let hier = Hier.create ~escalate_frac:0.5 () in
  let cell = Hier.add_cell hier ~name:"lan-0" in
  let members =
    List.init 4 (fun i ->
        let d = { up = true } in
        let name = Printf.sprintf "m%d" i in
        let sup =
          Sup.supervise ~name ~kind:"fake"
            ~alive:(fun () -> d.up)
            ~restart:(fun () -> d.up <- true)
            sim
        in
        let h = H.create ~config:hcfg () in
        Hier.attach cell ~name ~sup ~health:h;
        h)
  in
  check_int "cell size" 4 (Hier.cell_size cell);
  check_bool "starts ok" true (Hier.cell_state cell = `Ok);
  let fired = ref 0 in
  Hier.on_escalate cell (fun () -> incr fired);
  (* 1/4 down: degraded, below the escalation threshold. *)
  ignore (H.observe (List.nth members 0) ~now:0 H.Compromised);
  Hier.check hier cell ~now:0;
  check_bool "degraded below threshold" true (Hier.cell_state cell = `Degraded);
  check_int "cell down count" 1 (Hier.cell_down cell);
  check_int "no escalation yet" 0 !fired;
  (* 2/4 down reaches escalate_frac: the hook fires exactly once. *)
  ignore (H.observe (List.nth members 1) ~now:10 H.Compromised);
  Hier.check hier cell ~now:10;
  check_bool "escalated at threshold" true (Hier.cell_state cell = `Escalated);
  check_int "hook fired once" 1 !fired;
  Hier.check hier cell ~now:20;
  check_int "hysteresis: no refire while escalated" 1 !fired;
  check_int "one escalation counted" 1 (Hier.escalations hier);
  (* Down fraction back at half of escalate_frac: the episode ends (and a later
     re-escalation may fire the hook again). *)
  ignore (H.observe (List.nth members 0) ~now:30 H.Probation_over);
  Hier.check hier cell ~now:30;
  check_bool "recovered below the hysteresis floor" true
    (Hier.cell_state cell <> `Escalated);
  Alcotest.(check (list (pair string int)))
    "fleet census by state"
    [ ("healthy", 2); ("degraded", 0); ("quarantined", 1); ("reintroduced", 1) ]
    (List.map (fun (s, n) -> (H.state_name s, n)) (Hier.state_counts hier));
  check_bool "edges were logged" true
    (List.exists (fun (_, c, w) -> c = "lan-0" && w = "escalated")
       (Hier.events hier))

(* --- rollout planner --- *)

let test_rollout_plan () =
  let waves = R.plan ~devices:100 ~canary:10 ~wave:40 ~bad_wave:(Some 2) in
  (match waves with
  | [ c; w1; w2; w3 ] ->
      check_string "canary label" "canary" c.R.w_label;
      check_int "canary size" 10 c.R.w_count;
      check_bool "canary is the real patch" false c.R.w_bad;
      check_int "wave-1 starts after the canary" 10 w1.R.w_first;
      check_int "wave-1 size" 40 w1.R.w_count;
      check_string "wave-2 label" "wave-2" w2.R.w_label;
      check_bool "bad wave flagged" true w2.R.w_bad;
      check_bool "other waves are good" false (w1.R.w_bad || w3.R.w_bad);
      check_int "last wave truncated to the fleet" 10 w3.R.w_count
  | ws -> Alcotest.failf "expected 4 waves, got %d" (List.length ws));
  check_int "waves cover every device exactly once" 100
    (List.fold_left (fun a w -> a + w.R.w_count) 0 waves);
  Alcotest.check_raises "devices must be positive"
    (Invalid_argument "Rollout.plan: devices must be positive") (fun () ->
      ignore (R.plan ~devices:0 ~canary:1 ~wave:1 ~bad_wave:None))

let test_rollout_decide () =
  check_bool "under threshold advances" true
    (R.decide ~size:40 ~hits:1 ~rollback_frac:0.05 = `Advance);
  check_bool "exactly at threshold advances (gate is strict)" true
    (R.decide ~size:20 ~hits:1 ~rollback_frac:0.05 = `Advance);
  check_bool "over threshold rolls back" true
    (R.decide ~size:20 ~hits:2 ~rollback_frac:0.05 = `Rollback);
  check_bool "empty wave advances" true
    (R.decide ~size:0 ~hits:0 ~rollback_frac:0.05 = `Advance)

(* --- campaign: smoke config --- *)

let test_campaign_smoke () =
  let r = C.run C.smoke_config in
  check_bool "acceptance predicate holds" true (C.ok r);
  check_bool "injected bad patch rolled back" true (r.C.r_rollbacks >= 1);
  check_bool "devices were quarantined" true (r.C.r_quarantines >= 1);
  check_bool "quarantined devices came back" true (r.C.r_reintroductions >= 1);
  check_bool "fleet converged on the good patch" true (r.C.r_converged_us >= 0);
  (match Telemetry.Json.validate (C.json r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "campaign json invalid: %s" e);
  (* Config validation rejects nonsense. *)
  try
    ignore (C.run { C.smoke_config with C.devices = 0 });
    Alcotest.fail "expected Invalid_argument for devices = 0"
  with Invalid_argument _ -> ()

(* --- campaign: full acceptance criteria --- *)

let test_campaign_acceptance () =
  let cfg = C.default_config in
  check_bool "scale floor: 1,000+ devices" true (cfg.C.devices >= 1000);
  let r1 = C.run cfg in
  let j1 = C.json r1 in
  check_bool "schema tag present" true
    (let tag = {|"schema": "fleet-campaign-v1"|} in
     let n = String.length tag in
     let rec go i =
       i + n <= String.length j1
       && (String.equal (String.sub j1 i n) tag || go (i + 1))
     in
     go 0);
  check_bool "campaign acceptance predicate" true (C.ok r1);
  (* Compromise rate falls to zero as rollout waves complete. *)
  let samples = r1.C.r_samples in
  check_bool "attack phase produced compromises" true
    (r1.C.r_compromises > 0
    && List.exists (fun s -> s.C.s_compromises > 0) samples);
  let last = List.nth samples (List.length samples - 1) in
  check_int "final sample window is compromise-free" 0 last.C.s_compromises;
  check_bool "converged before the horizon" true
    (r1.C.r_converged_us >= 0 && r1.C.r_converged_us < cfg.C.horizon_us);
  check_bool "no compromises once the fleet converged" true
    (List.for_all
       (fun s ->
         s.C.s_at_us <= r1.C.r_converged_us + cfg.C.sample_gap_us
         || s.C.s_compromises = 0)
       samples);
  (* The injected faulty patch triggered at least one automatic rollback,
     recorded both in the counter and in a wave outcome. *)
  check_bool "automatic rollback fired" true (r1.C.r_rollbacks >= 1);
  check_bool "a wave outcome records the rollback" true
    (List.exists (fun w -> w.C.o_rolled_back) r1.C.r_waves);
  (* Quarantine and probation did real work, including clearing
     supervisor give-ups via revive. *)
  check_bool "devices were quarantined" true (r1.C.r_quarantines > 0);
  check_bool "quarantined devices were reintroduced" true
    (r1.C.r_reintroductions > 0);
  check_bool "crash-looped supervisors were revived" true
    (r1.C.r_revivals >= 1);
  check_bool "LAN cells escalated" true (r1.C.r_escalations >= 1);
  check_bool "benign availability above one half" true
    (r1.C.r_availability > 0.5)

let () =
  Alcotest.run "fleet"
    [
      ( "health",
        [
          Alcotest.test_case "crash path through all four states" `Quick
            test_health_crash_path;
          Alcotest.test_case "window + immediate causes" `Quick
            test_health_window_and_immediate_causes;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "escalation threshold + hysteresis" `Quick
            test_hierarchy_escalation;
        ] );
      ( "rollout",
        [
          Alcotest.test_case "plan" `Quick test_rollout_plan;
          Alcotest.test_case "regression gate" `Quick test_rollout_decide;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "smoke config" `Quick test_campaign_smoke;
          Alcotest.test_case "full acceptance criteria" `Slow
            test_campaign_acceptance;
        ] );
    ]
