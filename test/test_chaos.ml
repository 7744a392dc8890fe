(* Determinism and supervision tests: identical seeds must give
   bit-identical fault traces and supervisor schedules (chaos-campaign
   replay is test_replay.ml's); the supervisor must back off, reset, and
   give up exactly as its policy says. *)

module W = Netsim.World
module Ip = Netsim.Ip
module Sim = Netsim.Sim
module F = Netsim.Faults
module Sup = Core.Supervisor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- seed determinism of the impairment layer --- *)

(* Run one seeded world under a policy: a sends 40 datagrams to b over
   2ms, the trace records every delivery as (time, payload). *)
let fault_trace ~seed policy =
  let w = W.create ~seed () in
  let lan = W.add_lan w ~name:"lan" in
  W.set_lan_policy w lan policy;
  let a = W.add_host w ~name:"a" in
  W.set_host_ip a (Some (Ip.of_string "10.0.0.1"));
  W.attach a lan;
  let b = W.add_host w ~name:"b" in
  W.set_host_ip b (Some (Ip.of_string "10.0.0.2"));
  W.attach b lan;
  let trace = ref [] in
  W.on_udp b ~port:9 (fun ctx d ->
      trace := (Sim.now (W.sim ctx.W.world), d.W.payload) :: !trace);
  for i = 1 to 40 do
    Sim.schedule (W.sim w) ~delay:(i * 50) (fun _ ->
        W.send w ~from:a ~dst:(Ip.of_string "10.0.0.2") ~dport:9
          (Printf.sprintf "pkt-%02d" i))
  done;
  ignore (W.run w);
  (List.rev !trace, W.stats w)

let impairment_policies =
  [
    ("default", F.default);
    ("lossy", F.lossy 0.4);
    ( "duplicating",
      { F.default with F.duplicate = 0.5; latency = F.Jitter { base = 300; jitter = 250 } } );
    ("corrupting", { F.default with F.corrupt = 0.5 });
    ("reordering", { F.default with F.reorder = 0.7; reorder_window_us = 2_000 });
    ("flapping", { F.default with F.flaps = [ (400, 900); (1_500, 1_600) ] }) ;
  ]

let test_same_seed_same_trace () =
  List.iter
    (fun (name, policy) ->
      let t1, s1 = fault_trace ~seed:42 policy in
      let t2, s2 = fault_trace ~seed:42 policy in
      check_bool (name ^ ": identical delivery traces") true (t1 = t2);
      check_bool (name ^ ": identical per-reason stats") true (s1 = s2))
    impairment_policies

let test_different_seed_different_trace () =
  (* Not a guarantee for every pair of seeds, but these two must differ
     if the rng is actually driving the impairments. *)
  let t1, _ = fault_trace ~seed:1 (F.lossy 0.4) in
  let t2, _ = fault_trace ~seed:2 (F.lossy 0.4) in
  check_bool "different seeds diverge" true (t1 <> t2)

(* --- supervisor --- *)

(* A daemon the test can kill at will. *)
module Fake_daemon = struct
  type t = { mutable up : bool; mutable boots : int }

  let restart t =
    t.boots <- t.boots + 1;
    t.up <- true
end

let fake () = { Fake_daemon.up = true; boots = 0 }

let supervise_fake ?policy ?on_event sim d =
  Sup.supervise ?policy ?on_event ~kind:"fake"
    ~alive:(fun () -> d.Fake_daemon.up)
    ~restart:(fun () -> Fake_daemon.restart d)
    sim

let exact_backoff_policy =
  {
    Sup.backoff =
      { Sup.initial_us = 100_000; multiplier = 2.0; max_us = 350_000; jitter = 0.0 };
    burst = 10;
    window_us = 1_000_000_000;
  }

let test_backoff_schedule_exact () =
  let sim = Sim.create ~seed:5 () in
  let d = fake () in
  let sup = supervise_fake ~policy:exact_backoff_policy sim d in
  let kill_at delay =
    Sim.schedule sim ~delay (fun _ ->
        d.Fake_daemon.up <- false;
        Sup.notify sup)
  in
  d.Fake_daemon.up <- false;
  Sup.notify sup;
  kill_at 1_000_000;
  kill_at 2_000_000;
  ignore (Sim.run sim);
  let expected =
    [
      (0, Sup.Crash_detected 1);
      (0, Sup.Restart_scheduled 100_000);
      (100_000, Sup.Restarted);
      (1_000_000, Sup.Crash_detected 2);
      (1_000_000, Sup.Restart_scheduled 200_000);
      (1_200_000, Sup.Restarted);
      (2_000_000, Sup.Crash_detected 3);
      (* 400_000 is clamped to the 350_000 ceiling *)
      (2_000_000, Sup.Restart_scheduled 350_000);
      (2_350_000, Sup.Restarted);
    ]
  in
  Alcotest.(check int) "event count" (List.length expected)
    (List.length (Sup.events sup));
  List.iter2
    (fun (at, kind) (e : Sup.event) ->
      check_int "event time" at e.Sup.at;
      check_bool "event kind" true (kind = e.Sup.kind))
    expected (Sup.events sup);
  check_int "restarts" 3 (Sup.restarts sup);
  check_int "boots reached the daemon" 3 d.Fake_daemon.boots;
  check_bool "still watching" true (Sup.state sup = `Watching)

let test_backoff_resets_after_quiet_window () =
  let sim = Sim.create ~seed:5 () in
  let d = fake () in
  let policy = { exact_backoff_policy with Sup.window_us = 500_000 } in
  let sup = supervise_fake ~policy sim d in
  d.Fake_daemon.up <- false;
  Sup.notify sup;
  (* A healthy check after the crash has aged out of the window resets
     the backoff to its initial delay. *)
  Sim.schedule sim ~delay:700_000 (fun _ -> Sup.notify sup);
  Sim.schedule sim ~delay:800_000 (fun _ ->
      d.Fake_daemon.up <- false;
      Sup.notify sup);
  ignore (Sim.run sim);
  let scheduled =
    List.filter_map
      (fun (e : Sup.event) ->
        match e.Sup.kind with Sup.Restart_scheduled d -> Some d | _ -> None)
      (Sup.events sup)
  in
  Alcotest.(check (list int)) "second crash starts over at the initial delay"
    [ 100_000; 100_000 ] scheduled

let test_jitter_is_seed_deterministic () =
  let run seed =
    let sim = Sim.create ~seed () in
    let d = fake () in
    let policy =
      {
        exact_backoff_policy with
        Sup.backoff = { exact_backoff_policy.Sup.backoff with Sup.jitter = 0.5 };
      }
    in
    let sup = supervise_fake ~policy sim d in
    for i = 1 to 3 do
      Sim.schedule sim ~delay:(i * 1_000_000) (fun _ ->
          d.Fake_daemon.up <- false;
          Sup.notify sup)
    done;
    ignore (Sim.run sim);
    List.map (fun (e : Sup.event) -> (e.Sup.at, e.Sup.kind)) (Sup.events sup)
  in
  check_bool "same seed, same jittered schedule" true (run 7 = run 7);
  check_bool "jitter draws from the sim rng" true (run 7 <> run 8)

let test_crash_loop_gives_up () =
  let sim = Sim.create ~seed:5 () in
  let d = fake () in
  let policy = { exact_backoff_policy with Sup.burst = 2 } in
  let sup = ref None in
  let s =
    (* Re-kill the daemon the instant it restarts: a crash loop. *)
    supervise_fake ~policy sim
      ~on_event:(fun e ->
        match e.Sup.kind with
        | Sup.Restarted ->
            d.Fake_daemon.up <- false;
            Option.iter Sup.notify !sup
        | _ -> ())
      d
  in
  sup := Some s;
  d.Fake_daemon.up <- false;
  Sup.notify s;
  ignore (Sim.run sim);
  check_bool "gave up" true (Sup.gave_up s);
  check_bool "terminal state" true (Sup.state s = `Gave_up);
  check_int "crashes observed" 3 (Sup.crashes s);
  check_int "restarts before giving up" 2 (Sup.restarts s);
  check_bool "last event is Gave_up" true
    (match List.rev (Sup.events s) with
    | { Sup.kind = Sup.Gave_up; _ } :: _ -> true
    | _ -> false);
  (* Further notifications are ignored — the loop is dead for good. *)
  Sup.notify s;
  ignore (Sim.run sim);
  check_int "no more restarts" 2 (Sup.restarts s)

let test_revive_after_give_up () =
  let sim = Sim.create ~seed:5 () in
  let d = fake () in
  let policy = { exact_backoff_policy with Sup.burst = 2 } in
  let sup = ref None in
  let crash_loop = ref true in
  let s =
    (* Re-kill on restart until the loop is "fixed" out of band. *)
    supervise_fake ~policy sim
      ~on_event:(fun e ->
        match e.Sup.kind with
        | Sup.Restarted when !crash_loop ->
            d.Fake_daemon.up <- false;
            Option.iter Sup.notify !sup
        | _ -> ())
      d
  in
  sup := Some s;
  d.Fake_daemon.up <- false;
  Sup.notify s;
  ignore (Sim.run sim);
  check_bool "crash loop tripped the burst limit" true (Sup.gave_up s);
  check_bool "daemon left dead" false d.Fake_daemon.up;
  let restarts_before = Sup.restarts s in
  (* The underlying fault is repaired (reimage/quarantine): revive
     restores supervision and restarts the dead daemon immediately. *)
  crash_loop := false;
  Sup.revive s;
  check_bool "watching again" true (Sup.state s = `Watching);
  check_bool "daemon restarted by revive" true d.Fake_daemon.up;
  check_int "revive restart counted" (restarts_before + 1) (Sup.restarts s);
  (match List.rev (Sup.events s) with
  | { Sup.kind = Sup.Restarted; _ } :: { Sup.kind = Sup.Revived; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected trailing events [...; Revived; Restarted]");
  (* Supervision is genuinely live again, and the crash history was
     cleared: a later crash restarts at the initial backoff delay. *)
  Sim.schedule sim ~delay:1_000_000 (fun _ ->
      d.Fake_daemon.up <- false;
      Sup.notify s);
  ignore (Sim.run sim);
  check_bool "restarted after a post-revive crash" true d.Fake_daemon.up;
  check_bool "still watching" true (Sup.state s = `Watching);
  let scheduled =
    List.filter_map
      (fun (e : Sup.event) ->
        match e.Sup.kind with Sup.Restart_scheduled d -> Some d | _ -> None)
      (Sup.events s)
  in
  check_int "post-revive backoff restarted at the initial delay" 100_000
    (List.nth scheduled (List.length scheduled - 1))

let test_name_defaults_to_kind () =
  let sim = Sim.create ~seed:1 () in
  let d = fake () in
  check_string "unnamed supervisor is named after its kind" "fake"
    (Sup.name (supervise_fake sim d));
  let named =
    Sup.supervise ~name:"victim" ~kind:"fake"
      ~alive:(fun () -> d.Fake_daemon.up)
      ~restart:(fun () -> Fake_daemon.restart d)
      sim
  in
  check_string "an explicit name wins" "victim" (Sup.name named)

let test_notify_alive_is_idle () =
  let sim = Sim.create ~seed:1 () in
  let d = fake () in
  let sup = supervise_fake ~policy:exact_backoff_policy sim d in
  Sup.notify sup;
  Sup.notify sup;
  ignore (Sim.run sim);
  check_bool "still watching" true (Sup.state sup = `Watching);
  check_int "no events recorded" 0 (List.length (Sup.events sup));
  check_int "no crashes" 0 (Sup.crashes sup);
  check_int "never rebooted" 0 d.Fake_daemon.boots

(* --- retry policy --- *)

let test_retry_fixed_exhausts () =
  let sim = Sim.create ~seed:1 () in
  let attempts = ref [] in
  Sup.Retry.run sim ~attempts:3 ~timeout_us:1_000
    ~attempt:(fun i -> attempts := (i, Sim.now sim) :: !attempts)
    ~still_needed:(fun () -> true);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int int)))
    "three attempts at fixed timeouts"
    [ (0, 0); (1, 1_000); (2, 2_000) ]
    (List.rev !attempts)

let test_retry_stops_when_answered () =
  let sim = Sim.create ~seed:1 () in
  let count = ref 0 in
  let answered = ref false in
  Sup.Retry.run sim ~attempts:5 ~timeout_us:1_000
    ~attempt:(fun _ -> incr count)
    ~still_needed:(fun () -> not !answered);
  (* The "response" lands between the second and third attempt. *)
  Sim.schedule sim ~delay:1_500 (fun _ -> answered := true);
  ignore (Sim.run sim);
  check_int "stopped after the answer" 2 !count

let test_retry_rejects_bad_bounds () =
  let sim = Sim.create ~seed:1 () in
  let fired = ref 0 in
  let run ~attempts ~timeout_us () =
    Sup.Retry.run sim ~attempts ~timeout_us
      ~attempt:(fun _ -> incr fired)
      ~still_needed:(fun () -> true)
  in
  Alcotest.check_raises "zero attempts"
    (Invalid_argument "Supervisor.Retry.run: attempts must be positive")
    (run ~attempts:0 ~timeout_us:1_000);
  Alcotest.check_raises "zero timeout"
    (Invalid_argument "Supervisor.Retry.run: timeout_us must be positive")
    (run ~attempts:3 ~timeout_us:0);
  ignore (Sim.run sim);
  check_int "a rejected run fires no attempt" 0 !fired

(* --- the device runs on the shared retry policy --- *)

let test_device_retransmits_on_silence () =
  let w = W.create ~seed:3 () in
  let lan = W.add_lan w ~name:"lan" in
  let device =
    Core.Device.create w ~name:"dev"
      ~config:
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch = Loader.Arch.X86;
          profile = Defense.Profile.wx;
          boot_seed = 3;
          diversity_seed = None;
        }
  in
  W.attach (Core.Device.host device) lan;
  W.set_host_ip (Core.Device.host device) (Some (Ip.of_string "10.0.0.2"));
  (* DNS points at an address nobody owns: every query vanishes, so
     every timeout must fire a retransmission. *)
  W.set_host_dns (Core.Device.host device) (Some (Ip.of_string "10.0.0.9"));
  Core.Device.lookup_with_retry device "ipv4.connman.net" ~retries:2
    ~timeout_us:1_000_000;
  ignore (W.run w);
  let retries =
    List.filter
      (fun l ->
        String.length l >= 6
        && String.sub l 0 6 = "lookup"
        &&
        let rec has_retry i =
          i + 8 <= String.length l
          && (String.sub l i 8 = "retrying" || has_retry (i + 1))
        in
        has_retry 0)
      (Core.Device.events device)
  in
  check_int "two retransmissions logged" 2 (List.length retries);
  check_int "three queries hit the wire" 3 (W.stats w).W.no_route

(* --- daemon restart hooks (the supervisor's adaptation targets) --- *)

let test_dnsmasq_restart_revives () =
  let module D = Dnsmasq.Daemon in
  let d =
    D.create
      { D.patched = false; arch = Loader.Arch.X86;
        profile = Defense.Profile.wx; boot_seed = 17 }
  in
  let q = D.make_query d (Dns.Name.of_string "upstream.example") in
  let wire =
    Dns.Craft.hostile_response ~query:q
      ~raw_name:(Dns.Craft.dos_name ~size:8192) ()
  in
  (match D.handle_response d wire with
  | D.Crashed _ -> ()
  | other ->
      Alcotest.failf "expected a crash, got %a" D.pp_disposition other);
  check_bool "dead after DoS" false (D.alive d);
  let sim = Sim.create ~seed:17 () in
  let sup =
    Sup.supervise ~policy:exact_backoff_policy ~kind:"dnsmasq"
      ~alive:(fun () -> D.alive d)
      ~restart:(fun () -> D.restart d)
      sim
  in
  Sup.notify sup;
  ignore (Sim.run sim);
  check_bool "supervisor revived dnsmasq" true (D.alive d);
  check_int "one restart" 1 (Sup.restarts sup)

(* --- the chaos campaign --- *)

let test_chaos_campaign_results () =
  let r = Core.Experiments.chaos_campaign ~seed:1 ~smoke:true () in
  (* The paper's DoS on a clean network is a crash loop: the supervisor
     must detect it and give up (systemd's StartLimitBurst behaviour). *)
  let dos_clean =
    List.find
      (fun (row : Core.Experiments.chaos_row) ->
        row.Core.Experiments.cell = "DoS" && row.Core.Experiments.schedule = "clean")
      r.Core.Experiments.chaos_rows
  in
  check_bool "DoS/clean trips the crash-loop detector" true
    dos_clean.Core.Experiments.gave_up;
  check_bool "crashes exceeded the burst limit" true
    (dos_clean.Core.Experiments.crashes > dos_clean.Core.Experiments.restarts);
  check_bool "a DoS is not a compromise" false
    dos_clean.Core.Experiments.compromised;
  (* Exploit delivery must degrade with link loss (endpoints compared:
     the lossless level can't do worse than 90% loss). *)
  let hits loss =
    let p =
      List.find
        (fun (p : Core.Experiments.sweep_point) ->
          p.Core.Experiments.sweep_loss = loss)
        r.Core.Experiments.chaos_sweep
    in
    p.Core.Experiments.sweep_hits
  in
  check_bool "delivery degrades with loss" true (hits 0.0 > hits 0.9);
  check_int "clean network delivers every exploit" 3 (hits 0.0)

let () =
  Alcotest.run "chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_same_seed_same_trace;
          Alcotest.test_case "different seed diverges" `Quick
            test_different_seed_different_trace;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "exact backoff schedule" `Quick
            test_backoff_schedule_exact;
          Alcotest.test_case "backoff resets after quiet window" `Quick
            test_backoff_resets_after_quiet_window;
          Alcotest.test_case "jitter is seed-deterministic" `Quick
            test_jitter_is_seed_deterministic;
          Alcotest.test_case "crash loop gives up" `Quick
            test_crash_loop_gives_up;
          Alcotest.test_case "revive clears a give-up" `Quick
            test_revive_after_give_up;
          Alcotest.test_case "name defaults to kind" `Quick
            test_name_defaults_to_kind;
          Alcotest.test_case "notify on a live daemon is idle" `Quick
            test_notify_alive_is_idle;
        ] );
      ( "retry",
        [
          Alcotest.test_case "fixed policy exhausts" `Quick
            test_retry_fixed_exhausts;
          Alcotest.test_case "stops when answered" `Quick
            test_retry_stops_when_answered;
          Alcotest.test_case "rejects non-positive bounds" `Quick
            test_retry_rejects_bad_bounds;
          Alcotest.test_case "device retransmits on silence" `Quick
            test_device_retransmits_on_silence;
        ] );
      ( "daemon lifecycle",
        [
          Alcotest.test_case "dnsmasq restart revives" `Quick
            test_dnsmasq_restart_revives;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "paper-relevant results" `Quick
            test_chaos_campaign_results;
        ] );
    ]
