module Dnsproxy = Connman.Dnsproxy
module Version = Connman.Version
module Profile = Defense.Profile
module Autogen = Exploit.Autogen
module O = Machine.Outcome

type row = {
  id : string;
  section : string;
  description : string;
  expected : string;
  observed : string;
  ok : bool;
}

let lookup = Dns.Name.of_string "ipv4.connman.net"

let mk_device ?(version = Version.v1_34) ?(seed = 1) ?diversity_seed arch profile =
  Dnsproxy.create
    { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed }

(* The attacker's payload, generated against [analysis]: the attacker's
   own boot of the firmware, never the victim. *)
let craft ?strategy analysis =
  Autogen.generate
    ~analysis:(Exploit.Target.connman (Dnsproxy.process analysis))
    ?strategy ()

(* Build the payload against the attacker's analysis copy (a different
   boot of the same firmware), then fire it over a forged response. *)
let fire ?strategy d =
  let cfg = Dnsproxy.config d in
  match
    craft ?strategy
      (Dnsproxy.create { cfg with Dnsproxy.boot_seed = cfg.Dnsproxy.boot_seed + 5000 })
  with
  | Error e -> Error e
  | Ok (payload, raw_name) ->
      let query = Dnsproxy.make_query d lookup in
      Ok
        ( payload,
          Dnsproxy.handle_response d (Autogen.response_for ~query ~raw_name) )

let disposition_word : Connman.Forwarder.disposition -> string = function
  | Cached _ -> "parsed"
  | Dropped _ -> "dropped"
  | Crashed _ -> "crash"
  | Compromised r when O.is_shell r -> "root shell"
  | Compromised _ -> "code execution"
  | Blocked _ -> "blocked"

let row ~id ~section ~description ~expected observed =
  { id; section; description; expected; observed; ok = expected = observed }

(* --- E0: denial of service --------------------------------------------- *)

let dos_wire q =
  Dns.Craft.hostile_response ~query:q ~raw_name:(Dns.Craft.dos_name ~size:8192) ()

let e0_dos ?(seed = 1) () =
  List.concat_map
    (fun arch ->
      let vulnerable = mk_device ~seed arch Profile.wx in
      let q = Dnsproxy.make_query vulnerable lookup in
      let got = Dnsproxy.handle_response vulnerable (dos_wire q) in
      let patched = mk_device ~version:Version.v1_35 ~seed arch Profile.wx in
      let q2 = Dnsproxy.make_query patched lookup in
      let got2 = Dnsproxy.handle_response patched (dos_wire q2) in
      [
        row
          ~id:(Printf.sprintf "E0/%s" (Loader.Arch.name arch))
          ~section:"§III" ~description:"oversized Type-A response vs 1.34"
          ~expected:"crash" (disposition_word got);
        row
          ~id:(Printf.sprintf "E0/%s/patched" (Loader.Arch.name arch))
          ~section:"§II" ~description:"same response vs patched 1.35"
          ~expected:"parsed" (disposition_word got2);
      ])
    Loader.Arch.all

(* --- E1–E6: the six-exploit matrix -------------------------------------- *)

let matrix_cells =
  [
    ("E1", "§III-A1", Loader.Arch.X86, Profile.none, Autogen.Code_injection,
     "code injection, no protections");
    ("E2", "§III-A2", Loader.Arch.Arm, Profile.none, Autogen.Code_injection,
     "code injection, no protections");
    ("E3", "§III-B1", Loader.Arch.X86, Profile.wx, Autogen.Ret2libc,
     "ret2libc under W^X");
    ("E4", "§III-B2", Loader.Arch.Arm, Profile.wx, Autogen.Rop_wx,
     "gadget chain under W^X");
    ("E5", "§III-C1", Loader.Arch.X86, Profile.wx_aslr, Autogen.Rop_aslr,
     "memcpy/.bss ROP under W^X+ASLR");
    ("E6", "§III-C2", Loader.Arch.Arm, Profile.wx_aslr, Autogen.Rop_aslr,
     "blx-trampoline ROP under W^X+ASLR");
  ]

(* One row per matrix cell: boot the cell's target with its profile
   hardened, fire the cell's exploit and report the disposition word. *)
let matrix_rows ~seed ~harden row_of =
  List.map
    (fun ((_, _, arch, profile, strategy, _) as cell) ->
      let d = mk_device ~seed arch (harden profile) in
      let observed =
        match fire ~strategy d with
        | Error e -> "generation failed: " ^ e
        | Ok (_, disposition) -> disposition_word disposition
      in
      row_of cell observed)
    matrix_cells

(* The matrix again under one added defense, which must block every cell. *)
let matrix_ablation ~seed ~harden ~prefix ~section ~defense =
  matrix_rows ~seed ~harden (fun (id, _, arch, _, strategy, _) observed ->
      row
        ~id:(prefix ^ "/" ^ id)
        ~section
        ~description:
          (Printf.sprintf "%s vs %s on %s" defense
             (Autogen.strategy_name strategy)
             (Loader.Arch.name arch))
        ~expected:"blocked" observed)

let e1_to_e6_matrix ?(seed = 1) () =
  matrix_rows ~seed ~harden:Fun.id
    (fun (id, section, arch, _, _, description) observed ->
      let description =
        Printf.sprintf "%s (%s)" description (Loader.Arch.name arch)
      in
      row ~id ~section ~description ~expected:"root shell" observed)

(* --- E7: Wi-Fi Pineapple remote delivery -------------------------------- *)

let e7_pineapple ?(seed = 1) () =
  let cells =
    [
      ("E7/x86-smash", Loader.Arch.X86, Profile.none, Some Autogen.Code_injection);
      ("E7/arm-inject", Loader.Arch.Arm, Profile.none, Some Autogen.Code_injection);
      ("E7/arm-wx", Loader.Arch.Arm, Profile.wx, Some Autogen.Rop_wx);
      ("E7/arm-aslr", Loader.Arch.Arm, Profile.wx_aslr, Some Autogen.Rop_aslr);
    ]
  in
  List.map
    (fun (id, arch, profile, strategy) ->
      let config =
        {
          Dnsproxy.version = Version.v1_34;
          arch;
          profile;
          boot_seed = seed;
          diversity_seed = None;
        }
      in
      let observed =
        match Scenario.pineapple_attack ~seed ?strategy ~config () with
        | Error e -> "generation failed: " ^ e
        | Ok r -> (
            if r.Scenario.associated_after <> "pineapple" then "no hijack"
            else
              match r.Scenario.attack_disposition with
              | Some d -> disposition_word d
              | None -> "no response")
      in
      row ~id ~section:"§III-D"
        ~description:
          (Printf.sprintf "Pineapple MITM, %s, %s" (Loader.Arch.name arch)
             (Profile.name profile))
        ~expected:"root shell" observed)
    cells

(* --- E8: firmware survey ------------------------------------------------ *)

let e8_survey ?(seed = 1) () =
  List.map
    (fun fw ->
      let d = Dnsproxy.create (Firmware.to_config ~boot_seed:seed fw) in
      let q = Dnsproxy.make_query d lookup in
      let wire =
        Dns.Craft.hostile_response ~query:q
          ~raw_name:(Dns.Craft.dos_name ~size:8192)
          ()
      in
      let got = Dnsproxy.handle_response d wire in
      row
        ~id:("E8/" ^ fw.Firmware.name)
        ~section:"§II–III"
        ~description:
          (Printf.sprintf "%s (connman %s)" fw.Firmware.os
             (Version.to_string fw.Firmware.connman))
        ~expected:(if Firmware.vulnerable fw then "crash" else "parsed")
        (disposition_word got))
    Firmware.catalog

(* --- A1: CFI blocks every code-reuse exploit ---------------------------- *)

(* CFI CaRE guards return edges; pure code injection is already dead
   under W^X but the injected return still violates the shadow stack. *)
let a1_cfi ?(seed = 1) () =
  matrix_ablation ~seed ~harden:Profile.with_shadow_stack ~prefix:"A1"
    ~section:"§IV" ~defense:"CFI"

(* --- A2: software diversity --------------------------------------------- *)

let a2_diversity ?(seed = 1) ?(fleet = 16) () =
  let arch = Loader.Arch.Arm in
  match
    craft ~strategy:Autogen.Rop_wx (mk_device ~seed ~diversity_seed:0 arch Profile.wx)
  with
  | Error e ->
      [
        row ~id:"A2" ~section:"§IV" ~description:"diversity fleet"
          ~expected:"0 compromised" ("generation failed: " ^ e);
      ]
  | Ok (_, raw_name) ->
      let compromised = ref 0 in
      for i = 1 to fleet do
        let d = mk_device ~seed:(seed + i) ~diversity_seed:i arch Profile.wx in
        let query = Dnsproxy.make_query d lookup in
        match Dnsproxy.handle_response d (Autogen.response_for ~query ~raw_name) with
        | Dnsproxy.Compromised _ -> incr compromised
        | _ -> ()
      done;
      (* Control: the same payload against the build it was made for. *)
      let same = mk_device ~seed:(seed + 999) ~diversity_seed:0 arch Profile.wx in
      let query = Dnsproxy.make_query same lookup in
      let control =
        Dnsproxy.handle_response same (Autogen.response_for ~query ~raw_name)
      in
      [
        (* Diversity is probabilistic protection (§IV): the claim is that a
           single payload stops working across the fleet, not that every
           build is immune — a shuffle can coincide.  Pass when at most an
           eighth of the fleet falls. *)
        {
          id = "A2/fleet";
          section = "§IV";
          description =
            Printf.sprintf "one payload vs %d diversified builds" fleet;
          expected = Printf.sprintf "<= %d compromised" (fleet / 8);
          observed = Printf.sprintf "%d compromised" !compromised;
          ok = !compromised <= fleet / 8;
        };
        row ~id:"A2/control" ~section:"§IV"
          ~description:"same payload vs the build it targets"
          ~expected:"root shell" (disposition_word control);
      ]

(* --- A3: stack canaries -------------------------------------------------- *)

let a3_canary ?(seed = 1) () =
  matrix_ablation ~seed ~harden:Profile.with_canary ~prefix:"A3"
    ~section:"§III (CFLAGS)" ~defense:"canary"

(* --- A4: ASLR entropy brute-force sweep ---------------------------------- *)

let a4_entropy_sweep ?(seed = 1) ?(trials = 64) ?(bits = [ 0; 2; 4; 6 ]) () =
  let arch = Loader.Arch.X86 in
  (* Attacker hardcodes the static libc layout (analysis without ASLR). *)
  match craft ~strategy:Autogen.Ret2libc (mk_device ~seed arch Profile.wx) with
  | Error e ->
      [
        row ~id:"A4" ~section:"related work" ~description:"entropy sweep"
          ~expected:"-" ("generation failed: " ^ e);
      ]
  | Ok (_, raw_name) ->
      List.map
        (fun b ->
          let profile = Profile.with_entropy b Profile.wx in
          let hits = ref 0 in
          for i = 1 to trials do
            let d = mk_device ~seed:(seed + (i * 131)) arch profile in
            let query = Dnsproxy.make_query d lookup in
            match
              Dnsproxy.handle_response d (Autogen.response_for ~query ~raw_name)
            with
            | Dnsproxy.Compromised _ -> incr hits
            | _ -> ()
          done;
          let rate = Stats.binomial_rate ~hits:!hits ~trials in
          let expected_rate = 1.0 /. float_of_int (1 lsl b) in
          (* The Wilson interval of the measurement must cover the theory
             (z = 2.58 for a 99% interval keeps seed-to-seed flakiness
             negligible across the whole sweep). *)
          let interval = Stats.wilson_interval ~hits:!hits ~trials ~z:2.58 () in
          {
            id = Printf.sprintf "A4/%d-bits" b;
            section = "§VI (brute force)";
            description =
              Printf.sprintf "ret2libc vs %d entropy bits (%d trials)" b trials;
            expected = Printf.sprintf "rate ~ %.3f" expected_rate;
            observed = Printf.sprintf "rate = %.3f" rate;
            ok = Stats.interval_contains interval expected_rate;
          })
        bits

(* --- A6: §V adaptation — the toolkit vs dnsmasq-sim ---------------------- *)

let a6_adaptation ?(seed = 1) () =
  let module D = Dnsmasq.Daemon in
  let dnsmasq_target proc =
    Exploit.Target.make
      ~frame:(Dnsmasq.Frame.geometry proc.Loader.Process.arch)
      ~buffer_addr:(Dnsmasq.Frame.buffer_addr proc)
      proc
  in
  let fire_dnsmasq ~patched arch profile strategy =
    let d = D.create { D.patched; arch; profile; boot_seed = seed } in
    let analysis =
      D.process (D.create { D.patched; arch; profile; boot_seed = seed + 5000 })
    in
    match Autogen.generate ~analysis:(dnsmasq_target analysis) ~strategy () with
    | Error e -> "generation failed: " ^ e
    | Ok (_, raw_name) -> (
        let query = D.make_query d (Dns.Name.of_string "upstream.example") in
        disposition_word
          (D.handle_response d (Dns.Craft.hostile_response ~query ~raw_name ())))
  in
  List.map
    (fun (id, arch, profile, strategy, patched, expected) ->
      row
        ~id:("A6/" ^ id)
        ~section:"§V"
        ~description:
          (Printf.sprintf "dnsmasq-sim %s: %s on %s"
             (if patched then "2.78" else "2.77")
             (Autogen.strategy_name strategy)
             (Loader.Arch.name arch))
        ~expected
        (fire_dnsmasq ~patched arch profile strategy))
    [
      ("dos", Loader.Arch.X86, Profile.wx, Autogen.Dos, false, "crash");
      ("inject-x86", Loader.Arch.X86, Profile.none, Autogen.Code_injection, false,
       "root shell");
      ("ret2libc-x86", Loader.Arch.X86, Profile.wx, Autogen.Ret2libc, false,
       "root shell");
      ("ropwx-arm", Loader.Arch.Arm, Profile.wx, Autogen.Rop_wx, false,
       "root shell");
      ("ropaslr-arm", Loader.Arch.Arm, Profile.wx_aslr, Autogen.Rop_aslr, false,
       "root shell");
      ("patched", Loader.Arch.Arm, Profile.wx, Autogen.Rop_wx, true, "parsed");
    ]

(* --- A5: the automated generator end-to-end ------------------------------ *)

let a5_autogen ?(seed = 1) () =
  List.map
    (fun (arch, profile) ->
      let d = mk_device ~seed arch profile in
      let observed =
        match fire d with
        | Error e -> "generation failed: " ^ e
        | Ok (payload, disposition) ->
            Printf.sprintf "%s via %s" (disposition_word disposition)
              payload.Exploit.Payload.strategy
      in
      let expected =
        Printf.sprintf "root shell via %s"
          (Autogen.strategy_name (Autogen.choose profile arch))
      in
      row
        ~id:
          (Printf.sprintf "A5/%s-%s" (Loader.Arch.name arch) (Profile.name profile))
        ~section:"§VII" ~description:"strategy auto-selection" ~expected observed)
    [
      (Loader.Arch.X86, Profile.none);
      (Loader.Arch.X86, Profile.wx);
      (Loader.Arch.X86, Profile.wx_aslr);
      (Loader.Arch.Arm, Profile.none);
      (Loader.Arch.Arm, Profile.wx);
      (Loader.Arch.Arm, Profile.wx_aslr);
    ]

(* --- A8: §V protocol adaptation — crafted TCP packets --------------------- *)

let a8_tcp_carrier ?(seed = 1) () =
  let module D = Tcpsvc.Daemon in
  let tcpsvc_target proc =
    Exploit.Target.make
      ~frame:(Tcpsvc.Frame.geometry proc.Loader.Process.arch)
      ~buffer_addr:(Tcpsvc.Frame.buffer_addr proc)
      proc
  in
  let fire ~patched arch profile strategy =
    let d = D.create { D.patched; arch; profile; boot_seed = seed } in
    let analysis =
      D.process (D.create { D.patched; arch; profile; boot_seed = seed + 5000 })
    in
    match Autogen.build ~analysis:(tcpsvc_target analysis) strategy with
    | Error e -> Format.asprintf "generation failed: %a" Exploit.Payload.pp_error e
    | Ok payload -> (
        match
          D.handle_frame d (D.frame ~tag:(Exploit.Payload.to_raw_bytes payload))
        with
        | D.Handled -> "handled"
        | D.Rejected _ -> "rejected"
        | D.Crashed _ -> "crash"
        | D.Compromised r when O.is_shell r -> "root shell"
        | D.Compromised _ -> "code execution"
        | D.Blocked _ -> "blocked")
  in
  List.map
    (fun (id, arch, profile, strategy, patched, expected) ->
      row
        ~id:("A8/" ^ id)
        ~section:"§V"
        ~description:
          (Printf.sprintf "tcpsvc-sim %s: %s on %s"
             (if patched then "1.1" else "1.0")
             (Autogen.strategy_name strategy)
             (Loader.Arch.name arch))
        ~expected
        (fire ~patched arch profile strategy))
    [
      ("inject-arm", Loader.Arch.Arm, Profile.none, Autogen.Code_injection, false,
       "root shell");
      ("ret2libc-x86", Loader.Arch.X86, Profile.wx, Autogen.Ret2libc, false,
       "root shell");
      ("ropaslr-x86", Loader.Arch.X86, Profile.wx_aslr, Autogen.Rop_aslr, false,
       "root shell");
      ("ropaslr-arm", Loader.Arch.Arm, Profile.wx_aslr, Autogen.Rop_aslr, false,
       "root shell");
      ("patched", Loader.Arch.Arm, Profile.wx, Autogen.Rop_wx, true, "rejected");
    ]

(* --- A7: seccomp syscall filter ------------------------------------------ *)

let a7_seccomp ?(seed = 1) () =
  matrix_ablation ~seed ~harden:Profile.with_seccomp ~prefix:"A7"
    ~section:"hardening" ~defense:"seccomp (no exec)"

let all ?(seed = 1) () =
  e0_dos ~seed ()
  @ e1_to_e6_matrix ~seed ()
  @ e7_pineapple ~seed ()
  @ e8_survey ~seed ()
  @ a1_cfi ~seed ()
  @ a2_diversity ~seed ()
  @ a3_canary ~seed ()
  @ a4_entropy_sweep ~seed ()
  @ a5_autogen ~seed ()
  @ a6_adaptation ~seed ()
  @ a7_seccomp ~seed ()
  @ a8_tcp_carrier ~seed ()

(* --- C: chaos campaign — the matrix under deterministic faults ----------- *)

module W = Netsim.World
module F = Netsim.Faults
module Ip = Netsim.Ip

type chaos_row = {
  cell : string;
  schedule : string;
  compromised : bool;
  crashes : int;
  restarts : int;
  gave_up : bool;
  availability : float;  (* benign-phase lookups answered / attempted *)
  delivered : int;
  dropped : int;
  dropped_fault : int;
  dropped_link : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
}

type sweep_point = { sweep_loss : float; sweep_trials : int; sweep_hits : int }

type chaos_report = {
  chaos_seed : int;
  chaos_smoke : bool;
  chaos_rows : chaos_row list;
  chaos_sweep : sweep_point list;
}

(* Named fault schedules, each a single impairment turned up far enough
   to matter.  The flap windows are chosen against the campaign timeline
   below: the first knocks out two attack rounds, the second two benign
   rounds. *)
let chaos_schedules =
  [
    ("clean", F.default);
    ("loss-30", F.lossy 0.30);
    ("loss-60", F.lossy 0.60);
    ("loss-90", F.lossy 0.90);
    ( "dup-reorder",
      { F.default with F.duplicate = 0.35; reorder = 0.5; reorder_window_us = 4_000 } );
    ("corrupt-20", { F.default with F.corrupt = 0.20 });
    ( "flappy",
      { F.default with F.flaps = [ (5_500_000, 12_000_000); (32_500_000, 39_000_000) ] } );
  ]

let chaos_cells =
  ("DoS", Loader.Arch.X86, Profile.wx, `Dos)
  :: List.map
       (fun (id, _, arch, profile, strategy, _) ->
         (id, arch, profile, `Exploit strategy))
       matrix_cells

(* Campaign timeline (µs): attack lookups, then the forge turns honest
   and the benign lookups measure availability. *)
let chaos_attack_rounds = 6
let chaos_benign_rounds = 4
let chaos_round_gap_us = 5_000_000
let chaos_attack_start_us = 1_000_000
let chaos_benign_start_us = 31_000_000

let count_cached device =
  List.length
    (List.filter
       (function Dnsproxy.Cached _ -> true | _ -> false)
       (Device.dispositions device))

(* The chaos venue: a victim connmand (v1.34 on [arch] under [profile],
   booted at [boot_seed]) and the attacker's host, alone on one LAN
   under [policy], the victim using the attacker as its DNS server. *)
let chaos_venue ~seed ~boot_seed ~policy arch profile =
  let world = W.create ~seed () in
  let lan = W.add_lan world ~name:"venue" in
  W.set_lan_policy world lan policy;
  let attacker_ip = Ip.of_string "10.9.0.1" in
  let attacker = W.add_host world ~name:"attacker" in
  W.set_host_ip attacker (Some attacker_ip);
  W.attach attacker lan;
  let config =
    { Dnsproxy.version = Version.v1_34; arch; profile; boot_seed;
      diversity_seed = None }
  in
  let device = Device.create world ~name:"victim" ~config in
  W.attach (Device.host device) lan;
  W.set_host_ip (Device.host device) (Some (Ip.of_string "10.9.0.100"));
  W.set_host_dns (Device.host device) (Some attacker_ip);
  (world, attacker, device)

(* One cell × one schedule on the chaos venue, connmand under
   supervision.  [instrument] runs once the world, device, and
   supervisor exist but before any traffic — the telemetry layer's
   attach point. *)
let run_chaos_cell ?(instrument = fun _ _ _ -> ()) ~seed
    (cell, arch, profile, kind) (sched_name, policy) =
  let world, attacker, device =
    chaos_venue ~seed ~boot_seed:seed ~policy arch profile
  in
  let sup = Device.supervise device in
  instrument world device sup;
  let attack_response =
    match kind with
    | `Dos ->
        fun ~query ->
          Some
            (Dns.Craft.hostile_response ~query
               ~raw_name:(Dns.Craft.dos_name ~size:8192) ())
    | `Exploit strategy -> (
        match craft ~strategy (mk_device ~seed:(seed + 5000) arch profile) with
        | Ok (_, raw_name) ->
            fun ~query -> Some (Autogen.response_for ~query ~raw_name)
        | Error _ -> fun ~query:_ -> None)
  in
  let benign_ip = Ip.of_string "93.184.216.34" in
  let mode = ref `Attack in
  Netsim.Dns_server.malicious world attacker ~forge:(fun ~query ~raw:_ ->
      match !mode with
      | `Attack -> attack_response ~query
      | `Benign -> (
          match query.Dns.Packet.questions with
          | [] -> None
          | q :: _ ->
              Some
                (Dns.Packet.encode
                   (Dns.Packet.response ~query
                      [ Dns.Packet.a_record q.Dns.Packet.qname ~ttl:300
                          ~ipv4:benign_ip ]))))
    ;
  let sim = W.sim world in
  let fire _ =
    Device.lookup_with_retry device "ipv4.connman.net" ~retries:2
      ~timeout_us:1_500_000
  in
  for i = 0 to chaos_attack_rounds - 1 do
    Netsim.Sim.schedule sim
      ~delay:(chaos_attack_start_us + (i * chaos_round_gap_us))
      fire
  done;
  let benign_baseline = ref 0 in
  Netsim.Sim.schedule sim ~delay:(chaos_benign_start_us - 500_000) (fun _ ->
      mode := `Benign;
      benign_baseline := count_cached device);
  for i = 0 to chaos_benign_rounds - 1 do
    Netsim.Sim.schedule sim
      ~delay:(chaos_benign_start_us + (i * chaos_round_gap_us))
      fire
  done;
  ignore (W.run world);
  let st = W.stats world in
  let answered = count_cached device - !benign_baseline in
  {
    cell;
    schedule = sched_name;
    compromised =
      List.exists
        (function Dnsproxy.Compromised _ -> true | _ -> false)
        (Device.dispositions device);
    crashes = Supervisor.crashes sup;
    restarts = Supervisor.restarts sup;
    gave_up = Supervisor.gave_up sup;
    availability =
      min 1.0 (float_of_int answered /. float_of_int chaos_benign_rounds);
    delivered = st.W.delivered;
    dropped = st.W.dropped;
    dropped_fault = st.W.dropped_fault;
    dropped_link = st.W.dropped_link;
    corrupted = st.W.corrupted;
    duplicated = st.W.duplicated;
    reordered = st.W.reordered;
  }

(* A chaos cell with the telemetry layer attached: trace sinks on the
   world, the daemon (and through it the process memory and the traced
   CPU), and the supervisor; optional profiler on the parse; optional
   metrics registry over all three.  Returns the row plus a symbolizer
   bound to the daemon's current process, for rendering the profile. *)
let run_instrumented_cell ?(seed = 1) ?(schedule = "clean") ?trace ?profiler
    ?metrics ?monitor ~cell () =
  match
    ( List.find_opt (fun (id, _, _, _) -> id = cell) chaos_cells,
      List.assoc_opt schedule chaos_schedules )
  with
  | None, _ ->
      Error
        (Printf.sprintf "unknown cell %S (expected one of: %s)" cell
           (String.concat ", " (List.map (fun (id, _, _, _) -> id) chaos_cells)))
  | _, None ->
      Error
        (Printf.sprintf "unknown schedule %S (expected one of: %s)" schedule
           (String.concat ", " (List.map fst chaos_schedules)))
  | Some cell_spec, Some policy ->
      let daemon_ref = ref None in
      let instrument world device sup =
        let daemon = Device.daemon device in
        daemon_ref := Some daemon;
        (match trace with
        | None -> ()
        | Some _ ->
            W.set_trace world trace;
            Dnsproxy.set_trace daemon trace;
            Supervisor.set_trace sup trace);
        (match profiler with
        | None -> ()
        | Some _ -> Dnsproxy.set_profiler daemon profiler);
        (* The monitor's registry rides the same probe set; dedupe when
           the caller passed it as [?metrics] too. *)
        let regs =
          let base = Option.to_list metrics in
          match monitor with
          | None -> base
          | Some m ->
              let mr = Telemetry.Monitor.registry m in
              if List.memq mr base then base else base @ [ mr ]
        in
        List.iter
          (fun reg ->
            W.register_metrics world reg;
            Dnsproxy.register_metrics daemon reg;
            Supervisor.register_metrics sup reg)
          regs;
        match monitor with
        | None -> ()
        | Some m ->
            Supervisor.set_monitor sup (Some m);
            W.set_barrier world
              ~every_us:(Telemetry.Monitor.interval_us m)
              (fun now -> Telemetry.Monitor.scrape m ~now)
      in
      let row =
        run_chaos_cell ~instrument ~seed cell_spec (schedule, policy)
      in
      let symbolize pc =
        match !daemon_ref with
        | None -> Printf.sprintf "0x%08x" pc
        | Some d -> Exploit.Debugger.symbolize (Dnsproxy.process d) pc
      in
      Ok (row, symbolize)

(* Loss sweep: one payload (code injection, no protections — delivery is
   the only variable) fired once per trial across fresh worlds; success
   should fall monotonically as loss rises. *)
let chaos_sweep ~seed ~trials =
  let arch = Loader.Arch.X86 and profile = Profile.none in
  let raw_name =
    match
      craft ~strategy:Autogen.Code_injection
        (mk_device ~seed:(seed + 5000) arch profile)
    with
    | Ok (_, raw_name) -> Some raw_name
    | Error _ -> None
  in
  List.map
    (fun loss ->
      let hits = ref 0 in
      for i = 1 to trials do
        let world, attacker, device =
          chaos_venue ~seed:(seed + (i * 131)) ~boot_seed:(seed + i)
            ~policy:(F.lossy loss) arch profile
        in
        Netsim.Dns_server.malicious world attacker ~forge:(fun ~query ~raw:_ ->
            match raw_name with
            | Some raw_name -> Some (Autogen.response_for ~query ~raw_name)
            | None -> None);
        Device.lookup_with_retry device "ipv4.connman.net" ~retries:2
          ~timeout_us:1_500_000;
        ignore (W.run world);
        if
          List.exists
            (function Dnsproxy.Compromised _ -> true | _ -> false)
            (Device.dispositions device)
        then incr hits
      done;
      { sweep_loss = loss; sweep_trials = trials; sweep_hits = !hits })
    [ 0.0; 0.3; 0.6; 0.9 ]

let chaos_campaign ?(seed = 1) ?(smoke = false) () =
  let cells, schedules =
    if smoke then
      ( List.filter (fun (id, _, _, _) -> id = "DoS" || id = "E1") chaos_cells,
        List.filter
          (fun (n, _) -> n = "clean" || n = "loss-60" || n = "flappy")
          chaos_schedules )
    else (chaos_cells, chaos_schedules)
  in
  let rows =
    List.concat_map
      (fun (ci, cell) ->
        List.map
          (fun (si, sched) ->
            run_chaos_cell
              ~seed:(seed + (ci * 1009) + (si * 101))
              cell sched)
          (List.mapi (fun si s -> (si, s)) schedules))
      (List.mapi (fun ci c -> (ci, c)) cells)
  in
  let sweep = chaos_sweep ~seed ~trials:(if smoke then 3 else 8) in
  { chaos_seed = seed; chaos_smoke = smoke; chaos_rows = rows;
    chaos_sweep = sweep }

(* Fixed key order and %.4f floats (%.2f for the loss rate) so
   identical seeds serialize to identical bytes. *)
let chaos_json r =
  let open Telemetry.Json in
  print
    (Obj
       [
         ("schema", Str "chaos-campaign-v1");
         ("seed", Int r.chaos_seed);
         ("smoke", Bool r.chaos_smoke);
         ( "rows",
           Arr
             (List.map
                (fun row ->
                  Obj
                    [
                      ("cell", Str row.cell);
                      ("schedule", Str row.schedule);
                      ("compromised", Bool row.compromised);
                      ("crashes", Int row.crashes);
                      ("restarts", Int row.restarts);
                      ("gave_up", Bool row.gave_up);
                      ("availability", fixed 4 row.availability);
                      ("delivered", Int row.delivered);
                      ("dropped", Int row.dropped);
                      ("dropped_fault", Int row.dropped_fault);
                      ("dropped_link", Int row.dropped_link);
                      ("corrupted", Int row.corrupted);
                      ("duplicated", Int row.duplicated);
                      ("reordered", Int row.reordered);
                    ])
                r.chaos_rows) );
         ( "loss_sweep",
           Arr
             (List.map
                (fun p ->
                  Obj
                    [
                      ("loss", fixed 2 p.sweep_loss);
                      ("trials", Int p.sweep_trials);
                      ("compromised", Int p.sweep_hits);
                    ])
                r.chaos_sweep) );
       ])

let pp_chaos ppf r =
  let line = String.make 100 '-' in
  Format.fprintf ppf "chaos campaign (seed %d%s)@." r.chaos_seed
    (if r.chaos_smoke then ", smoke grid" else "");
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "%-6s %-12s %-12s %7s %8s %8s %6s %9s %9s@." "cell"
    "schedule" "compromised" "crashes" "restarts" "gave_up" "avail" "delivered"
    "dropped";
  Format.fprintf ppf "%s@." line;
  List.iter
    (fun row ->
      Format.fprintf ppf "%-6s %-12s %-12b %7d %8d %8b %6.2f %9d %9d@." row.cell
        row.schedule row.compromised row.crashes row.restarts row.gave_up
        row.availability row.delivered row.dropped)
    r.chaos_rows;
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "loss sweep (code injection, no protections):@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "  loss %.2f: %d/%d compromised@." p.sweep_loss
        p.sweep_hits p.sweep_trials)
    r.chaos_sweep

let pp_table ppf rows =
  let line =
    String.make 118 '-'
  in
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "%-16s %-16s %-42s %-20s %-16s %s@." "id" "section"
    "description" "expected" "observed" "ok";
  Format.fprintf ppf "%s@." line;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-16s %-42s %-20s %-16s %s@." r.id r.section
        (if String.length r.description > 42 then
           String.sub r.description 0 39 ^ "..."
         else r.description)
        r.expected r.observed
        (if r.ok then "PASS" else "FAIL"))
    rows;
  Format.fprintf ppf "%s@." line;
  let passed = List.length (List.filter (fun r -> r.ok) rows) in
  Format.fprintf ppf "%d/%d experiment rows reproduce the paper@." passed
    (List.length rows)

(* --- D: detection matrix — every cell re-run under the sanitizer -------- *)

module Oracle = Sanitizer.Oracle

type detection_row = {
  det_cell : string;  (** "DoS", "E1".."E6", "benign-x86", "benign-arm" *)
  det_arch : string;
  det_profile : string;
  det_disposition : string;  (** {!disposition_word} of the sanitized run *)
  det_reports : int;
  det_counts : (string * int) list;  (** per-kind counts, severity order *)
  det_first : Oracle.report option;  (** earliest detection point *)
  det_first_symbol : string;  (** symbolized pc of that report, [""] if none *)
  det_rendered : string list;  (** every report, rendered and symbolized *)
  det_ok : bool;
}

let detection_kinds =
  [
    Oracle.Redzone_write;
    Oracle.Ret_slot_overwrite;
    Oracle.Tainted_pc;
    Oracle.Tainted_syscall;
  ]

(* The sanitizer must catch an exploit before (or at) the control-flow
   hijack: anything up to tainted-pc counts as a timely first detection.
   A first detection of tainted-syscall alone would mean the smash and
   the hijack both went unnoticed. *)
let detection_cells =
  ("DoS", Loader.Arch.X86, Profile.wx, `Dos)
  :: List.map
       (fun (id, _, arch, profile, strategy, _) ->
         (id, arch, profile, `Exploit strategy))
       matrix_cells
  @ [
      ("benign-x86", Loader.Arch.X86, Profile.wx, `Benign);
      ("benign-arm", Loader.Arch.Arm, Profile.wx, `Benign);
    ]

let benign_wire d =
  let q = Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query:q
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8_D822 ])

let detection_matrix ?(seed = 1) () =
  List.map
    (fun (cell, arch, profile, kind) ->
      let d = mk_device ~seed arch profile in
      let oracle = Oracle.create () in
      Dnsproxy.set_sanitizer d (Some oracle);
      let disposition =
        match kind with
        | `Dos ->
            let q = Dnsproxy.make_query d lookup in
            Some (Dnsproxy.handle_response d (dos_wire q))
        | `Benign -> Some (Dnsproxy.handle_response d (benign_wire d))
        | `Exploit strategy -> (
            match fire ~strategy d with
            | Error _ -> None
            | Ok (_, disposition) -> Some disposition)
      in
      let det_disposition =
        match disposition with
        | None -> "generation failed"
        | Some disp -> disposition_word disp
      in
      let first = Oracle.first_report oracle in
      let symbolize pc = Exploit.Debugger.symbolize (Dnsproxy.process d) pc in
      let det_first_symbol =
        match first with None -> "" | Some r -> symbolize r.Oracle.pc
      in
      let benign = match kind with `Benign -> true | _ -> false in
      let det_ok =
        if benign then
          (* Zero false positives on well-formed traffic. *)
          det_disposition = "parsed" && Oracle.report_count oracle = 0
        else
          det_disposition <> "parsed"
          && det_disposition <> "dropped"
          &&
          match first with
          | None -> false
          | Some r ->
              Oracle.severity r.Oracle.kind
              <= Oracle.severity Oracle.Tainted_pc
      in
      {
        det_cell = cell;
        det_arch = Loader.Arch.name arch;
        det_profile = Profile.name profile;
        det_disposition;
        det_reports = Oracle.report_count oracle;
        det_counts =
          List.map
            (fun k -> (Oracle.kind_name k, Oracle.count oracle k))
            detection_kinds;
        det_first = first;
        det_first_symbol;
        det_rendered =
          List.map (Oracle.render ~symbolize) (Oracle.reports oracle);
        det_ok;
      })
    detection_cells

(* Deterministic serialization, same contract as [chaos_json]. *)
let detection_json ?(seed = 1) rows =
  let open Telemetry.Json in
  let hex n = Str (Printf.sprintf "0x%08x" n) in
  let first r =
    match r.det_first with
    | None -> Null
    | Some f ->
        Obj
          [
            ("kind", Str (Oracle.kind_name f.Oracle.kind));
            ("step", Int f.Oracle.step);
            ("pc", hex f.Oracle.pc);
            ("addr", hex f.Oracle.addr);
            ("target", hex f.Oracle.target);
            ("source", Int (Oracle.source_id f));
            ("wire_offset", Int (Oracle.wire_offset f));
            ("origin", Str f.Oracle.origin);
            ("symbol", Str r.det_first_symbol);
            ("detail", Str f.Oracle.detail);
          ]
  in
  print
    (Obj
       [
         ("schema", Str "detection-matrix-v1");
         ("seed", Int seed);
         ( "rows",
           Arr
             (List.map
                (fun r ->
                  Obj
                    ([
                       ("cell", Str r.det_cell);
                       ("arch", Str r.det_arch);
                       ("profile", Str r.det_profile);
                       ("disposition", Str r.det_disposition);
                       ("reports", Int r.det_reports);
                     ]
                    @ List.map (fun (k, n) -> (k, Int n)) r.det_counts
                    @ [ ("first", first r); ("ok", Bool r.det_ok) ]))
                rows) );
       ])

let pp_detection ppf rows =
  let line = String.make 112 '-' in
  Format.fprintf ppf "detection matrix (sanitizer oracle)@.%s@." line;
  Format.fprintf ppf "%-11s %-5s %-8s %-15s %8s  %-20s %s@." "cell" "arch"
    "profile" "disposition" "reports" "first detection" "at";
  Format.fprintf ppf "%s@." line;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-11s %-5s %-8s %-15s %8d  %-20s %s  [%s]@."
        r.det_cell r.det_arch r.det_profile r.det_disposition r.det_reports
        (match r.det_first with
        | None -> "-"
        | Some f -> Oracle.kind_name f.Oracle.kind)
        (match r.det_first with
        | None -> "-"
        | Some f ->
            Printf.sprintf "step %d, %s, wire[%d]@%s" f.Oracle.step
              r.det_first_symbol (Oracle.wire_offset f)
              f.Oracle.origin)
        (if r.det_ok then "PASS" else "FAIL"))
    rows;
  Format.fprintf ppf "%s@." line;
  let passed = List.length (List.filter (fun r -> r.det_ok) rows) in
  Format.fprintf ppf "%d/%d cells detected as expected@." passed
    (List.length rows)

let pp_markdown ppf rows =
  Format.fprintf ppf "| id | section | description | expected | observed | ok |@.";
  Format.fprintf ppf "|---|---|---|---|---|---|@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "| %s | %s | %s | %s | %s | %s |@." r.id r.section
        r.description r.expected r.observed
        (if r.ok then "✅" else "❌"))
    rows

(* --- F: fuzz campaign — rediscovering Listing 1 from benign seeds --------- *)

type fuzz_report = {
  fuzz_seed : int;
  fuzz_smoke : bool;
  fuzz_runs : Fuzz.Engine.stats list;  (* x86, then ARM *)
  fuzz_ok : bool;
}

(* Budgets sized from measured behaviour (seed 1 rediscovers at exec 954
   on both ISAs): smoke leaves ~4x headroom and still finishes in well
   under a second per ISA.  The campaign passes when both ISAs
   rediscover the overflow. *)
let fuzz_campaign ?(seed = 1) ?(smoke = false) ?execs () =
  let max_execs =
    match execs with Some e -> e | None -> if smoke then 4_000 else 20_000
  in
  let runs =
    List.map
      (fun arch ->
        Fuzz.Engine.run
          {
            Fuzz.Engine.default_config with
            Fuzz.Engine.arch;
            seed;
            max_execs;
            stop_on_find = true;
          })
      [ Loader.Arch.X86; Loader.Arch.Arm ]
  in
  {
    fuzz_seed = seed;
    fuzz_smoke = smoke;
    fuzz_runs = runs;
    fuzz_ok =
      List.for_all (fun st -> st.Fuzz.Engine.rediscovered_at <> None) runs;
  }

(* Deterministic serialization, same contract as [chaos_json]: the
   embedded per-run documents are [Fuzz.Engine.stats_value], so the
   campaign file carries everything a single run's file would. *)
let fuzz_json r =
  let open Telemetry.Json in
  print
    (Obj
       [
         ("schema", Str "fuzz-campaign-v1");
         ("seed", Int r.fuzz_seed);
         ("smoke", Bool r.fuzz_smoke);
         ("ok", Bool r.fuzz_ok);
         ("runs", Arr (List.map Fuzz.Engine.stats_value r.fuzz_runs));
       ])

let pp_fuzz ppf r =
  Format.fprintf ppf "fuzz campaign (seed %d%s)@." r.fuzz_seed
    (if r.fuzz_smoke then ", smoke" else "");
  List.iter (fun st -> Fuzz.Engine.pp_stats ppf st) r.fuzz_runs;
  Format.fprintf ppf "%s@."
    (if r.fuzz_ok then
       "PASS: Listing-1 overflow rediscovered on both ISAs"
     else "FAIL: overflow not rediscovered within budget")

(* --- V: diversity survival matrix ---------------------------------------- *)

type variant_stats = {
  var_seed : int;
  var_moved : int;
  var_pad_bytes : int;
  var_rewrites : int;
  var_gadgets : int;
  var_gadget_survival : float;
      (* fraction of the undiversified image's gadget addresses that are
         still gadget starts in this variant *)
}

type div_combo = {
  combo : string;  (* "base" | "div" | "shstk" | "div+shstk" *)
  combo_profile : string;
  combo_diversified : bool;
  combo_trials : int;
  combo_successes : int;
  combo_rate : float;
  combo_ci_low : float;
  combo_ci_high : float;
  combo_mitigations : string list;
      (* [Autogen.mitigated_by]: defenses expected to stop this cell *)
  combo_ok : bool;
  combo_gadgets_baseline : int;
  combo_gadget_survival_mean : float;
  combo_moved_mean : float;
  combo_pad_mean : float;
  combo_rewrites_mean : float;
  combo_variant_sample : variant_stats list;  (* first few, for the JSON *)
}

type div_cell = {
  div_id : string;  (* "DoS", "E1".."E6" *)
  div_arch : string;
  div_base_profile : string;
  div_combos : div_combo list;
}

type div_report = {
  div_seed : int;
  div_n : int;  (* variants per cell × combo *)
  div_smoke : bool;
  div_cells : div_cell list;
  div_ok : bool;
}

let variant_sample_size = 4

let gadget_addrs proc =
  match proc.Loader.Process.arch with
  | Loader.Arch.X86 ->
      List.map
        (fun g -> g.Exploit.Gadget.xaddr)
        (Exploit.Gadget.scan_x86 proc ~regions:[ ".text" ])
  | Loader.Arch.Arm ->
      List.map
        (fun g -> g.Exploit.Gadget.aaddr)
        (Exploit.Gadget.scan_arm proc ~regions:[ ".text" ])

(* One cell × one defense combination: fire the same pre-built wire at
   [n] forks of a template device — copy-on-write clones for the
   undiversified combos, [fork_diversified] variants (one derived seed
   per device index) for the diversified ones — and count survivals.
   Success means the attack achieved its goal: code ran for an exploit
   cell, the daemon died for DoS.  For diversified combos, each
   variant's diversification stats (layout moves, padding, Equiv
   rewrites via the variant plan; gadget count and gadget-address
   survival via the scanner) feed the per-combination aggregates. *)
let run_div_combo ~seed ~n ~arch ~kind ~wire_for (combo, profile, diversified) =
  let template = mk_device ~seed arch profile in
  let baseline = if diversified then gadget_addrs (Dnsproxy.process template) else [] in
  let baseline_set = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace baseline_set a ()) baseline;
  let nbase = List.length baseline in
  let successes = ref 0 in
  let stats = ref [] in
  for i = 0 to n - 1 do
    let d =
      if diversified then
        Dnsproxy.fork_diversified template
          ~diversity_seed:(Diversity.Pool.seed_for ~master:seed i)
      else Dnsproxy.fork template
    in
    let q = Dnsproxy.make_query d lookup in
    let success =
      match (Dnsproxy.handle_response d (wire_for q), kind) with
      | (Dnsproxy.Crashed _ | Dnsproxy.Blocked _), `Dos -> true
      | Dnsproxy.Compromised _, `Exploit _ -> true
      | _ -> false
    in
    if success then incr successes;
    if diversified then begin
      let plan =
        match Dnsproxy.variant_plan d with
        | Some plan -> plan
        | None -> invalid_arg "run_div_combo: a diversified fork without a variant plan"
      in
      let vseed = plan.Diversity.Variant.seed in
      let addrs = gadget_addrs (Dnsproxy.process d) in
      let surviving =
        List.length (List.filter (Hashtbl.mem baseline_set) addrs)
      in
      stats :=
        {
          var_seed = vseed;
          var_moved = plan.Diversity.Variant.moved;
          var_pad_bytes = plan.Diversity.Variant.pad_bytes;
          var_rewrites = plan.Diversity.Variant.rewrites;
          var_gadgets = List.length addrs;
          var_gadget_survival =
            (if nbase = 0 then 0.0
             else float_of_int surviving /. float_of_int nbase);
        }
        :: !stats
    end
  done;
  let stats = List.rev !stats in
  let meanf f = Stats.mean (List.map f stats) in
  let mitigations =
    match kind with
    | `Dos -> []
    | `Exploit strategy -> Autogen.mitigated_by profile strategy
  in
  let rate = Stats.binomial_rate ~hits:!successes ~trials:n in
  let lo, hi = Stats.wilson_interval ~hits:!successes ~trials:n () in
  let combo_ok =
    match kind with
    (* The mitigations never block resource-exhaustion DoS: the daemon
       must die in every combination. *)
    | `Dos -> !successes = n
    | `Exploit _ ->
        if mitigations <> [] then !successes = 0
        else if not diversified then !successes = n
        else true (* probabilistic: judged against "base" in the cell *)
  in
  {
    combo;
    combo_profile = Profile.name profile;
    combo_diversified = diversified;
    combo_trials = n;
    combo_successes = !successes;
    combo_rate = rate;
    combo_ci_low = lo;
    combo_ci_high = hi;
    combo_mitigations = mitigations;
    combo_ok;
    combo_gadgets_baseline = nbase;
    combo_gadget_survival_mean = meanf (fun s -> s.var_gadget_survival);
    combo_moved_mean = meanf (fun s -> float_of_int s.var_moved);
    combo_pad_mean = meanf (fun s -> float_of_int s.var_pad_bytes);
    combo_rewrites_mean = meanf (fun s -> float_of_int s.var_rewrites);
    combo_variant_sample =
      List.filteri (fun i _ -> i < variant_sample_size) stats;
  }

(* The four defense combinations of the headline experiment: the cell's
   own profile, plus layout diversity, plus the enforced embedded
   mitigations (shadow stack + forward-edge CFI), plus both. *)
let div_combos profile =
  [
    ("base", profile, false);
    ("div", profile, true);
    ("shstk", Profile.with_mitigations profile, false);
    ("div+shstk", Profile.with_mitigations profile, true);
  ]

let diversity_matrix ?(seed = 1) ?(smoke = false) ?variants ?arch ?base_profile
    () =
  let n = match variants with Some n -> n | None -> if smoke then 48 else 1000 in
  if n < 1 then invalid_arg "Experiments.diversity_matrix: variants must be positive";
  let selected =
    List.filter
      (fun (_, a, p, _) ->
        (match arch with None -> true | Some want -> a = want)
        &&
        match base_profile with
        | None -> true
        | Some want -> Profile.name p = Profile.name want)
      chaos_cells
  in
  if selected = [] then
    invalid_arg "Experiments.diversity_matrix: no cell matches the filter";
  let cells =
    List.map
      (fun (id, arch, base_profile, kind) ->
        (* The payload is built once per cell against an undiversified
           analysis boot of the base profile — the attacker studied a
           stock image; the combinations measure how far that one
           payload carries across the diversified/mitigated fleet. *)
        let wire_for =
          match kind with
          | `Dos -> dos_wire
          | `Exploit strategy -> (
              match
                craft ~strategy (mk_device ~seed:(seed + 5000) arch base_profile)
              with
              | Ok (_, raw_name) ->
                  fun query -> Autogen.response_for ~query ~raw_name
              | Error e ->
                  failwith
                    (Printf.sprintf "diversity_matrix %s: generation failed: %s"
                       id e))
        in
        let combos =
          List.map
            (run_div_combo ~seed ~n ~arch ~kind ~wire_for)
            (div_combos base_profile)
        in
        (* Monotonicity judgment for the probabilistic combo: layout
           diversity may only lower the survival rate below the
           undiversified base. *)
        let rate_of name =
          match List.find_opt (fun c -> c.combo = name) combos with
          | Some c -> c.combo_rate
          | None -> 0.0
        in
        let combos =
          List.map
            (fun c ->
              if c.combo = "div" then
                { c with combo_ok = c.combo_ok && c.combo_rate <= rate_of "base" }
              else c)
            combos
        in
        {
          div_id = id;
          div_arch = Loader.Arch.name arch;
          div_base_profile = Profile.name base_profile;
          div_combos = combos;
        })
      selected
  in
  {
    div_seed = seed;
    div_n = n;
    div_smoke = smoke;
    div_cells = cells;
    div_ok =
      List.for_all
        (fun c -> List.for_all (fun k -> k.combo_ok) c.div_combos)
        cells;
  }

(* Deterministic serialization, same contract as [chaos_json]: fixed key
   order, %.4f floats (%.2f for the means), so the same seed always
   yields the same bytes. *)
let diversity_json r =
  let open Telemetry.Json in
  let variant v =
    Obj
      [
        ("seed", Int v.var_seed);
        ("moved", Int v.var_moved);
        ("pad_bytes", Int v.var_pad_bytes);
        ("rewrites", Int v.var_rewrites);
        ("gadgets", Int v.var_gadgets);
        ("gadget_survival", fixed 4 v.var_gadget_survival);
      ]
  in
  let combo k =
    Obj
      [
        ("combo", Str k.combo);
        ("profile", Str k.combo_profile);
        ("diversified", Bool k.combo_diversified);
        ("trials", Int k.combo_trials);
        ("successes", Int k.combo_successes);
        ("rate", fixed 4 k.combo_rate);
        ("ci_low", fixed 4 k.combo_ci_low);
        ("ci_high", fixed 4 k.combo_ci_high);
        ("mitigations", Arr (List.map (fun m -> Str m) k.combo_mitigations));
        ("gadgets_baseline", Int k.combo_gadgets_baseline);
        ("gadget_survival_mean", fixed 4 k.combo_gadget_survival_mean);
        ("moved_mean", fixed 2 k.combo_moved_mean);
        ("pad_mean", fixed 2 k.combo_pad_mean);
        ("rewrites_mean", fixed 2 k.combo_rewrites_mean);
        ("variants", Arr (List.map variant k.combo_variant_sample));
        ("ok", Bool k.combo_ok);
      ]
  in
  print
    (Obj
       [
         ("schema", Str "diversity-matrix-v1");
         ("seed", Int r.div_seed);
         ("variants", Int r.div_n);
         ("smoke", Bool r.div_smoke);
         ("ok", Bool r.div_ok);
         ( "cells",
           Arr
             (List.map
                (fun c ->
                  Obj
                    [
                      ("cell", Str c.div_id);
                      ("arch", Str c.div_arch);
                      ("base_profile", Str c.div_base_profile);
                      ("combos", Arr (List.map combo c.div_combos));
                    ])
                r.div_cells) );
       ])

let pp_diversity ppf r =
  let line = String.make 104 '-' in
  Format.fprintf ppf
    "diversity survival matrix (seed %d, %d variants per cell%s)@." r.div_seed
    r.div_n
    (if r.div_smoke then ", smoke" else "");
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf "%-5s %-5s %-10s %-10s %-14s %9s %17s %9s %6s@." "cell"
    "arch" "profile" "combo" "mitigations" "survival" "95% CI" "gadgets" "ok";
  Format.fprintf ppf "%s@." line;
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          Format.fprintf ppf "%-5s %-5s %-10s %-10s %-14s %4d/%-4d %8.4f–%-8.4f %9s %6s@."
            c.div_id c.div_arch k.combo_profile k.combo
            (match k.combo_mitigations with
            | [] -> "-"
            | l -> String.concat "+" l)
            k.combo_successes k.combo_trials k.combo_ci_low k.combo_ci_high
            (if k.combo_diversified then
               Printf.sprintf "%.0f%%" (100.0 *. k.combo_gadget_survival_mean)
             else "-")
            (if k.combo_ok then "PASS" else "FAIL"))
        c.div_combos)
    r.div_cells;
  Format.fprintf ppf "%s@." line;
  Format.fprintf ppf
    "%s: gadget%% is the mean fraction of stock-image gadget addresses \
     surviving diversification@."
    (if r.div_ok then "PASS" else "FAIL")
