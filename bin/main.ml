(* connman-repro: command-line driver for the reproduction.

   Subcommands:
     experiments  — run the full experiment index and print the table
     matrix       — the six-exploit §III matrix only
     pineapple    — narrate the §III-D remote scenario
     gadgets      — list gadgets in the Connman image (ropper/ROPgadget)
     firmware     — print the firmware survey catalogue
     layout       — print a booted process's address-space layout
     trace        — replay a matrix cell with the cross-layer tracer on
     profile      — instruction-level profile of a matrix cell's parses
     sanitize     — the detection matrix: every cell under the taint
                    sanitizer, with symbolized exploit reports
     metrics      — cache stats + the Prometheus-style metrics registry

   The experiment subcommands (sanitize, chaos, fuzz, diversity, fleet,
   monitor, codec-diff) share one shape, see [experiment]. *)

open Cmdliner

let arch_conv =
  let parse = function
    | "x86" -> Ok Loader.Arch.X86
    | "arm" | "armv7" -> Ok Loader.Arch.Arm
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown architecture: %s (expected x86, arm, or armv7)" s))
  in
  Arg.conv (parse, Loader.Arch.pp)

let profile_conv =
  (* Compound profile strings: a base (none, wx, wx+aslr) optionally
     extended with "+"-separated mitigations, e.g. wx+aslr+shstk+fcfi.
     "aslr" alone keeps its historical meaning of wx+aslr. *)
  let feature p = function
    | "aslr" -> Some (Defense.Profile.with_entropy 12 p)
    | "canary" -> Some (Defense.Profile.with_canary p)
    | "shstk" -> Some (Defense.Profile.with_shadow_stack p)
    | "fcfi" -> Some (Defense.Profile.with_forward_cfi p)
    | "mitigated" -> Some (Defense.Profile.with_mitigations p)
    | "seccomp" -> Some (Defense.Profile.with_seccomp p)
    | _ -> None
  in
  let parse s =
    let err =
      Error
        (`Msg
          (Printf.sprintf
             "unknown profile: %s (expected none, wx, or wx+aslr, optionally \
              extended with +canary, +shstk, +fcfi, +mitigated, \
              +seccomp)"
             s))
    in
    match String.split_on_char '+' s with
    | [] -> err
    | base :: features -> (
        let base =
          match base with
          | "none" -> Some Defense.Profile.none
          | "wx" -> Some Defense.Profile.wx
          | "aslr" -> Some Defense.Profile.wx_aslr
          | _ -> None
        in
        match
          List.fold_left
            (fun acc f -> match acc with None -> None | Some p -> feature p f)
            base features
        with
        | Some p -> Ok p
        | None -> err)
  in
  Arg.conv (parse, Defense.Profile.pp)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic run seed.")

(* An option flag without a default: [None] when absent. *)
let optional kind name doc =
  Arg.(value & opt (some kind) None & info [ name ] ~doc)

let arch_arg =
  Arg.(
    value
    & opt arch_conv Loader.Arch.Arm
    & info [ "arch" ] ~doc:"Target architecture (x86 or arm).")

let profile_arg =
  Arg.(
    value
    & opt profile_conv Defense.Profile.wx_aslr
    & info [ "profile" ] ~doc:"Protection profile (none, wx, wx+aslr).")

let markdown_arg =
  Arg.(value & flag & info [ "markdown" ] ~doc:"Emit a markdown table.")

let experiments_cmd =
  let run seed markdown =
    let rows = Core.Experiments.all ~seed () in
    if markdown then Format.printf "%a@." Core.Experiments.pp_markdown rows
    else Format.printf "%a@." Core.Experiments.pp_table rows;
    if List.for_all (fun r -> r.Core.Experiments.ok) rows then 0 else 1
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full experiment index (E0–E8, A1–A8).")
    Term.(const run $ seed_arg $ markdown_arg)

let matrix_cmd =
  let run seed =
    Format.printf "%a@." Core.Experiments.pp_table
      (Core.Experiments.e1_to_e6_matrix ~seed ());
    0
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Run the six-exploit matrix of §III.")
    Term.(const run $ seed_arg)

let pineapple_cmd =
  let run seed arch profile =
    let config =
      {
        Connman.Dnsproxy.version = Connman.Version.v1_34;
        arch;
        profile;
        boot_seed = seed;
        diversity_seed = None;
      }
    in
    match Core.Scenario.pineapple_attack ~seed ~config () with
    | Error e ->
        Format.eprintf "payload generation failed: %s@." e;
        1
    | Ok r ->
        Format.printf "%a@." Core.Scenario.pp_result r;
        Format.printf "@.device log:@.";
        List.iter (fun l -> Format.printf "  %s@." l)
          (Core.Device.events r.Core.Scenario.device);
        0
  in
  Cmd.v
    (Cmd.info "pineapple" ~doc:"Run the §III-D Wi-Fi Pineapple scenario.")
    Term.(const run $ seed_arg $ arch_arg $ profile_arg)

let gadgets_cmd =
  let run seed arch limit =
    let d =
      Connman.Dnsproxy.create
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile = Defense.Profile.wx;
          boot_seed = seed;
          diversity_seed = None;
        }
    in
    let proc = Connman.Dnsproxy.process d in
    (match arch with
    | Loader.Arch.X86 ->
        let gs = Exploit.Gadget.scan_x86 proc ~regions:[ ".text" ] in
        Format.printf "%d gadgets in .text (showing %d)@." (List.length gs)
          (min limit (List.length gs));
        List.iteri
          (fun i g -> if i < limit then Format.printf "%a@." Exploit.Gadget.pp_x86 g)
          gs
    | Loader.Arch.Arm ->
        let gs = Exploit.Gadget.scan_arm proc ~regions:[ ".text" ] in
        Format.printf "%d gadgets in .text@." (List.length gs);
        List.iteri
          (fun i g -> if i < limit then Format.printf "%a@." Exploit.Gadget.pp_arm g)
          gs);
    0
  in
  let limit_arg =
    Arg.(value & opt int 40 & info [ "limit" ] ~doc:"Maximum gadgets to print.")
  in
  Cmd.v
    (Cmd.info "gadgets" ~doc:"List code-reuse gadgets in the Connman image.")
    Term.(const run $ seed_arg $ arch_arg $ limit_arg)

let firmware_cmd =
  let run () =
    List.iter
      (fun fw ->
        Format.printf "%a  [%s]@." Core.Firmware.pp fw
          (if Core.Firmware.vulnerable fw then "VULNERABLE" else "patched"))
      Core.Firmware.catalog;
    0
  in
  Cmd.v
    (Cmd.info "firmware" ~doc:"Print the firmware survey catalogue.")
    Term.(const run $ const ())

let layout_cmd =
  let run seed arch profile =
    let d =
      Connman.Dnsproxy.create
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile;
          boot_seed = seed;
          diversity_seed = None;
        }
    in
    Format.printf "%a@." Loader.Process.pp_summary (Connman.Dnsproxy.process d);
    0
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print a booted connmand's address-space layout.")
    Term.(const run $ seed_arg $ arch_arg $ profile_arg)

let disasm_cmd =
  let run seed arch fn =
    let d =
      Connman.Dnsproxy.create
        {
          Connman.Dnsproxy.version = Connman.Version.v1_34;
          arch;
          profile = Defense.Profile.wx;
          boot_seed = seed;
          diversity_seed = None;
        }
    in
    let proc = Connman.Dnsproxy.process d in
    match Loader.Process.symbol_opt proc fn with
    | None ->
        Format.eprintf "unknown function %S@." fn;
        1
    | Some _ ->
        List.iter (Format.printf "%s@.")
          (Exploit.Debugger.disassemble_function proc ~name:fn ~max_insns:128 ());
        0
  in
  let fn_arg =
    Arg.(
      value & pos 0 string "get_name"
      & info [] ~docv:"FUNCTION" ~doc:"Symbol to disassemble.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a function of the Connman image.")
    Term.(const run $ seed_arg $ arch_arg $ fn_arg)

(* Shared by trace/profile/metrics: which exploit-matrix cell to replay
   and under which chaos fault schedule. *)
let cell_arg =
  Arg.(
    value & opt string "E3"
    & info [ "cell" ] ~doc:"Exploit-matrix cell (DoS, E1..E6).")

let schedule_arg =
  Arg.(
    value & opt string "clean"
    & info [ "schedule" ]
        ~doc:
          "Named chaos fault schedule (clean, loss-30, loss-60, loss-90, \
           dup-reorder, corrupt-20, flappy).")

let pp_cell_summary seed (row : Core.Experiments.chaos_row) =
  Format.printf
    "cell %s under %s (seed %d): compromised=%b crashes=%d restarts=%d \
     availability=%.2f@."
    row.Core.Experiments.cell row.Core.Experiments.schedule seed
    row.Core.Experiments.compromised row.Core.Experiments.crashes
    row.Core.Experiments.restarts row.Core.Experiments.availability

(* Every JSON document is validated before it is written to [out];
   [false] when it does not parse. *)
let write_json ~name out json =
  let valid =
    match Telemetry.Json.validate json with
    | Ok () -> true
    | Error e ->
        Format.eprintf "%s json: INVALID (%s)@." name e;
        false
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc json);
      Format.printf "wrote %s (%d bytes)@." path (String.length json))
    out;
  valid

(* One experiment subcommand: [run] is the subcommand's own term,
   yielding the experiment as a thunk.  The result is printed with [pp],
   its JSON validated and written to --out, and the exit code is 0 only
   when the JSON is valid and [ok] holds.  An [Invalid_argument] or
   [Failure] from the run (a bad option value) exits 1 with its
   message. *)
let experiment name ~doc ~out_doc ~pp ~to_json ~ok run =
  let main run out =
    match run () with
    | exception (Invalid_argument e | Failure e) ->
        Format.eprintf "%s@." e;
        1
    | r ->
        Format.printf "%a@." pp r;
        let valid = write_json ~name out (to_json r) in
        if valid && ok r then 0 else 1
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const main $ run $ optional Arg.string "out" out_doc)

let trace_cmd =
  let run seed cell schedule buffer out limit =
    let trace = Telemetry.Trace.create ~capacity:buffer () in
    match Core.Experiments.run_instrumented_cell ~seed ~schedule ~trace ~cell () with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, _symbolize) ->
        pp_cell_summary seed row;
        Format.printf "%d events emitted, %d retained, %d dropped@."
          (Telemetry.Trace.emitted trace)
          (Telemetry.Trace.length trace)
          (Telemetry.Trace.dropped trace);
        if out = None then begin
          let evs = Telemetry.Trace.events trace in
          let n = List.length evs in
          List.iteri
            (fun i e ->
              if i < limit / 2 || i >= n - (limit / 2) then
                Format.printf "%a@." Telemetry.Trace.pp_event e
              else if i = limit / 2 then
                Format.printf "  ... (%d events elided)@." (n - limit))
            evs;
          0
        end
        else if write_json ~name:"trace" out (Telemetry.Trace.to_chrome_json trace)
        then 0
        else 1
  in
  let buffer_arg =
    Arg.(
      value & opt int 65536
      & info [ "buffer" ] ~doc:"Ring-buffer capacity in events.")
  in
  let out_arg =
    optional Arg.string "out"
      "Write Chrome trace-event JSON (loadable in ui.perfetto.dev) to a \
       file instead of printing the timeline."
  in
  let limit_arg =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~doc:"Timeline lines to print (head/tail split).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay one exploit-matrix cell with the cross-layer tracer attached \
          (cpu, memory, network, daemon, supervisor on one timeline).")
    Term.(
      const run $ seed_arg $ cell_arg $ schedule_arg $ buffer_arg $ out_arg
      $ limit_arg)

let profile_cmd =
  let run seed cell schedule top folded =
    let profiler = Telemetry.Profile.create () in
    match
      Core.Experiments.run_instrumented_cell ~seed ~schedule ~profiler ~cell ()
    with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, symbolize) ->
        pp_cell_summary seed row;
        Format.printf "@.%a@."
          (Telemetry.Profile.pp_flat ~top ~symbolize)
          profiler;
        (match folded with
        | None -> ()
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Telemetry.Profile.folded profiler ~symbolize ()));
            Format.printf "wrote %s (folded stacks for flamegraph.pl)@." path);
        0
  in
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~doc:"Flat-profile rows to print.")
  in
  let folded_arg =
    optional Arg.string "folded"
      "Write flamegraph-ready folded stacks to a file."
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Replay one exploit-matrix cell with the instruction-level profiler \
          attached and print a per-symbol flat profile.")
    Term.(const run $ seed_arg $ cell_arg $ schedule_arg $ top_arg $ folded_arg)

let sanitize_cmd =
  let pp ppf (_, show_reports, rows) =
    Core.Experiments.pp_detection ppf rows;
    if show_reports then
      List.iter
        (fun (r : Core.Experiments.detection_row) ->
          match r.Core.Experiments.det_rendered with
          | [] -> ()
          | lines ->
              Format.fprintf ppf "@.%s (%s, %s):@." r.Core.Experiments.det_cell
                r.Core.Experiments.det_arch r.Core.Experiments.det_profile;
              List.iter (fun l -> Format.fprintf ppf "  %s@." l) lines)
        rows
  in
  let reports_arg =
    Arg.(
      value & flag
      & info [ "reports" ]
          ~doc:"Also print every sanitizer report (symbolized), per cell.")
  in
  experiment "sanitize"
    ~doc:
      "Re-run the DoS, the six-exploit matrix, and benign controls under \
       the byte-granular taint sanitizer; print where each attack was \
       first detected (exit 1 if any cell is missed or a benign control \
       reports)."
    ~out_doc:"Write the detection matrix as JSON to a file." ~pp
    ~to_json:(fun (seed, _, rows) -> Core.Experiments.detection_json ~seed rows)
    ~ok:(fun (_, _, rows) -> List.for_all (fun r -> r.Core.Experiments.det_ok) rows)
    Term.(
      const (fun seed reports () ->
          (seed, reports, Core.Experiments.detection_matrix ~seed ()))
      $ seed_arg $ reports_arg)

let botnet_cmd =
  let run seed =
    let pick n = Option.get (Core.Firmware.find n) in
    let firmwares =
      [
        pick "openelec-8"; pick "yocto-build"; pick "nest-like-thermostat";
        pick "ubuntu-mate-rpi3"; pick "tizen-3"; pick "tizen-4";
      ]
    in
    let r = Core.Scenario.botnet_recruitment ~seed ~firmwares () in
    List.iter
      (fun (name, status) ->
        Format.printf "%-28s %s@." name
          (match status with
          | `Recruited -> "RECRUITED"
          | `Crashed -> "crashed"
          | `Resisted -> "resisted"))
      r.Core.Scenario.fleet;
    Format.printf "@.%d/%d recruited@." r.Core.Scenario.recruited
      (List.length r.Core.Scenario.fleet);
    0
  in
  Cmd.v
    (Cmd.info "botnet" ~doc:"Recruit a mixed-firmware fleet over poisoned DNS.")
    Term.(const run $ seed_arg)

let metrics_cmd =
  let run seed queries names capacity cell schedule =
    (* Part 1: a synthetic workload on a standalone cache —
       repeated lookups over a name population, filling on miss, with
       ~1 in 8 names known-absent (negatively cached). *)
    let c = Dns.Cache.create ~capacity () in
    let rng = Memsim.Rng.create seed in
    for q = 1 to queries do
      let now = q / 50 in
      let id = Memsim.Rng.int rng names in
      let name = Printf.sprintf "host-%05d.sim.example" id in
      match Dns.Cache.find c ~now name with
      | Dns.Cache.Hit ip when q mod 16 = 0 ->
          (* an unsolicited refresh: new TTL over the same entry *)
          Dns.Cache.insert c ~now ~name
            ~ttl:(30 + Memsim.Rng.int rng 270)
            ~ipv4:ip
      | Dns.Cache.Hit _ | Dns.Cache.Negative_hit -> ()
      | Dns.Cache.Miss ->
          if id mod 8 = 0 then Dns.Cache.insert_negative c ~now ~name ~ttl:30
          else
            Dns.Cache.insert c ~now ~name
              ~ttl:(30 + Memsim.Rng.int rng 270)
              ~ipv4:(0x0A000000 lor id)
    done;
    Format.printf
      "=== DNS cache, synthetic workload (seed %d, %d queries over %d \
       names, capacity %d) ===@.@.%a@."
      seed queries names capacity Dns.Cache.pp_stats (Dns.Cache.stats c);
    (* Part 2: the same surface on a live connmand — benign responses
       populate the cache, an NXDOMAIN lands in the negative cache, and
       client lookups hit both. *)
    let d =
      Connman.Dnsproxy.create
        { Connman.Dnsproxy.default_config with Connman.Dnsproxy.boot_seed = seed }
    in
    let live = Dns.Name.of_string "ipv4.connman.net" in
    let query = Connman.Dnsproxy.make_query d live in
    let wire =
      Dns.Packet.encode
        (Dns.Packet.response ~query
           [ Dns.Packet.a_record live ~ttl:300 ~ipv4:0x5DB8D822 ])
    in
    ignore (Connman.Dnsproxy.handle_response d wire);
    let absent = Dns.Name.of_string "no-such-host.connman.net" in
    let nxq = Connman.Dnsproxy.make_query d absent in
    let nxwire =
      Dns.Packet.encode
        {
          Dns.Packet.header =
            {
              nxq.Dns.Packet.header with
              Dns.Packet.qr = true;
              Dns.Packet.ra = true;
              Dns.Packet.rcode = Dns.Packet.NXDomain;
            };
          questions = nxq.Dns.Packet.questions;
          answers = [];
          authorities = [];
          additionals = [];
        }
    in
    ignore (Connman.Dnsproxy.handle_response d nxwire);
    ignore (Connman.Dnsproxy.cache_lookup d live);
    ignore (Connman.Dnsproxy.cache_find d absent);
    ignore (Connman.Dnsproxy.cache_lookup d (Dns.Name.of_string "cold.example"));
    Format.printf "@.=== connmand dnsproxy cache ===@.@.%a@."
      Dns.Cache.pp_stats
      (Connman.Dnsproxy.cache_stats d);
    (* Part 3: everything above plus a whole instrumented chaos cell
       registered into one metrics registry, exposed Prometheus-style. *)
    let reg = Telemetry.Metrics.create () in
    Dns.Cache.register_metrics c reg ~prefix:"synthetic";
    match Core.Experiments.run_instrumented_cell ~seed ~schedule ~metrics:reg ~cell () with
    | Error e ->
        Format.eprintf "%s@." e;
        1
    | Ok (row, _) ->
        Format.printf "@.=== instrumented chaos cell ===@.@.";
        pp_cell_summary seed row;
        Format.printf "@.=== metrics (Prometheus text exposition) ===@.@.%s@."
          (Telemetry.Metrics.expose reg);
        0
  in
  let queries_arg =
    Arg.(value & opt int 50_000 & info [ "queries" ] ~doc:"Workload size.")
  in
  let names_arg =
    Arg.(value & opt int 4096 & info [ "names" ] ~doc:"Name population.")
  in
  let capacity_arg =
    Arg.(value & opt int 1024 & info [ "capacity" ] ~doc:"Cache capacity.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a synthetic workload on one DNS cache, dump its statistics and \
          connmand's, and expose the unified metrics registry (caches, \
          netsim packet fates, daemon, supervisor) in Prometheus text \
          format.")
    Term.(
      const run $ seed_arg $ queries_arg $ names_arg $ capacity_arg
      $ cell_arg $ schedule_arg)

let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let chaos_cmd =
  experiment "chaos"
    ~doc:
      "Replay the exploit matrix and the DoS under deterministic network \
       fault schedules, with connmand supervised."
    ~out_doc:"Write the campaign report as JSON to a file."
    ~pp:Core.Experiments.pp_chaos ~to_json:Core.Experiments.chaos_json
    ~ok:(fun _ -> true)
    Term.(
      const (fun seed smoke () -> Core.Experiments.chaos_campaign ~seed ~smoke ())
      $ seed_arg
      $ smoke_arg "Reduced grid (2 cells × 3 schedules) for CI.")

let fuzz_cmd =
  let execs_arg =
    optional Arg.int "execs" "Explicit execution budget per ISA."
  in
  experiment "fuzz"
    ~doc:
      "Coverage-guided snapshot fuzzing of the Connman parse path on both \
       ISAs: mutate benign DNS responses until the Listing-1 overflow is \
       rediscovered, triaged by the taint oracle with wire-byte \
       provenance (exit 1 if either ISA misses within budget)."
    ~out_doc:"Write the campaign report as JSON to a file."
    ~pp:Core.Experiments.pp_fuzz ~to_json:Core.Experiments.fuzz_json
    ~ok:(fun r -> r.Core.Experiments.fuzz_ok)
    Term.(
      const (fun seed smoke execs () ->
          Core.Experiments.fuzz_campaign ~seed ~smoke ?execs ())
      $ seed_arg
      $ smoke_arg "Reduced budget (4000 executions per ISA) for CI."
      $ execs_arg)

let diversity_cmd =
  let variants_arg =
    optional Arg.int "variants"
      "Forked variants per combination (default: 1000; 48 with --smoke)."
  in
  let arch_arg =
    optional arch_conv "arch" "Restrict to matrix cells of one architecture."
  in
  let profile_arg =
    optional profile_conv "profile"
      "Restrict to matrix cells of one base profile."
  in
  experiment "diversity"
    ~doc:
      "Run the software-diversity survival matrix: fork a population of \
       seeded layout variants per exploit-matrix cell (and the DoS), \
       replay the stock-image payload against base, diversified, \
       shadow-stack/forward-CFI, and combined defenses, and report \
       per-combination survival probabilities with Wilson intervals plus \
       gadget-survival statistics (exit 1 when a supposedly-mitigated \
       combination still lets the payload through, or when diversity \
       raises survival above the undiversified base)."
    ~out_doc:"Write the survival matrix as JSON to a file."
    ~pp:Core.Experiments.pp_diversity ~to_json:Core.Experiments.diversity_json
    ~ok:(fun r -> r.Core.Experiments.div_ok)
    Term.(
      const (fun seed variants arch profile smoke () ->
          Core.Experiments.diversity_matrix ~seed ~smoke ?variants ?arch
            ?base_profile:profile ())
      $ seed_arg $ variants_arg $ arch_arg $ profile_arg
      $ smoke_arg "CI-sized run: 48 variants per combination.")

(* Shared by fleet and monitor: the campaign config, from the default or
   smoke preset with any of seed, devices and lans overridden. *)
let fleet_config =
  let config seed devices lans smoke =
    let base =
      if smoke then Fleet.Campaign.smoke_config
      else Fleet.Campaign.default_config
    in
    let value v default = Option.value v ~default in
    {
      base with
      Fleet.Campaign.seed = value seed base.Fleet.Campaign.seed;
      devices = value devices base.Fleet.Campaign.devices;
      lans = value lans base.Fleet.Campaign.lans;
    }
  in
  Term.(
    const config
    $ optional Arg.int "seed" "Deterministic run seed (default: the config's)."
    $ optional Arg.int "devices" "Fleet size (default: 1000; 48 with --smoke)."
    $ optional Arg.int "lans" "LAN count (default: 20; 4 with --smoke)."
    $ smoke_arg
        "CI-sized campaign: 48 devices, 4 LANs, canary + one rollout wave.")

let fleet_cmd =
  experiment "fleet"
    ~doc:
      "Fleet-scale resilience campaign: fork a device population from \
       copy-on-write snapshots over a simulated network, mix benign \
       load with exploit and DoS forgery under chaos, supervise every \
       device (quarantine, probation, reintroduction), and roll out the \
       patch canary-first with automatic rollback (exit 1 unless the \
       fleet converges with zero residual compromises)."
    ~out_doc:"Write the campaign report as JSON to a file."
    ~pp:Fleet.Campaign.pp ~to_json:Fleet.Campaign.json ~ok:Fleet.Campaign.ok
    Term.(const (fun cfg () -> Fleet.Campaign.run cfg) $ fleet_config)

let monitor_cmd =
  let run cfg interval rules_file () =
    let reg = Telemetry.Metrics.create () in
    let mon =
      match interval with
      | None -> Telemetry.Monitor.create reg
      | Some us -> Telemetry.Monitor.create ~interval_us:us reg
    in
    let rules_text =
      match rules_file with
      | None -> Fleet.Campaign.default_rules
      | Some path -> In_channel.with_open_bin path In_channel.input_all
    in
    match Telemetry.Monitor.add_rules mon rules_text with
    | Error e -> failwith ("monitor rules: " ^ e)
    | Ok nrules -> (mon, nrules, Fleet.Campaign.run ~monitor:mon cfg)
  in
  let pp ppf (mon, nrules, report) =
    Format.pp_print_string ppf (Telemetry.Monitor.dashboard mon);
    Format.fprintf ppf "rules loaded: %d;  campaign: %s;  causal incident: %s"
      nrules
      (if Fleet.Campaign.ok report then "ok" else "NOT ok")
      (if Fleet.Campaign.monitor_ok mon then "yes" else "no")
  in
  let interval_arg =
    optional Arg.int "interval"
      "Scrape interval in simulated microseconds (default 1000000)."
  in
  let rules_arg =
    optional Arg.string "rules"
      "Load recording/alert rules from a file (default: the built-in fleet \
       rule set)."
  in
  experiment "monitor"
    ~doc:
      "Run the fleet campaign under the deterministic flight recorder: \
       scrape every metric series on the simulated clock, evaluate \
       recording and alert rules (threshold, for-duration, hysteresis), \
       correlate firing alerts with the causal event journal into \
       per-incident timelines, and print a text dashboard (exit 1 unless \
       an alert incident resolved and an incident timeline runs from \
       wire-byte provenance to quarantine or rollback).  Same config, \
       same bytes."
    ~out_doc:"Write the monitor-v1 flight record to a file." ~pp
    ~to_json:(fun (mon, _, _) -> Telemetry.Monitor.json mon)
    ~ok:(fun (mon, _, _) -> Fleet.Campaign.monitor_ok mon)
    Term.(const run $ fleet_config $ interval_arg $ rules_arg)

let codec_diff_cmd =
  let execs_arg =
    Arg.(
      value & opt int 50_000
      & info [ "execs" ] ~doc:"Mutation-execution budget.")
  in
  experiment "codec-diff"
    ~doc:
      "Differentially fuzz the zero-copy DNS codec against the legacy \
       reference: both must agree on decode results, error strings, and \
       re-encoded bytes over benign seeds, the committed crash corpus, \
       crafted hostiles, and a seeded mutation stream (exit 1 on any \
       divergence)."
    ~out_doc:"Write the codec-diff report as JSON to a file."
    ~pp:Fuzz.Differential.pp_report ~to_json:Fuzz.Differential.report_json
    ~ok:(fun r -> r.Fuzz.Differential.divergent = 0)
    Term.(
      const (fun seed execs () -> Fuzz.Differential.run ~seed ~execs ())
      $ seed_arg $ execs_arg)

let report_cmd =
  let run seed output =
    let rows = Core.Experiments.all ~seed () in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf
      "# Experiment report (seed %d)@.@.Generated by `connman-repro report`; \
       every row is deterministic for the seed.@.@." seed;
    Core.Experiments.pp_markdown ppf rows;
    let passed = List.length (List.filter (fun r -> r.Core.Experiments.ok) rows) in
    Format.fprintf ppf "@.%d/%d rows reproduce the paper.@." passed
      (List.length rows);
    Format.pp_print_flush ppf ();
    (match output with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Buffer.contents buf));
        Format.printf "wrote %s@." path);
    if passed = List.length rows then 0 else 1
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the markdown report to a file.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Emit a markdown reproduction report.")
    Term.(const run $ seed_arg $ output_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "connman-repro" ~version:"1.0"
      ~doc:
        "Simulation-based reproduction of 'Exploiting Memory Corruption \
         Vulnerabilities in Connman for IoT Devices' (DSN 2019)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            experiments_cmd;
            matrix_cmd;
            pineapple_cmd;
            gadgets_cmd;
            firmware_cmd;
            layout_cmd;
            disasm_cmd;
            trace_cmd;
            profile_cmd;
            sanitize_cmd;
            botnet_cmd;
            metrics_cmd;
            chaos_cmd;
            fuzz_cmd;
            diversity_cmd;
            fleet_cmd;
            monitor_cmd;
            codec_diff_cmd;
            report_cmd;
          ]))
