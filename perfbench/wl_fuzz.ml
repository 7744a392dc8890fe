(* fuzz: Fuzz.Engine.run on both ISAs, stop_on_find = false.

   An op is one fuzz execution.  A round runs one campaign of [execs]
   mutations per (campaign seed, ISA) pair, over the sixteen seeds of
   Plan.fuzz_pool.  Rounds repeat until --seconds have passed, and every
   repeat of a campaign must reproduce its stats JSON byte for byte.

   The traced run re-drives the engine loop through the same public
   calls Fuzz.Engine.run makes (Memsim.Rng, Fuzz.Mutator, Fuzz.Coverage,
   Loader.Process.restore/call, Sanitizer.Oracle) with a span around
   each, and must rebuild the untraced stats exactly. *)

module E = Fuzz.Engine
module H = Harness
module Process = Loader.Process
module Oracle = Sanitizer.Oracle
module O = Machine.Outcome

let execs = 1_000
let fuel = 400_000 (* the engine's per-parse budget *)

let seed_configs seed =
  List.map
    (fun arch -> { E.default_config with E.arch; seed; max_execs = execs; stop_on_find = false })
    Loader.Arch.all

let configs (p : Plan.t) = Array.of_list (List.concat_map seed_configs p.Plan.fuzz_seeds)

(* Checks one round of campaign stats: each campaign reproduces its
   first round's JSON, and each ISA rediscovers the overflow in at least
   one campaign.  Returns the JSON of each campaign. *)
let round_checker c cfgs =
  let firsts = Array.make (Array.length cfgs) None in
  fun stats ->
    let jsons = Array.map E.stats_json stats in
    Array.iteri
      (fun i json ->
        if firsts.(i) = None then firsts.(i) <- Some json;
        H.check c "stats_json identical across repeats" (firsts.(i) = Some json))
      jsons;
    List.iter
      (fun arch ->
        H.check c
          (Loader.Arch.name arch ^ ": overflow rediscovered")
          (Array.exists (fun st -> st.E.cfg.E.arch = arch && st.E.rediscovered_at <> None) stats))
      Loader.Arch.all;
    jsons

(* Set-up: everything a campaign does before its first mutation (boot,
   snapshot, seed-corpus executions), for the first seed on both ISAs. *)
let setup cfgs =
  Array.iter
    (fun cfg -> ignore (E.run { cfg with E.max_execs = 0 }))
    (Array.sub cfgs 0 (List.length Loader.Arch.all))

(* Campaigns between two set-up measurements. *)
let setup_every = 2

(* Each chunk is one round, with a set-up measured before every
   [setup_every] campaigns.  Each campaign is timed on its own and
   scaled by the reference timed before and after it (a set-up by the
   one before it; see Harness.reference).  The rate is the round's
   execs over the sum of every campaign's fastest scaled time in the
   run, the least-disturbed sample of each.  The peak heap is read after
   the second round, a fixed amount of work. *)
let measure ~seconds p =
  let c = H.checks () in
  let cfgs = configs p in
  let check_round = round_checker c cfgs in
  let best = Array.make (Array.length cfgs) infinity in
  let best_host = Array.make (Array.length cfgs) infinity in
  let setups = ref [] and heap = ref 0.0 in
  let rounds =
    H.run_chunks ~seconds (fun i ->
        let r_before = ref (H.time_reference ()) in
        let stats =
          Array.mapi
            (fun j cfg ->
              if j mod setup_every = 0 then
                setups := H.scaled (fst (H.time (fun () -> setup cfgs))) ~ref_s:!r_before :: !setups;
              let dt, st = H.time (fun () -> E.run cfg) in
              let r_after = H.time_reference () in
              best.(j) <- Float.min best.(j) (H.scaled dt ~ref_s:((!r_before +. r_after) /. 2.0));
              best_host.(j) <- Float.min best_host.(j) dt;
              r_before := r_after;
              st)
            cfgs
        in
        ignore (check_round stats);
        if i <= 1 then heap := H.peak_heap_mb ())
  in
  let round_execs = float_of_int (Array.length cfgs * execs) in
  let sum = Array.fold_left ( +. ) 0.0 in
  let ops_per_s = round_execs /. sum best in
  ( c,
    {
      H.metrics =
        H.end_to_end ~ops_per_s ~op_p50_us:(1e6 /. ops_per_s) ~heap:!heap ~setups:!setups;
      notes =
        [
          ("rounds", string_of_int rounds);
          ("campaigns", Printf.sprintf "%d per round, %d execs each" (Array.length cfgs) execs);
          ("ops_per_s", "round execs / sum of per-campaign best times, scaled to the reference");
          ("host_ops_per_s", Printf.sprintf "%.0f (unscaled)" (round_execs /. sum best_host));
          H.reference_note ();
          ("setups", string_of_int (List.length !setups));
          ("op_p50_us", "1e6 / ops_per_s");
        ];
      spans = None;
    } )

(* {1 Traced re-drive} *)

type probes = {
  sp : Spans.t;
  exec : int;
  mutate : int;
  restore : int;
  call_cov : int;
  commit : int;
  triage : int;
  mutable cov_steps : int;
  mutable hits : int;
  mutable misses : int;
  mutable triages : int;
}

let probes sp =
  let i = Spans.intern sp in
  {
    sp;
    exec = i "fuzz.exec";
    mutate = i "fuzz.mutate";
    restore = i "memsim.restore";
    call_cov = i "loader.call_cov";
    commit = i "fuzz.commit";
    triage = i "sanitizer.triage";
    cov_steps = 0;
    hits = 0;
    misses = 0;
    triages = 0;
  }

let spec (cfg : E.config) =
  match cfg.E.arch with
  | Loader.Arch.X86 -> Connman.Program_x86.spec ~version:cfg.E.version ~profile:cfg.E.profile ()
  | Loader.Arch.Arm -> Connman.Program_arm.spec ~version:cfg.E.version ~profile:cfg.E.profile ()

(* Fuzz.Engine.run, step for step, with spans around each library call. *)
let redrive pr (cfg : E.config) =
  let span id f = Spans.span pr.sp id f in
  let rng = Memsim.Rng.create cfg.E.seed in
  let proc = Process.boot (spec cfg) ~profile:cfg.E.profile ~seed:cfg.E.seed in
  let snap = Process.snapshot proc in
  let entry = Process.symbol proc "parse_response" in
  let buf = proc.Process.layout.Loader.Layout.heap_base in
  let max_len = min 2048 proc.Process.layout.Loader.Layout.heap_size in
  let cov = Fuzz.Coverage.create () in
  let profile = Telemetry.Profile.create () in
  Telemetry.Profile.set_sink profile (Some (Fuzz.Coverage.touch cov));
  let oracle = Oracle.create () in
  let geometry = Connman.Frame.geometry cfg.E.arch in
  let frame_buffer = Connman.Frame.buffer_addr proc in
  let symbolize = Exploit.Debugger.symbolize proc in
  let corpus = ref [||] in
  let add_to_corpus s = corpus := Array.append !corpus [| s |] in
  let pick_input () = !corpus.(Memsim.Rng.int rng (Array.length !corpus)) in
  let total_steps = ref 0 in
  let exec_cov input =
    span pr.restore (fun () -> Process.restore proc snap);
    Memsim.Memory.write_bytes proc.Process.mem buf input;
    Telemetry.Profile.clear profile;
    Fuzz.Coverage.begin_exec cov;
    let r =
      span pr.call_cov (fun () ->
          Process.call proc ~fuel ~profile ~entry ~args:[ buf; String.length input ])
    in
    total_steps := !total_steps + r.Process.steps;
    pr.cov_steps <- pr.cov_steps + r.Process.steps;
    pr.hits <- pr.hits + r.Process.icache_hits;
    pr.misses <- pr.misses + r.Process.icache_misses;
    r
  in
  let triage input =
    span pr.triage (fun () ->
        pr.triages <- pr.triages + 1;
        span pr.restore (fun () -> Process.restore proc snap);
        Memsim.Memory.write_bytes proc.Process.mem buf input;
        Oracle.begin_parse oracle;
        Oracle.clear_reports oracle;
        let src = Oracle.new_source oracle ~origin:"fuzz" ~length:(String.length input) in
        Oracle.taint oracle ~src buf ~len:(String.length input);
        Oracle.protect_frame oracle ~buffer:frame_buffer geometry;
        let r =
          Process.call proc ~fuel ~sanitizer:oracle ~entry ~args:[ buf; String.length input ]
        in
        total_steps := !total_steps + r.Process.steps;
        Oracle.first_report oracle)
  in
  let seeds = E.benign_seeds () in
  List.iter
    (fun s ->
      span pr.exec (fun () ->
          ignore (exec_cov s);
          ignore (span pr.commit (fun () -> Fuzz.Coverage.commit cov));
          add_to_corpus s))
    seeds;
  let crashes = ref [] in
  let crash_keys = Hashtbl.create 8 in
  let rediscovered = ref None in
  let first_rule = ref None in
  let n = ref 0 in
  let stop = ref false in
  while (not !stop) && !n < cfg.E.max_execs do
    incr n;
    span pr.exec (fun () ->
        let input =
          span pr.mutate (fun () ->
              Fuzz.Mutator.mutate rng ~max_len ~pick_other:pick_input (pick_input ()))
        in
        let r = exec_cov input in
        let fresh = span pr.commit (fun () -> Fuzz.Coverage.commit cov) in
        if r.Process.outcome <> O.Halted then begin
          let report = triage input in
          let rule = Option.map (fun (rp : Oracle.report) -> Oracle.kind_name rp.Oracle.kind) report in
          if !first_rule = None then first_rule := rule;
          (match report with
          | Some rp when rp.Oracle.kind = Oracle.Redzone_write ->
              if !rediscovered = None then begin
                rediscovered := Some !n;
                if cfg.E.stop_on_find then stop := true
              end
          | _ -> ());
          let key = (O.to_string r.Process.outcome, rule) in
          if (not (Hashtbl.mem crash_keys key)) && List.length !crashes < 16 then begin
            Hashtbl.replace crash_keys key ();
            crashes :=
              {
                E.exec = !n;
                input;
                outcome = O.to_string r.Process.outcome;
                steps = r.Process.steps;
                rule;
                wire_offset = Option.map Oracle.wire_offset report;
                provenance = Option.map (Oracle.render ~symbolize) report;
              }
              :: !crashes
          end
        end
        else if fresh > 0 then add_to_corpus input)
  done;
  {
    E.cfg;
    seed_inputs = List.length seeds;
    execs = !n;
    corpus = Array.length !corpus;
    edges = Fuzz.Coverage.edges cov;
    total_steps = !total_steps;
    crashes = List.rev !crashes;
    rediscovered_at = !rediscovered;
    first_rule = !first_rule;
  }

(* Rounds as in [measure], each campaign run untraced and then traced.
   GC counts come from the untraced runs only. *)
let traced ~seconds p =
  let c = H.checks () in
  let pr = probes (Spans.create ()) in
  let cfgs = configs p in
  let check_round = round_checker c cfgs in
  let gc = ref H.gc_zero and ops = ref 0 and steps = ref 0 in
  let plain_wall = ref 0.0 and traced_wall = ref 0.0 in
  let units =
    H.run_chunks ~seconds (fun _ ->
        let pairs =
          Array.map
            (fun cfg ->
              let dt, st = H.time (fun () -> H.counting_gc gc (fun () -> E.run cfg)) in
              let dt', tr = H.time (fun () -> redrive pr cfg) in
              plain_wall := !plain_wall +. dt;
              traced_wall := !traced_wall +. dt';
              ops := !ops + st.E.execs;
              steps := !steps + st.E.total_steps;
              (st, tr))
            cfgs
        in
        let jsons = check_round (Array.map fst pairs) in
        Array.iteri
          (fun i (_, tr) ->
            H.check c "traced re-drive reproduces the untraced stats" (E.stats_json tr = jsons.(i)))
          pairs)
  in
  let tot = Spans.totals pr.sp in
  let us = Spans.mean_self_us tot in
  let per_op x = float_of_int x /. float_of_int !ops in
  let call = tot "loader.call_cov" in
  ( c,
    {
      H.metrics =
        [
          ("memsim.restore_us", us "memsim.restore");
          ("loader.call_cov_us", us "loader.call_cov");
          ("isa.ns_per_step_cov", float_of_int call.Spans.self_ns /. float_of_int pr.cov_steps);
          ("icache.hit_ratio", float_of_int pr.hits /. float_of_int (pr.hits + pr.misses));
          ("icache.misses_per_op", per_op pr.misses);
          ("sanitizer.triage_us", us "sanitizer.triage");
          ("sanitizer.triages", float_of_int pr.triages /. float_of_int units);
          ("fuzz.mutate_us", us "fuzz.mutate");
          ("fuzz.commit_us", us "fuzz.commit");
          ("fuzz.steps_per_op", per_op !steps);
          ("telemetry.trace_overhead", !traced_wall /. !plain_wall);
        ]
        @ H.gc_metrics !gc ~ops:!ops ~units;
      notes = [ ("rounds", string_of_int units); ("spans", string_of_int pr.sp.Spans.len) ];
      spans = Some pr.sp;
    } )

(* {1 Choosing the campaign-seed pool} *)

(* Sanitizer triages of one campaign seed's campaigns on both ISAs. *)
let triages_of seed =
  let pr = probes (Spans.create ()) in
  List.iter (fun cfg -> ignore (redrive pr cfg)) (seed_configs seed);
  pr.triages

(* Triage counts of the first [n] candidate seeds, the stratified pool
   they yield (see Plan.fuzz_pool), and the triage counts of the fresh
   rounds the candidates make, 16 consecutive candidates each. *)
let survey n =
  let size = Plan.fuzz_pool_size in
  let seeds = Array.of_list (Plan.fuzz_candidates n) in
  let triages = Array.map triages_of seeds in
  let sorted = Array.init n (fun i -> (triages.(i), seeds.(i))) in
  Array.sort compare sorted;
  let pool = List.init size (fun i -> sorted.(((2 * i) + 1) * n / (2 * size))) in
  let sum a = Array.fold_left ( + ) 0 a in
  let rounds = List.init (n / size) (fun r -> sum (Array.sub triages (r * size) size)) in
  Printf.printf
    "{\"candidate_seeds\":[%s],\n\"candidate_triages\":[%s],\n\"pool\":[%s],\n\"pool_triages\":%d,\n\"fresh_round_triages\":[%s]}\n"
    (Plan.ints (Array.to_list seeds))
    (Plan.ints (Array.to_list triages))
    (Plan.ints (List.map snd pool))
    (List.fold_left (fun acc (t, _) -> acc + t) 0 pool)
    (Plan.ints (List.sort compare rounds))
