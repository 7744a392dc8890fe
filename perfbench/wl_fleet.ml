(* fleet: Fleet.Campaign.run default_config (1000 devices, 20 LANs,
   90 simulated seconds) with the config seed drawn from --seed.

   One unit of work is a campaign; an op is one scheduler event.  The
   timed loop repeats the campaign until --seconds have passed, and every
   repeat must pass Campaign.ok and reproduce the first one's JSON byte
   for byte.  A campaign is a single library call, so the traced run
   only adds a [?metrics] registry (and one span per campaign): its
   per-layer numbers are the report's counters, cross-checked against
   the registry, and GC words. *)

module C = Fleet.Campaign
module H = Harness

let config (p : Plan.t) = { C.default_config with C.seed = p.Plan.fleet_seed }

let report_checker c =
  let first = ref None in
  fun r ->
    let json = C.json r in
    if !first = None then first := Some json;
    H.check c "Campaign.ok" (C.ok r);
    H.check c "Campaign.json identical across repeats" (Some json = !first);
    json

(* Set-up: the campaign cut before its first event — template boots,
   exploit generation, forking the whole population, and scheduling its
   traffic.  A device's first lookup is due 50 ms into the campaign, so
   a 40 ms horizon (one traffic round, one sample) issues none. *)
let setup c cfg =
  let cut = 40_000 in
  let r = C.run { cfg with C.horizon_us = cut; round_gap_us = cut; sample_gap_us = cut } in
  H.check c "set-up issues no lookups" (r.C.r_lookups = 0)

(* Each chunk is one campaign and then [setups_per_chunk] set-ups.  The
   peak heap is read after the first campaign, a fixed amount of work,
   before any set-up has left garbage behind. *)
let setups_per_chunk = 3

(* Campaign rates are scaled by the reference timed before and after
   the campaign, set-ups by the one timed just before them (see
   Harness.reference). *)
let measure ~seconds p =
  let c = H.checks () in
  let check_report = report_checker c in
  let cfg = config p in
  let setups = ref [] and rates = ref [] and host_rates = ref [] in
  let ops = ref 0 and heap = ref 0.0 in
  let chunks =
    H.run_chunks ~seconds (fun i ->
        let r_before = H.time_reference () in
        let dt, r = H.time (fun () -> C.run cfg) in
        let r_after = H.time_reference () in
        ignore (check_report r);
        ops := !ops + r.C.r_events;
        let events = float_of_int r.C.r_events in
        host_rates := (events /. dt) :: !host_rates;
        rates := (events /. H.scaled dt ~ref_s:((r_before +. r_after) /. 2.0)) :: !rates;
        if i = 0 then heap := H.peak_heap_mb ();
        for _ = 1 to setups_per_chunk do
          let ref_s = H.time_reference () in
          setups := H.scaled (fst (H.time (fun () -> setup c cfg))) ~ref_s :: !setups
        done)
  in
  ( c,
    {
      H.metrics =
        H.end_to_end ~ops_per_s:(H.median !rates) ~op_p50_us:(1e6 /. H.median !rates) ~heap:!heap
          ~setups:!setups;
      notes =
        [
          ("host_ops_per_s", Printf.sprintf "%.2f (unscaled)" (H.median !host_rates));
          H.reference_note ();
          ("chunk_rates", H.rate_note !rates);
          ("campaigns", string_of_int chunks);
          ("events", string_of_int !ops);
          ("op_p50_us", "1e6 / ops_per_s");
        ];
      spans = None;
    } )

(* Value of an unlabelled series in a scraped registry. *)
let registry_value reg name =
  List.find_map
    (fun (n, labels, _, s) ->
      match s with
      | Telemetry.Metrics.Value v when n = name && labels = [] -> Some v
      | _ -> None)
    (Telemetry.Metrics.samples reg)

let traced ~seconds p =
  let c = H.checks () in
  let check_report = report_checker c in
  let cfg = config p in
  let sp = Spans.create () in
  let campaign = Spans.intern sp "fleet.campaign" in
  let gc = ref H.gc_zero and ops = ref 0 in
  let plain_wall = ref 0.0 and traced_wall = ref 0.0 in
  let last = ref None in
  let units =
    H.run_chunks ~seconds (fun _ ->
        let dt, r = H.time (fun () -> H.counting_gc gc (fun () -> C.run cfg)) in
        let reg = Telemetry.Metrics.create () in
        let dt', rt = H.time (fun () -> Spans.span sp campaign (fun () -> C.run ~metrics:reg cfg)) in
        plain_wall := !plain_wall +. dt;
        traced_wall := !traced_wall +. dt';
        ops := !ops + r.C.r_events;
        let json = check_report r in
        H.check c "Campaign.json identical with and without ?metrics" (C.json rt = json);
        List.iter
          (fun (series, v) ->
            H.check c (series ^ " matches the report")
              (registry_value reg series = Some (float_of_int v)))
          [
            ("fleet_compromises_total", rt.C.r_compromises);
            ("fleet_crashes_total", rt.C.r_crashes);
            ("fleet_lookups_total", rt.C.r_lookups);
          ];
        last := Some rt)
  in
  let r = Option.get !last in
  let f = float_of_int in
  ( c,
    {
      H.metrics =
        [
          ("netsim.events", f r.C.r_events);
          ("netsim.delivered", f r.C.r_delivered);
          ("netsim.dropped", f r.C.r_dropped);
          ("connman.forks", f r.C.r_forks);
          ("dns.cache_hit_ratio", f r.C.r_cache_hits /. f (r.C.r_cache_hits + r.C.r_cache_misses));
          ("fleet.availability", r.C.r_availability);
          ("fleet.compromises", f r.C.r_compromises);
          ("fleet.crashes", f r.C.r_crashes);
          ("fleet.restarts", f r.C.r_restarts);
          ("telemetry.trace_overhead", !traced_wall /. !plain_wall);
        ]
        @ H.gc_metrics !gc ~ops:!ops ~units;
      notes = [ ("campaigns", string_of_int units) ];
      spans = Some sp;
    } )
