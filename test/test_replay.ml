(* One determinism harness for every experiment JSON document, on two
   axes.  Replay: each document runs twice in one process (test/golden
   pins the bytes of one fresh-process run; a second run in the same
   process catches state that leaks between runs).  Shard count: a document is the same at 1,
   2 and 4 scheduler shards only where nothing draws from a shard RNG.
   The chaos campaign meets that at its shipped config; the fleet and
   monitor documents meet it only at the draw-free [det_config], because
   their shipped configs draw link latency and supervisor jitter from
   shard RNGs.  The chaos and fleet documents record the shard count, so
   that field is normalised before the comparison. *)

module E = Core.Experiments
module C = Fleet.Campaign
module Sup = Core.Supervisor

let monitor cfg =
  let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
  (match Telemetry.Monitor.add_rules mon C.default_rules with
  | Ok _ -> ()
  | Error e -> failwith e);
  ignore (C.run ~monitor:mon cfg);
  Telemetry.Monitor.json mon

let trace_e3 () =
  let trace = Telemetry.Trace.create ~capacity:65536 () in
  match E.run_instrumented_cell ~seed:1 ~trace ~cell:"E3" () with
  | Ok _ -> Telemetry.Trace.to_chrome_json trace
  | Error e -> failwith e

(* A draw-free campaign: constant link latency (the default draws a
   uniform latency per datagram from the shard RNG), zero supervisor
   backoff jitter (the only per-device shard-RNG consumer left), no
   drop/corrupt/reorder draws.  Forge draws already run on per-LAN RNGs,
   so the executed-event multiset — and therefore every barrier scrape —
   is identical for any shard count. *)
let det_config shards =
  {
    C.smoke_config with
    C.shards;
    chaos =
      { Netsim.Faults.default with Netsim.Faults.latency = Netsim.Faults.Const 500 };
    sup_policy =
      {
        Sup.default_policy with
        Sup.backoff = { Sup.default_policy.backoff with Sup.jitter = 0.0 };
      };
  }

(* (document, the command or config it stands for, the run) *)
let experiments =
  [
    ( "detection-matrix",
      "sanitize",
      fun () -> E.detection_json ~seed:1 (E.detection_matrix ~seed:1 ()) );
    ( "fuzz-campaign",
      "fuzz --smoke",
      fun () -> E.fuzz_json (E.fuzz_campaign ~seed:1 ~smoke:true ()) );
    ( "diversity-matrix",
      "diversity --smoke",
      fun () -> E.diversity_json (E.diversity_matrix ~seed:1 ~smoke:true ()) );
    ("fleet-campaign", "fleet --smoke", fun () -> C.json (C.run C.smoke_config));
    ("monitor", "monitor --smoke", fun () -> monitor C.smoke_config);
    ("monitor", "det_config, 2 shards", fun () -> monitor (det_config 2));
    ( "chaos-campaign",
      "chaos --smoke",
      fun () -> E.chaos_json (E.chaos_campaign ~seed:1 ~smoke:true ()) );
    ( "codec-diff",
      "codec-diff --execs 10000",
      fun () -> Fuzz.Differential.(report_json (run ~seed:1 ~execs:10_000 ())) );
    ("chrome-trace", "trace --cell E3", trace_e3);
  ]

(* (document, config, the run at a shard count) *)
let across_shards =
  [
    ( "chaos-campaign",
      "chaos --smoke, shards field normalised",
      fun shards ->
        E.chaos_json
          { (E.chaos_campaign ~seed:1 ~smoke:true ~shards ()) with E.chaos_shards = 1 } );
    ( "fleet-campaign",
      "det_config, shards field normalised",
      fun shards ->
        let r = C.run (det_config shards) in
        C.json { r with C.r_config = { r.C.r_config with C.shards = 1 } } );
    ("monitor", "det_config", fun shards -> monitor (det_config shards));
  ]

let valid doc =
  match Telemetry.Json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e)

let same what first second =
  if not (String.equal first second) then begin
    let n = min (String.length first) (String.length second) in
    let rec at i = if i < n && first.[i] = second.[i] then at (i + 1) else i in
    Alcotest.failf "%s differs from byte %d (%d vs %d bytes)" what (at 0)
      (String.length first) (String.length second)
  end

let replay run () =
  let first = run () in
  valid first;
  same "replay" first (run ())

let shard_counts run () =
  let one = run 1 in
  valid one;
  List.iter
    (fun n -> same (Printf.sprintf "%d shards vs 1" n) one (run n))
    [ 2; 4 ]

let cases test table =
  List.map
    (fun (doc, cfg, run) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" doc cfg) `Quick (test run))
    table

let () =
  Alcotest.run "replay"
    [ ("json", cases replay experiments); ("shards", cases shard_counts across_shards) ]
