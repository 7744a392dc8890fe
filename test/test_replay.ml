(* One determinism harness for every experiment JSON document: each
   experiment runs twice at the config its dune smoke alias (or the CI
   step) uses, and the two documents must parse and be byte-identical.
   The per-subsystem replay and shard-count tests stay; this table is
   the one place that covers every document at its shipped config. *)

module E = Core.Experiments
module C = Fleet.Campaign

let monitor_smoke () =
  let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
  (match Telemetry.Monitor.add_rules mon C.default_rules with
  | Ok _ -> ()
  | Error e -> failwith e);
  ignore (C.run ~monitor:mon C.smoke_config);
  Telemetry.Monitor.json mon

let trace_e3 () =
  let trace = Telemetry.Trace.create ~capacity:65536 () in
  match E.run_instrumented_cell ~seed:1 ~trace ~cell:"E3" () with
  | Ok _ -> Telemetry.Trace.to_chrome_json trace
  | Error e -> failwith e

(* (document, the command it stands for, the run) *)
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
    ("monitor", "monitor --smoke", monitor_smoke);
    ( "chaos-campaign",
      "chaos --smoke",
      fun () -> E.chaos_json (E.chaos_campaign ~seed:1 ~smoke:true ()) );
    ( "codec-diff",
      "codec-diff --execs 10000",
      fun () -> Fuzz.Differential.(report_json (run ~seed:1 ~execs:10_000 ())) );
    ("chrome-trace", "trace --cell E3", trace_e3);
  ]

let replay run () =
  let first = run () in
  (match Telemetry.Json.validate first with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e));
  let second = run () in
  if not (String.equal first second) then begin
    let n = min (String.length first) (String.length second) in
    let rec at i = if i < n && first.[i] = second.[i] then at (i + 1) else i in
    Alcotest.failf "replay differs from byte %d (%d vs %d bytes)" (at 0)
      (String.length first) (String.length second)
  end

let () =
  Alcotest.run "replay"
    [
      ( "json",
        List.map
          (fun (doc, cmd, run) ->
            Alcotest.test_case (Printf.sprintf "%s (%s)" doc cmd) `Quick (replay run))
          experiments );
    ]
