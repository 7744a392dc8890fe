(* One replay harness for every experiment JSON document: each runs
   twice in one process and must give the same bytes both times.
   test/golden pins the bytes of one fresh-process run; a second run in
   the same process catches state that leaks between runs. *)

module E = Core.Experiments
module C = Fleet.Campaign

let monitor cfg =
  let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
  (match Telemetry.Monitor.add_rules mon C.default_rules with
  | Ok _ -> ()
  | Error e -> failwith e);
  ignore (C.run ~monitor:mon cfg);
  Telemetry.Monitor.json mon

let trace_e3 seed () =
  let trace = Telemetry.Trace.create () in
  match E.run_instrumented_cell ~seed ~trace ~cell:"E3" () with
  | Ok _ when Telemetry.Trace.length trace > 0 ->
      Telemetry.Trace.to_chrome_json trace
  | Ok _ -> failwith "trace recorded no events"
  | Error e -> failwith e

let fuzz_stats arch () =
  Fuzz.Engine.stats_json
    (Fuzz.Engine.run
       { Fuzz.Engine.default_config with Fuzz.Engine.arch; max_execs = 120 })

(* (document, the command or config it stands for, the run) *)
let experiments =
  [
    ( "detection-matrix",
      "sanitize",
      fun () -> E.detection_json ~seed:1 (E.detection_matrix ~seed:1 ()) );
    ( "fuzz-campaign",
      "fuzz --smoke",
      fun () -> E.fuzz_json (E.fuzz_campaign ~seed:1 ~smoke:true ()) );
    ("fuzz-stats", "Engine.run x86, 120 execs", fuzz_stats Loader.Arch.X86);
    ("fuzz-stats", "Engine.run arm, 120 execs", fuzz_stats Loader.Arch.Arm);
    ( "diversity-matrix",
      "diversity --smoke",
      fun () -> E.diversity_json (E.diversity_matrix ~seed:1 ~smoke:true ()) );
    ( "diversity-matrix",
      "diversity --smoke --seed 3 --variants 6",
      fun () ->
        E.diversity_json (E.diversity_matrix ~seed:3 ~smoke:true ~variants:6 ()) );
    ("fleet-campaign", "fleet --smoke", fun () -> C.json (C.run C.smoke_config));
    ("monitor", "monitor --smoke", fun () -> monitor C.smoke_config);
    ( "chaos-campaign",
      "chaos --smoke",
      fun () -> E.chaos_json (E.chaos_campaign ~seed:1 ~smoke:true ()) );
    ( "chaos-campaign",
      "chaos --smoke --seed 5",
      fun () -> E.chaos_json (E.chaos_campaign ~seed:5 ~smoke:true ()) );
    ( "codec-diff",
      "codec-diff --execs 10000",
      fun () -> Fuzz.Differential.(report_json (run ~seed:1 ~execs:10_000 ())) );
    ("chrome-trace", "trace --cell E3", trace_e3 1);
    ("chrome-trace", "trace --cell E3 --seed 5", trace_e3 5);
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

let () =
  Alcotest.run "replay"
    [
      ( "json",
        List.map
          (fun (doc, cfg, run) ->
            Alcotest.test_case (Printf.sprintf "%s (%s)" doc cfg) `Quick
              (replay run))
          experiments );
    ]
