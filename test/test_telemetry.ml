(* Telemetry tests: ring-buffer overflow semantics (trace replay is
   test_replay.ml's), Chrome-JSON well-formedness, cross-layer coverage,
   profiler count conservation, metrics exposition, and the
   zero-interference contract — exploit-matrix outcomes are identical
   with the tracer and profiler attached. *)

module Tr = Telemetry.Trace
module Prof = Telemetry.Profile
module Met = Telemetry.Metrics
module E = Core.Experiments
module Dnsproxy = Connman.Dnsproxy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- ring buffer --- *)

let test_ring_overflow () =
  let t = Tr.create ~capacity:8 () in
  for i = 1 to 20 do
    Tr.emit t ~ts:i ~cat:"test" ~track:"ring" (Printf.sprintf "e%02d" i)
  done;
  check_int "capacity" 8 (Tr.capacity t);
  check_int "length" 8 (Tr.length t);
  check_int "emitted" 20 (Tr.emitted t);
  check_int "dropped" 12 (Tr.dropped t);
  Alcotest.(check (list string))
    "most recent window, oldest first"
    [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    (List.map (fun e -> e.Tr.name) (Tr.events t))

let test_ring_under_capacity () =
  let t = Tr.create ~capacity:8 () in
  for i = 1 to 5 do
    Tr.emit t ~ts:i ~cat:"test" ~track:"ring" (Printf.sprintf "e%d" i)
  done;
  check_int "length" 5 (Tr.length t);
  check_int "nothing dropped" 0 (Tr.dropped t);
  Tr.clear t;
  check_int "cleared" 0 (Tr.length t)

let test_clock_is_monotonic () =
  let t = Tr.create () in
  Tr.set_now t 100;
  Tr.set_now t 50;
  check_int "earlier set_now ignored" 100 (Tr.now t)

(* --- instrumented cell runs --- *)

let traced_e3 seed =
  let trace = Tr.create () in
  match E.run_instrumented_cell ~seed ~cell:"E3" ~trace () with
  | Error e -> Alcotest.fail e
  | Ok (row, _) -> (trace, row)

let test_trace_json_well_formed () =
  let t, _ = traced_e3 1 in
  match Telemetry.Json.validate (Tr.to_chrome_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid chrome json: " ^ e)

let test_trace_covers_layers () =
  let t, _ = traced_e3 1 in
  let cats =
    List.sort_uniq compare (List.map (fun e -> e.Tr.cat) (Tr.events t))
  in
  List.iter
    (fun c -> check_bool (c ^ " events present") true (List.mem c cats))
    [ "cpu"; "mem"; "net"; "daemon"; "supervisor" ]

let test_unknown_cell_and_schedule () =
  (match E.run_instrumented_cell ~cell:"E9" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cell accepted");
  match E.run_instrumented_cell ~cell:"E3" ~schedule:"stormy" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schedule accepted"

(* --- zero interference: outcomes unchanged with telemetry attached --- *)

let fire_cell ~instrumented (id, _section, arch, profile, strategy, _desc) =
  let d =
    Dnsproxy.create
      {
        Dnsproxy.default_config with
        Dnsproxy.arch;
        profile;
        boot_seed = 42;
      }
  in
  if instrumented then begin
    Dnsproxy.set_trace d (Some (Tr.create ()));
    Dnsproxy.set_profiler d (Some (Prof.create ()))
  end;
  match E.fire ~strategy d with
  | Error e -> Alcotest.fail (id ^ ": " ^ e)
  | Ok (_, disp) -> (id, E.disposition_word disp, Dnsproxy.last_steps d)

let test_differential_outcomes () =
  let plain = List.map (fire_cell ~instrumented:false) E.matrix_cells in
  let traced = List.map (fire_cell ~instrumented:true) E.matrix_cells in
  List.iter2
    (fun (id, w0, s0) (_, w1, s1) ->
      check_string (id ^ " disposition") w0 w1;
      check_int (id ^ " retired instructions") s0 s1)
    plain traced

(* --- profiler --- *)

let test_profiler_buckets_by_symbol () =
  let p = Prof.create () in
  List.iter (Prof.record p) [ 16; 16; 20; 24; 16; 20 ];
  check_int "total" 6 (Prof.total p);
  check_int "distinct pcs" 3 (Prof.distinct_pcs p);
  let symbolize = function
    | 16 -> "fn_a+0x0"
    | 20 -> "fn_a+0x4"
    | _ -> "fn_b"
  in
  Alcotest.(check (list (pair string int)))
    "offsets aggregate under the base symbol"
    [ ("fn_a", 5); ("fn_b", 1) ]
    (Prof.report p ~symbolize);
  check_string "folded stacks" "all;fn_a 5\nall;fn_b 1\n"
    (Prof.folded p ~symbolize ());
  Prof.clear p;
  check_int "cleared" 0 (Prof.total p)

let test_profiler_conservation_daemon () =
  let d = Dnsproxy.create Dnsproxy.default_config in
  let p = Prof.create () in
  Dnsproxy.set_profiler d (Some p);
  let name = Dns.Name.of_string "ipv4.connman.net" in
  let query = Dnsproxy.make_query d name in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query [ Dns.Packet.a_record name ~ttl:300 ~ipv4:1 ])
  in
  (match Dnsproxy.handle_response d wire with
  | Dnsproxy.Cached _ -> ()
  | other ->
      Alcotest.fail (Format.asprintf "%a" Dnsproxy.pp_disposition other));
  check_int "samples equal retired instructions" (Dnsproxy.last_steps d)
    (Prof.total p);
  let proc = Dnsproxy.process d in
  let symbolize pc = Exploit.Debugger.symbolize proc pc in
  let sum =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Prof.report p ~symbolize)
  in
  check_int "per-symbol counts sum to total" (Prof.total p) sum

let test_profiler_conservation_cell () =
  let p = Prof.create () in
  match E.run_instrumented_cell ~seed:1 ~cell:"E3" ~profiler:p () with
  | Error e -> Alcotest.fail e
  | Ok (_, symbolize) ->
      check_bool "instructions recorded" true (Prof.total p > 0);
      let sum =
        List.fold_left (fun a (_, n) -> a + n) 0 (Prof.report p ~symbolize)
      in
      check_int "conservation across the whole cell" (Prof.total p) sum

(* --- metrics --- *)

let test_metrics_exposition () =
  let reg = Met.create () in
  let a = ref 3.0 and b = ref 1.0 and depth = ref 0.0 in
  Met.probe reg ~help:"requests seen"
    ~labels:[ ("host", "a") ]
    ~kind:`Counter "demo_requests_total"
    (fun () -> !a);
  Met.probe reg ~help:"current depth" ~kind:`Gauge "demo_depth" (fun () -> !depth);
  Met.probe reg
    ~labels:[ ("host", "b") ]
    ~kind:`Counter "demo_requests_total"
    (fun () -> !b);
  (* probes are sampled at exposition time, not at registration *)
  depth := 4.5;
  check_string "exposition bytes"
    ("# HELP demo_depth current depth\n"
   ^ "# TYPE demo_depth gauge\n" ^ "demo_depth 4.500000\n"
   ^ "# HELP demo_requests_total requests seen\n"
   ^ "# TYPE demo_requests_total counter\n"
   ^ "demo_requests_total{host=\"a\"} 3\n"
   ^ "demo_requests_total{host=\"b\"} 1\n")
    (Met.expose reg)

let test_metrics_reregistration_replaces () =
  let reg = Met.create () in
  Met.probe reg ~kind:`Counter "dup_total" (fun () -> 9.0);
  Met.probe reg ~kind:`Counter "dup_total" (fun () -> 1.0);
  check_string "latest registration wins"
    "# TYPE dup_total counter\ndup_total 1\n" (Met.expose reg)

let test_metrics_samples_order () =
  let reg = Met.create () in
  let z = ref 1.0 and a2 = ref 2.0 in
  Met.probe reg ~kind:`Gauge "zeta" (fun () -> !z);
  Met.probe reg ~labels:[ ("i", "1") ] ~kind:`Counter "alpha_total" (fun () -> 5.0);
  Met.probe reg ~labels:[ ("i", "2") ] ~kind:`Counter "alpha_total" (fun () -> !a2);
  let scrape () =
    List.map
      (fun (name, labels, ty, Met.Value v) ->
        Printf.sprintf "%s%s %s %g" name
          (String.concat "" (List.map (fun (k, v) -> "," ^ k ^ "=" ^ v) labels))
          ty v)
      (Met.samples reg)
  in
  Alcotest.(check (list string))
    "names alphabetical, registration order within a name"
    [ "alpha_total,i=1 counter 5"; "alpha_total,i=2 counter 2"; "zeta gauge 1" ]
    (scrape ());
  (* every scrape calls the probes again *)
  z := 7.5;
  a2 := 3.0;
  Alcotest.(check (list string))
    "a second scrape reads the current values"
    [ "alpha_total,i=1 counter 5"; "alpha_total,i=2 counter 3"; "zeta gauge 7.5" ]
    (scrape ())

let test_metrics_label_escaping () =
  let reg = Met.create () in
  Met.probe reg ~labels:[ ("path", "a\\b \"q\"\nx") ] ~kind:`Gauge "esc" (fun () -> 1.0);
  check_string "backslash, quote and newline escaped"
    "# TYPE esc gauge\nesc{path=\"a\\\\b \\\"q\\\"\\nx\"} 1\n" (Met.expose reg)

let test_metrics_from_instrumented_cell () =
  let reg = Met.create () in
  match E.run_instrumented_cell ~seed:1 ~cell:"DoS" ~metrics:reg () with
  | Error e -> Alcotest.fail e
  | Ok (row, _) ->
      let text = Met.expose reg in
      check_bool "netsim counters exposed" true
        (contains text "netsim_delivered_total ");
      check_bool "daemon series exposed" true
        (contains text "daemon_restarts_total{daemon=\"connmand\"} ");
      check_bool "supervisor restarts agree with the chaos row" true
        (contains text
           (Printf.sprintf "supervisor_restarts_total{supervisor=\"victim\"} %d\n"
              row.E.restarts))

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow keeps the newest window" `Quick
            test_ring_overflow;
          Alcotest.test_case "under capacity drops nothing" `Quick
            test_ring_under_capacity;
          Alcotest.test_case "clock is monotonic" `Quick
            test_clock_is_monotonic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome json is well-formed" `Quick
            test_trace_json_well_formed;
          Alcotest.test_case "events from every layer" `Quick
            test_trace_covers_layers;
          Alcotest.test_case "unknown cell/schedule rejected" `Quick
            test_unknown_cell_and_schedule;
        ] );
      ( "interference",
        [
          Alcotest.test_case "matrix outcomes unchanged when traced" `Slow
            test_differential_outcomes;
        ] );
      ( "profile",
        [
          Alcotest.test_case "buckets by base symbol" `Quick
            test_profiler_buckets_by_symbol;
          Alcotest.test_case "conserves one parse's instructions" `Quick
            test_profiler_conservation_daemon;
          Alcotest.test_case "conserves a whole chaos cell" `Quick
            test_profiler_conservation_cell;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "deterministic exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "re-registration replaces" `Quick
            test_metrics_reregistration_replaces;
          Alcotest.test_case "samples order, re-read per scrape" `Quick
            test_metrics_samples_order;
          Alcotest.test_case "label values escaped" `Quick
            test_metrics_label_escaping;
          Alcotest.test_case "registry over an instrumented cell" `Quick
            test_metrics_from_instrumented_cell;
        ] );
    ]
