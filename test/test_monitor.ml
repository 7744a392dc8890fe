(* Flight-recorder tests: the alert pending/firing/hysteresis state
   machine, store downsampling,
   the rules grammar, the JSON parser and printer, the trace
   dropped-events marker, and incident timelines on the smoke campaign.
   The monitor-v1 document's replay contract is test_replay.ml's. *)

module M = Telemetry.Metrics
module Mon = Telemetry.Monitor
module T = Telemetry.Trace
module J = Telemetry.Json
module C = Fleet.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* Series a test can move: probes over refs. *)
let gauge reg name =
  let r = ref 0.0 in
  M.probe reg ~kind:`Gauge name (fun () -> !r);
  r

let counter reg name =
  let r = ref 0.0 in
  M.probe reg ~kind:`Counter name (fun () -> !r);
  r

(* --- alert state machine ------------------------------------------------- *)

let load_series = Mon.Series { Mon.sel_name = "load"; sel_labels = [] }

let test_alert_for_duration_hysteresis () =
  let reg = M.create () in
  let g = gauge reg "load" in
  let mon = Mon.create ~interval_us:1_000_000 reg in
  Mon.alert mon ~name:"hot" ~for_us:2_000_000 ~clear:2.0 ~cmp:Mon.Gt
    ~threshold:5.0 load_series;
  let t = ref 0 in
  let step v =
    t := !t + 1_000_000;
    g := v;
    Mon.scrape mon ~now:!t
  in
  let state () = List.assoc "hot" (Mon.alert_states mon) in
  step 1.0;
  check_bool "below threshold: inactive" true (state () = Mon.Inactive);
  step 6.0;
  check_bool "breach starts pending" true (state () = Mon.Pending);
  step 6.5;
  check_bool "sustained 1s of 2s: still pending" true (state () = Mon.Pending);
  step 7.0;
  check_bool "sustained 2s: firing" true (state () = Mon.Firing);
  step 4.0;
  check_bool "below threshold but above clear: hysteresis holds" true
    (state () = Mon.Firing);
  step 1.0;
  check_bool "below clear: resolved" true (state () = Mon.Inactive);
  (* the typed transition log captured each edge with its value *)
  let trs = Mon.transitions mon in
  check_int "three transitions" 3 (List.length trs);
  (match trs with
  | [ a; b; c ] ->
      check_bool "pending edge" true (a.Mon.tr_to = Mon.Pending);
      check_int "pending at 2s" 2_000_000 a.Mon.tr_ts;
      check_bool "firing edge" true (b.Mon.tr_to = Mon.Firing);
      check_int "firing at 4s" 4_000_000 b.Mon.tr_ts;
      check_bool "resolved edge" true (c.Mon.tr_to = Mon.Inactive);
      check_int "resolved at 6s" 6_000_000 c.Mon.tr_ts
  | _ -> Alcotest.fail "expected exactly three transitions");
  (* one incident, fully resolved, peak tracked over the episode *)
  match Mon.incidents mon with
  | [ i ] ->
      check_int "pending ts" 2_000_000 i.Mon.i_pending_us;
      check_int "firing ts" 4_000_000 i.Mon.i_firing_us;
      check_int "resolved ts" 6_000_000 i.Mon.i_resolved_us;
      check_float "peak" 7.0 i.Mon.i_peak
  | l -> Alcotest.fail (Printf.sprintf "expected 1 incident, got %d" (List.length l))

let test_alert_pending_cancel () =
  let reg = M.create () in
  let g = gauge reg "load" in
  let mon = Mon.create ~interval_us:1_000_000 reg in
  Mon.alert mon ~name:"hot" ~for_us:3_000_000 ~cmp:Mon.Gt ~threshold:5.0
    load_series;
  let t = ref 0 in
  let step v =
    t := !t + 1_000_000;
    g := v;
    Mon.scrape mon ~now:!t
  in
  step 6.0;
  check_bool "pending" true (List.assoc "hot" (Mon.alert_states mon) = Mon.Pending);
  step 1.0;
  check_bool "cancelled back to inactive" true
    (List.assoc "hot" (Mon.alert_states mon) = Mon.Inactive);
  (* a cancelled pending episode never fired: no incident *)
  check_int "no incidents" 0 (List.length (Mon.incidents mon));
  (* immediate-fire alerts skip pending entirely *)
  Mon.alert mon ~name:"instant" ~cmp:Mon.Ge ~threshold:5.0 load_series;
  step 5.0;
  check_bool "for=0 fires immediately" true
    (List.assoc "instant" (Mon.alert_states mon) = Mon.Firing)

(* --- store downsampling and window queries ------------------------------- *)

let test_store_downsampling () =
  let reg = M.create () in
  let g = gauge reg "x" in
  let mon = Mon.create ~interval_us:1 ~points:8 reg in
  for i = 1 to 100 do
    g := float_of_int i;
    Mon.scrape mon ~now:i
  done;
  let pts = Mon.points mon "x" in
  check_bool "ring capacity bounded" true (List.length pts <= 8);
  check_bool "several points retained" true (List.length pts >= 4);
  (* nothing is lost to compaction: every scrape is merged somewhere *)
  check_int "merged scrape count" 100
    (List.fold_left (fun a p -> a + p.Mon.p_count) 0 pts);
  check_float "min survives merging" 1.0
    (List.fold_left (fun a p -> min a p.Mon.p_min) infinity pts);
  check_float "max survives merging" 100.0
    (List.fold_left (fun a p -> max a p.Mon.p_max) neg_infinity pts);
  let last = List.nth pts (List.length pts - 1) in
  check_float "last value exact" 100.0 last.Mon.p_last;
  check_int "last ts exact" 100 last.Mon.p_ts;
  (* points are time-ordered *)
  let ts = List.map (fun p -> p.Mon.p_ts) pts in
  check_bool "points time-ordered" true (List.sort compare ts = ts)

let test_window_queries () =
  let reg = M.create () in
  let c = counter reg "ops_total" in
  let mon = Mon.create ~interval_us:1_000_000 reg in
  for i = 1 to 10 do
    c := !c +. 2.0;
    Mon.scrape mon ~now:(i * 1_000_000)
  done;
  check_float "delta over trailing 5s" 10.0
    (Mon.delta_over mon "ops_total" ~now:10_000_000 ~window_us:5_000_000);
  check_float "rate is delta per second" 2.0
    (Mon.rate_over mon "ops_total" ~now:10_000_000 ~window_us:5_000_000);
  (match Mon.value_at mon "ops_total" 10_000_000 with
  | Some v -> check_float "value_at now" 20.0 v
  | None -> Alcotest.fail "value_at returned None");
  check_bool "value_at before first scrape" true
    (Mon.value_at mon "ops_total" 0 = None)

(* --- rules grammar ------------------------------------------------------- *)

let test_rules_parse () =
  let mon = Mon.create (M.create ()) in
  (match Mon.add_rules mon C.default_rules with
  | Ok n -> check_int "built-in fleet rule count" 11 n
  | Error e -> Alcotest.fail e);
  check_int "five alerts registered" 5 (List.length (Mon.alert_states mon))

let test_rules_errors_are_atomic () =
  let mon = Mon.create (M.create ()) in
  (* line 2 is broken: nothing from line 1 may be added either *)
  let bad = "alert ok_rule if x > 1\nalert broken if y >\n" in
  (match Mon.add_rules mon bad with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      check_bool "error names the line" true
        (String.length e >= 7 && String.sub e 0 7 = "line 2:"));
  check_int "no rules added on error" 0 (List.length (Mon.alert_states mon));
  (* the only functions are rate and delta: a quantile line rejects the
     whole file, and the error names the token *)
  let quantile = "alert ok_rule if x > 1\nalert slow if quantile(0.99, steps) > 5\n" in
  (match Mon.add_rules mon quantile with
  | Ok _ -> Alcotest.fail "expected quantile(...) to be rejected"
  | Error e ->
      check_string "error names line and token" "line 2: unknown function 'quantile'" e);
  check_int "no rules added on a quantile error" 0
    (List.length (Mon.alert_states mon));
  (* duration suffixes and label selectors parse *)
  let ok =
    "# comment\n\
     record r1 = rate(net_total{lan=\"0\"}[1500ms]) * 2\n\
     alert a1 if delta(parse_steps[1s]) >= 100 for 250ms clear 50\n"
  in
  match Mon.add_rules mon ok with
  | Ok n -> check_int "two rules" 2 n
  | Error e -> Alcotest.fail e

(* --- JSON parser --------------------------------------------------------- *)

let test_json_parse () =
  let src = "{\"a\": [1, 2.5, \"x\\n\", true, null], \"b\": {\"c\": -3e2}}" in
  (match J.parse src with
  | Error e -> Alcotest.fail e
  | Ok v -> (
      (match Option.bind (J.member "a" v) J.to_list with
      | Some [ n1; n2; s; J.Bool true; J.Null ] ->
          check_float "int" 1.0 (Option.get (J.to_float n1));
          check_float "float" 2.5 (Option.get (J.to_float n2));
          check_string "escaped string" "x\n" (Option.get (J.to_string s))
      | _ -> Alcotest.fail "array shape");
      match Option.bind (J.member "b" v) (J.member "c") with
      | Some n -> check_float "nested negative exponent" (-300.0) (Option.get (J.to_float n))
      | None -> Alcotest.fail "missing b.c"));
  (* errors pinpoint the byte offset *)
  match J.parse "{\"a\": tru}" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
      check_bool "error mentions offset" true
        (String.length e >= 6 && String.sub e 0 6 = "offset")

(* --- JSON printer ---------------------------------------------------------- *)

(* Any value the printer accepts: strings and keys over all 256 byte
   values, ints out to min_int/max_int, finite floats incl. subnormals. *)
let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 8) in
  let finite =
    oneof
      [
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_finite f then f else 0.25)
          ui64;
        map (fun m -> Int64.float_of_bits (Int64.of_int m)) (1 -- ((1 lsl 52) - 1));
        oneofl [ 0.0; -0.0; 5e-324; -.min_float; max_float; 0.1; 1e21 ];
      ]
  in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map (fun f -> J.Num f) finite;
        map (fun s -> J.Str s) bytes;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun vs -> J.Arr vs) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (0 -- 4) (pair bytes (self (n / 4)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (print v) = Ok v" ~count:500
    (QCheck.make ~print:J.print gen_json)
    (fun v -> J.parse (J.print v) = Ok v)

let test_json_print_rejects_non_finite () =
  List.iter
    (fun f ->
      check_bool (Printf.sprintf "%h raises" f) true
        (match J.print (J.Arr [ J.Num f ]) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ nan; infinity; neg_infinity ]

let test_json_print_layout () =
  let v =
    J.Obj
      [
        ("a", J.Int (-1));
        ( "b",
          J.Arr [ J.Obj [ ("c", J.Arr [ J.Num 0.5; J.Num 2.0 ]) ]; J.Arr [] ] );
        ("d", J.Obj [ ("e", J.Str "q\"\\\n\x01\xff"); ("f", J.fixed 4 0.1) ]);
        ("g", J.Obj []);
        ("h", J.Num 1e-7);
      ]
  in
  check_string "exact bytes"
    "{\n\
    \  \"a\": -1,\n\
    \  \"b\": [\n\
    \    {\"c\": [0.5, 2.0]},\n\
    \    []\n\
    \  ],\n\
    \  \"d\": {\"e\": \"q\\\"\\\\\\n\\u0001\xff\", \"f\": 0.1},\n\
    \  \"g\": {},\n\
    \  \"h\": 1e-07\n\
     }\n"
    (J.print v)

(* Ints print exactly: a seed past 2^53 survives the fleet report. *)
let test_json_fleet_max_int_seed () =
  let json = C.json (C.run { C.smoke_config with C.seed = max_int }) in
  check_bool "seed line" true
    (List.mem
       (Printf.sprintf "  \"seed\": %d," max_int)
       (String.split_on_char '\n' json));
  match J.parse json with
  | Ok v ->
      check_bool "seed parses back" true
        (Option.bind (J.member "seed" v) J.to_int = Some max_int)
  | Error e -> Alcotest.fail e

(* --- trace dropped-events marker ----------------------------------------- *)

let trace_dropped_expected =
  "{\n\
  \  \"traceEvents\": [\n\
  \    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
   \"args\": {\"name\": \"connman-repro\"}},\n\
  \    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
   \"args\": {\"name\": \"ring\"}},\n\
  \    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, \
   \"args\": {\"name\": \"wire\"}},\n\
  \    {\"name\": \"dropped_events\", \"cat\": \"trace\", \"ph\": \"i\", \"s\": \
   \"t\", \"ts\": 20, \"pid\": 1, \"tid\": 1, \"args\": {\"dropped\": 1, \
   \"emitted\": 3}},\n\
  \    {\"name\": \"e2\", \"cat\": \"net\", \"ph\": \"i\", \"s\": \"t\", \"ts\": \
   20, \"pid\": 1, \"tid\": 2, \"args\": {}},\n\
  \    {\"name\": \"e3\", \"cat\": \"net\", \"ph\": \"i\", \"s\": \"t\", \"ts\": \
   30, \"pid\": 1, \"tid\": 2, \"args\": {}}\n\
  \  ],\n\
  \  \"displayTimeUnit\": \"ms\",\n\
  \  \"otherData\": {\"emitted\": 3, \"dropped\": 1}\n\
   }\n"

let test_trace_dropped_marker () =
  let tr = T.create ~capacity:2 () in
  T.emit tr ~ts:10 ~cat:"net" ~track:"wire" "e1";
  T.emit tr ~ts:20 ~cat:"net" ~track:"wire" "e2";
  T.emit tr ~ts:30 ~cat:"net" ~track:"wire" "e3";
  check_int "one event dropped" 1 (T.dropped tr);
  let json = T.to_chrome_json tr in
  (match J.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("marker JSON invalid: " ^ e));
  check_string "exact marker bytes" trace_dropped_expected json

(* --- incident timelines on the real (chaotic) smoke campaign -------------- *)

let test_incident_causal_order () =
  let mon = Mon.create (M.create ()) in
  (match Mon.add_rules mon C.default_rules with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  ignore (C.run ~monitor:mon C.smoke_config);
  let json = Mon.json mon in
  (match J.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("monitor json invalid: " ^ e));
  let incs = Mon.incidents mon in
  check_bool "at least one incident" true (incs <> []);
  check_bool "an alert fired AND resolved" true
    (List.exists (fun i -> i.Mon.i_resolved_us >= 0) incs);
  (* the causal chain the tentpole promises: forged wire bytes open the
     timeline, containment closes it *)
  check_bool "provenance-first, containment-last timeline" true
    (List.exists
       (fun i ->
         match i.Mon.i_timeline with
         | [] -> false
         | first :: _ -> (
             first.Mon.e_kind = "wire_provenance"
             &&
             match List.rev i.Mon.i_timeline with
             | last :: _ ->
                 last.Mon.e_kind = "quarantine" || last.Mon.e_kind = "rollback"
             | [] -> false))
       incs);
  List.iter
    (fun i ->
      let ts = List.map (fun e -> e.Mon.e_ts) i.Mon.i_timeline in
      check_bool "timeline time-ordered" true (List.sort compare ts = ts);
      check_bool "pending after firing never" true
        (i.Mon.i_firing_us >= i.Mon.i_pending_us))
    incs;
  (* journal export order is (ts, actor, ordinal) *)
  let entries = Mon.journal_entries mon in
  check_bool "journal non-empty" true (entries <> []);
  check_bool "journal export order" true
    (let keyed = List.map (fun e -> (e.Mon.e_ts, e.Mon.e_actor)) entries in
     List.sort compare keyed = keyed)

let () =
  Alcotest.run "monitor"
    [
      ( "alerts",
        [
          Alcotest.test_case "for-duration + hysteresis" `Quick
            test_alert_for_duration_hysteresis;
          Alcotest.test_case "pending cancel / immediate fire" `Quick
            test_alert_pending_cancel;
        ] );
      ( "store",
        [
          Alcotest.test_case "downsampling" `Quick test_store_downsampling;
          Alcotest.test_case "window queries" `Quick test_window_queries;
        ] );
      ( "rules",
        [
          Alcotest.test_case "built-in rules parse" `Quick test_rules_parse;
          Alcotest.test_case "errors are atomic" `Quick
            test_rules_errors_are_atomic;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse + accessors" `Quick test_json_parse;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          Alcotest.test_case "print rejects nan/inf" `Quick
            test_json_print_rejects_non_finite;
          Alcotest.test_case "print layout" `Quick test_json_print_layout;
          Alcotest.test_case "fleet seed max_int" `Quick
            test_json_fleet_max_int_seed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "dropped-events marker" `Quick
            test_trace_dropped_marker;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "causal order on the smoke campaign" `Slow
            test_incident_causal_order;
        ] );
    ]
