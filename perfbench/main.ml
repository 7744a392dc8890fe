(* Entry point of the end-to-end benchmark.  run.py builds this
   executable and calls it as

     main.exe --workload fuzz|fleet|exploit_cells --seed N --seconds S --trace 0|1

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The exit code
   is 1 when any check failed.  [--plan] prints the inputs a seed draws
   and [--list-metrics] the metric catalog, for the benchmark's tests;
   [--survey-fuzz-pool N] shows how Plan.fuzz_pool was chosen. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let commit = ref "unknown"
let source_digest = ref "unknown"
let out_dir = ref ""
let mode = ref `Run

let specs =
  [
    ("--workload", Arg.Set_string workload, "fuzz | fleet | exploit_cells");
    ("--seed", Arg.Set_int seed, "N  workload seed");
    ("--seconds", Arg.Set_float seconds, "S  measuring time");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
    ("--commit", Arg.Set_string commit, "ID  commit recorded in the provenance");
    ("--source-digest", Arg.Set_string source_digest, "HEX  source digest recorded in the provenance");
    ("--out-dir", Arg.Set_string out_dir, "DIR  where to write the result and span files");
    ("--plan", Arg.Unit (fun () -> mode := `Plan), " print the inputs the seed draws");
    ("--list-metrics", Arg.Unit (fun () -> mode := `List), " print the metric catalog");
    ( "--survey-fuzz-pool",
      Arg.Int (fun n -> mode := `Survey n),
      "N  triage counts of N candidate fuzz seeds and the pool they yield" );
  ]

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1"

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line 0 i) = "model name" ->
              Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let provenance () =
  Printf.sprintf
    "{\"commit\":%s,\"source_digest\":%s,\"cpu_model\":%s,\"nproc\":%d,\"ocaml\":%s,\"seed\":%d,\"workload\":%s,\"seconds\":%g,\"trace\":%d,\"clock\":\"bechamel.monotonic_clock\"}"
    (json_string !commit) (json_string !source_digest) (json_string (cpu_model ()))
    (Domain.recommended_domain_count ()) (json_string Sys.ocaml_version) !seed
    (json_string !workload) !seconds !trace

let run () =
  let plan = Plan.make !seed in
  let measure, traced =
    match !workload with
    | "fuzz" -> (Wl_fuzz.measure, Wl_fuzz.traced)
    | "fleet" -> (Wl_fleet.measure, Wl_fleet.traced)
    | "exploit_cells" -> (Wl_cells.measure, Wl_cells.traced)
    | w -> raise (Arg.Bad ("unknown workload: " ^ w))
  in
  let kind = if !trace = 1 then Catalog.Per_layer else Catalog.End_to_end in
  let checks, out = (if !trace = 1 then traced else measure) ~seconds:!seconds plan in
  (* Layers a workload does not touch read 0; a name outside the catalog
     is a bug in the benchmark. *)
  List.iter (fun (n, _) -> ignore (Catalog.find n)) out.Harness.metrics;
  let metrics =
    List.map
      (fun (m : Catalog.t) ->
        let v = Option.value ~default:0.0 (List.assoc_opt m.Catalog.name out.Harness.metrics) in
        (m, v))
      (Catalog.of_kind kind)
  in
  let failed_frac = float_of_int checks.Harness.failed /. float_of_int (max 1 checks.Harness.attempted) in
  let metrics_json =
    String.concat ","
      (List.map
         (fun ((m : Catalog.t), v) ->
           Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string m.Catalog.name) v
             (json_string m.Catalog.unit_))
         metrics)
  in
  let correct = checks.Harness.failed = 0 && checks.Harness.attempted > 0 in
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
      checks.Harness.attempted checks.Harness.failed metrics_json
  in
  let prov = provenance () in
  Printf.printf "perfbench %s seed=%d trace=%d\n" !workload !seed !trace;
  List.iter (fun ((m : Catalog.t), v) -> Printf.printf "  %-30s %14.4f %s\n" m.Catalog.name v m.Catalog.unit_) metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %s\n" k v) out.Harness.notes;
  Printf.printf "  %-30s %d/%d (failed_frac %g)\n" "checks failed" checks.Harness.failed
    checks.Harness.attempted failed_frac;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev checks.Harness.failures);
  Printf.printf "provenance %s\n" prov;
  if !out_dir <> "" then begin
    let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out_dir !workload !seed !trace in
    Out_channel.with_open_text (base ^ ".json") (fun oc ->
        Printf.fprintf oc "{\"provenance\":%s,\"failed_frac\":%g,\"result\":%s}\n" prov failed_frac result);
    Option.iter (fun sp -> Spans.write sp (base ^ ".spans.tsv")) out.Harness.spans
  end;
  print_endline result;
  if not correct then exit 1

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a))) usage;
  match !mode with
  | `List -> print_endline (Catalog.to_json ())
  | `Plan ->
      print_endline
        (Plan.to_json (Plan.make !seed) ~ops:(List.init Wl_cells.n_classes Fun.id))
  | `Survey n -> Wl_fuzz.survey n
  | `Run -> (
      try run ()
      with Arg.Bad msg ->
        prerr_endline msg;
        exit 2)
