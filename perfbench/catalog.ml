(* Every metric the benchmark prints.  BENCHMARK.json declares the same
   names, units and directions (test_perfbench.py checks they agree);
   [moves] and [on] record, before any optimisation is measured, which
   end-to-end metric a per-layer metric should move and on which
   workloads the layer does work. *)

type kind = End_to_end | Per_layer

type t = {
  name : string;
  unit_ : string;
  better : string;  (* "lower" | "higher" *)
  kind : kind;
  moves : string list;  (* end-to-end metrics this layer metric moves *)
  on : string list;  (* workloads where it is measured; elsewhere it reads 0 *)
}

let workloads = [ "fuzz"; "fleet"; "exploit_cells" ]
let fuzz = [ "fuzz" ]
let fleet = [ "fleet" ]
let cells = [ "exploit_cells" ]

let e2e name unit_ better =
  { name; unit_; better; kind = End_to_end; moves = []; on = workloads }

let layer ?(better = "lower") name unit_ ~moves ~on =
  { name; unit_; better; kind = Per_layer; moves; on }

let tput = [ "ops_per_s" ]
let tput_lat = [ "ops_per_s"; "op_p50_us" ]
let lat = [ "op_p50_us" ]
let tput_heap = [ "ops_per_s"; "peak_heap_mb" ]

let all =
  [
    e2e "ops_per_s" "1/s" "higher";
    e2e "op_p50_us" "us" "lower";
    e2e "peak_heap_mb" "MB" "lower";
    e2e "setup_s" "s" "lower";
    layer "memsim.restore_us" "us" ~moves:tput ~on:fuzz;
    layer "loader.call_cov_us" "us" ~moves:tput ~on:fuzz;
    layer "isa.ns_per_step_cov" "ns" ~moves:tput ~on:fuzz;
    layer ~better:"higher" "icache.hit_ratio" "ratio" ~moves:tput ~on:fuzz;
    layer "icache.misses_per_op" "count" ~moves:tput ~on:fuzz;
    layer "sanitizer.triage_us" "us" ~moves:tput ~on:fuzz;
    layer "sanitizer.triages" "count" ~moves:tput ~on:fuzz;
    layer "fuzz.mutate_us" "us" ~moves:tput ~on:fuzz;
    layer "fuzz.commit_us" "us" ~moves:tput ~on:fuzz;
    layer "fuzz.steps_per_op" "count" ~moves:tput ~on:fuzz;
    layer "connman.spawn_plain_us" "us" ~moves:tput_lat ~on:cells;
    layer "diversity.spawn_div_us" "us" ~moves:tput_lat ~on:cells;
    layer "diversity.variant_plan_us" "us" ~moves:tput_lat ~on:cells;
    layer "exploit.craft_us" "us" ~moves:tput_lat ~on:cells;
    layer "connman.deliver_plain_us" "us" ~moves:lat ~on:cells;
    layer "connman.deliver_mitigated_us" "us" ~moves:lat ~on:cells;
    layer "isa.ns_per_step_plain" "ns" ~moves:lat ~on:cells;
    layer "isa.ns_per_step_mitigated" "ns" ~moves:lat ~on:cells;
    layer "isa.steps_per_op" "count" ~moves:lat ~on:cells;
    layer "netsim.events" "count" ~moves:tput_heap ~on:fleet;
    layer ~better:"higher" "netsim.delivered" "count" ~moves:tput_heap ~on:fleet;
    layer "netsim.dropped" "count" ~moves:tput_heap ~on:fleet;
    layer "connman.forks" "count" ~moves:tput_heap ~on:fleet;
    layer ~better:"higher" "dns.cache_hit_ratio" "ratio" ~moves:tput_heap ~on:fleet;
    layer ~better:"higher" "fleet.availability" "ratio" ~moves:tput_heap ~on:fleet;
    layer "fleet.compromises" "count" ~moves:tput_heap ~on:fleet;
    layer "fleet.crashes" "count" ~moves:tput_heap ~on:fleet;
    layer "fleet.restarts" "count" ~moves:tput_heap ~on:fleet;
    layer "gc.minor_kb_per_op" "KiB" ~moves:tput_heap ~on:workloads;
    layer "gc.major_direct_kb_per_op" "KiB" ~moves:tput_heap ~on:workloads;
    layer "gc.major_collections" "count" ~moves:tput_heap ~on:workloads;
    layer "telemetry.trace_overhead" "ratio" ~moves:[ "none" ] ~on:workloads;
  ]

let of_kind k = List.filter (fun m -> m.kind = k) all
let find name = List.find (fun m -> m.name = name) all

let to_json () =
  let strs l = String.concat "," (List.map (Printf.sprintf "%S") l) in
  let one m =
    Printf.sprintf
      "{\"name\":%S,\"unit\":%S,\"better\":%S,\"kind\":%S,\"moves\":[%s],\"on\":[%s]}"
      m.name m.unit_ m.better
      (match m.kind with End_to_end -> "end_to_end" | Per_layer -> "per_layer")
      (strs m.moves) (strs m.on)
  in
  "[" ^ String.concat ",\n " (List.map one all) ^ "]"
