(* Workload inputs, drawn from the benchmark's --seed.  The library
   entry points only ever receive these generated values, so the same
   seed replays the same inputs and another seed draws new ones. *)

type t = {
  seed : int;
  fuzz_seeds : int list;  (* Fuzz.Engine config seeds: [fuzz_pool], for every seed *)
  fleet_seed : int;  (* Fleet.Campaign config seed *)
  boot_seed : int;  (* exploit_cells template boots (analysis boots: +5000) *)
  div_master : int;  (* exploit_cells master seed for per-op diversity seeds *)
}

let draw rng = 1 + Memsim.Rng.bits rng 30

(* Candidate fuzz campaign seeds: the first [n] draws of a fixed stream. *)
let fuzz_candidates n =
  let rng = Memsim.Rng.create 0xF022 in
  List.init n (fun _ -> draw rng)

(* The fuzz campaign seeds, the same for every benchmark seed.  A fuzz
   round's work depends on its campaign seeds: each crashing input costs
   a sanitizer triage of about 140 coverage executions, and crashing
   inputs are rare and unevenly spread over seeds, so freshly drawn
   rounds would change a run's work from seed to seed.  The pool is a
   stratified sample of 320 candidates: sorted by their triage count on
   both ISAs, the candidate at the middle of each of 16 equal strata.
   Its round makes 54 triages; the 20 fresh rounds of 16 consecutive
   candidates make 28-108, median 44, quartiles 39 and 62.5, mean 52.8.
   [main.exe --survey-fuzz-pool 320] recomputes all of these. *)
let fuzz_pool_size = 16

let fuzz_pool =
  [
    125102122; 399198992; 671588857; 900909502; 13013690; 184833617; 513346577; 714866524;
    924282529; 164451089; 555085542; 767525984; 1038648903; 534888165; 424333367; 6100624;
  ]

let make seed =
  let rng = Memsim.Rng.create seed in
  let draw () = draw rng in
  let fleet_seed = draw () in
  let boot_seed = draw () in
  let div_master = draw () in
  { seed; fuzz_seeds = fuzz_pool; fleet_seed; boot_seed; div_master }

(* Diversity seed of exploit_cells op [k] (used when the op's combination
   is diversified). *)
let diversity_seed p k = Diversity.Pool.seed_for ~master:p.div_master k

let ints l = String.concat "," (List.map string_of_int l)

(* The drawn seeds, and the diversity seeds of ops [ops]. *)
let to_json p ~ops =
  Printf.sprintf
    "{\"seed\":%d,\"fuzz_seeds\":[%s],\"fleet_seed\":%d,\"boot_seed\":%d,\"div_master\":%d,\"diversity_seeds\":[%s]}"
    p.seed (ints p.fuzz_seeds) p.fleet_seed p.boot_seed p.div_master
    (ints (List.map (diversity_seed p) ops))
