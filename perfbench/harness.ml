(* Shared pieces of the workload drivers: the wall clock, the check
   ledger behind [attempted]/[failed], order statistics, the host-speed
   reference, GC counters. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few failed checks, newest first *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.failures < 10 then c.failures <- what :: c.failures
  end

(* Linear-interpolation quantile (q in [0, 1]) of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let r = q *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Estimators over many short samples (exploit_cells chunks of ~0.1 s,
   set-up repeats).  Other tenants of a shared host only ever slow a
   sample down, often for less than a second, so the figure comes from
   the least-disturbed samples: the upper decile of rates and the lower
   decile of latencies.  A slower program slows every sample and still
   shows.  fuzz repeats the same 32 campaigns of ~0.15 s each round and
   sums each campaign's fastest time.  fleet has a few long campaigns
   and reports the median campaign rate, which varied less from run to
   run. *)
let best_rate rates = quantile rates 0.9
let best_time times = quantile times 0.1

(* {1 Host-speed reference}

   The host's speed drifts by a quarter over minutes, in phases longer
   than a run, and no choice of samples within a run removes that.  So
   every timed interval is divided by the time of a fixed reference
   computation timed next to it, and multiplied by [reference_s]: the
   reported times are host times scaled to the speed of the baseline
   host.  The reference is table-dispatched ALU work on a 32 KiB array,
   the shape of an interpreter loop, and uses nothing from the library,
   so no change to the program moves it; only the host does. *)
let reference () =
  let a = Array.make 4096 0 in
  let x = ref 1 and acc = ref 0 in
  for i = 0 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    match (!x lsr 20) land 7 with
    | 0 -> acc := !acc + a.(j)
    | 1 -> a.(j) <- a.(j) + i
    | 2 -> acc := !acc lxor (i lsl 3)
    | 3 -> a.((j + 1) land 4095) <- !acc
    | 4 -> acc := !acc - j
    | 5 -> acc := !acc + (a.(j) land 255)
    | 6 -> a.(j) <- a.(j) lxor !acc
    | _ -> incr acc
  done;
  ignore (Sys.opaque_identity (!acc + a.(0)))

(* Host seconds that [reference] takes on the baseline host (a 2-vCPU
   Xeon VM). *)
let reference_s = 0.0046

(* Wall time of [f ()] in seconds, and its result. *)
let time f =
  let t0 = now_s () in
  let v = f () in
  (now_s () -. t0, v)

let reference_times = ref []

(* Host seconds [reference] takes now. *)
let time_reference () =
  let r = fst (time reference) in
  reference_times := r :: !reference_times;
  r

(* [host_s] seconds, taken while [reference] took [ref_s], scaled to the
   baseline host. *)
let scaled host_s ~ref_s = host_s /. ref_s *. reference_s

let reference_note () =
  ( "reference_ms",
    Printf.sprintf "median %.3f, nominal %.3f" (median !reference_times *. 1e3) (reference_s *. 1e3) )

(* Spread of chunk rates, for the human-readable report. *)
let rate_note rates =
  Printf.sprintf "min %.0f  p10 %.0f  p50 %.0f  p90 %.0f  max %.0f  (%d chunks)" (quantile rates 0.0)
    (quantile rates 0.1) (quantile rates 0.5) (quantile rates 0.9) (quantile rates 1.0)
    (List.length rates)

(* Runs [chunk 0], [chunk 1], ... until the next chunk would likely end
   past [seconds] (the last chunk's duration is the estimate), so a run
   keeps to its time; at least one chunk runs.  Returns the count. *)
let run_chunks ~seconds chunk =
  let t_start = now_s () in
  let rec go i =
    let dt, () = time (fun () -> chunk i) in
    if now_s () -. t_start +. dt <= seconds then go (i + 1) else i + 1
  in
  go 0

let end_to_end ~ops_per_s ~op_p50_us ~heap ~setups =
  [
    ("ops_per_s", ops_per_s);
    ("op_p50_us", op_p50_us);
    ("peak_heap_mb", heap);
    ("setup_s", best_time setups);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Allocation counters, in words: minor, allocated directly in the major
   heap (major minus promoted), and major collections so far. *)
type gc = { minor_w : float; direct_w : float; majors : int }

let gc_now () =
  let minor, promoted, major = Gc.counters () in
  { minor_w = minor; direct_w = major -. promoted; majors = (Gc.quick_stat ()).Gc.major_collections }

let gc_zero = { minor_w = 0.0; direct_w = 0.0; majors = 0 }

(* Runs [f], adding what it allocated to [acc]. *)
let counting_gc acc f =
  let a = gc_now () in
  let v = f () in
  let b = gc_now () in
  acc :=
    {
      minor_w = !acc.minor_w +. b.minor_w -. a.minor_w;
      direct_w = !acc.direct_w +. b.direct_w -. a.direct_w;
      majors = !acc.majors + b.majors - a.majors;
    };
  v

(* The three gc.* layer metrics over [ops] operations run in [units]
   repetitions of the workload's unit of work. *)
let gc_metrics g ~ops ~units =
  let kb w = w *. float_of_int (Sys.word_size / 8) /. 1024.0 in
  let per_op x = if ops = 0 then 0.0 else x /. float_of_int ops in
  [
    ("gc.minor_kb_per_op", per_op (kb g.minor_w));
    ("gc.major_direct_kb_per_op", per_op (kb g.direct_w));
    ("gc.major_collections", float_of_int g.majors /. float_of_int (max 1 units));
  ]

(* What a workload hands back to [Main]. *)
type outcome = {
  metrics : (string * float) list;
  notes : (string * string) list;  (* human-readable extras *)
  spans : Spans.t option;
}
