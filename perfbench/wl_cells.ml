(* exploit_cells: the diversity-matrix trial run as an op loop.

   Seven cells (the oversized-name DoS and the paper's E1-E6) times four
   defense combinations (base, div, shstk, div+shstk) give 28 classes;
   op [k] belongs to class [k mod 28].  An op spawns a device from the
   class's template — Dnsproxy.fork, or fork_diversified with the op's
   diversity seed plus the variant plan the matrix trial records — and
   delivers one crafted response through handle_response.

   Set-up boots the 28 templates and runs Autogen.generate for each
   exploit cell against an analysis boot, as the matrix trial does. *)

module D = Connman.Dnsproxy
module P = Defense.Profile
module A = Exploit.Autogen
module H = Harness

let lookup = Dns.Name.of_string "ipv4.connman.net"

let dos_wire q =
  Dns.Craft.hostile_response ~query:q ~raw_name:(Dns.Craft.dos_name ~size:8192) ()

type cls = {
  cell : string;
  combo : string;
  arch : Loader.Arch.t;
  profile : P.t;
  diversified : bool;
  strategy : A.strategy option;  (* None: the DoS cell *)
  tpl : D.t;
  wire_for : Dns.Packet.t -> string;
}

let cells =
  ("DoS", Loader.Arch.X86, P.wx, None)
  :: List.map
       (fun (id, _, arch, profile, strategy, _) -> (id, arch, profile, Some strategy))
       Core.Experiments.matrix_cells

let combos profile =
  [
    ("base", profile, false);
    ("div", profile, true);
    ("shstk", P.with_mitigations profile, false);
    ("div+shstk", P.with_mitigations profile, true);
  ]

(* Classes, i.e. ops per round. *)
let n_classes = List.length cells * List.length (combos P.wx)

let boot ~seed arch profile =
  D.create { D.version = Connman.Version.v1_34; arch; profile; boot_seed = seed; diversity_seed = None }

let build (p : Plan.t) =
  Array.of_list
    (List.concat_map
       (fun (cell, arch, base_profile, strategy) ->
         let wire_for =
           match strategy with
           | None -> dos_wire
           | Some strategy -> (
               let analysis = D.process (boot ~seed:(p.Plan.boot_seed + 5000) arch base_profile) in
               match A.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
               | Ok (_, raw_name) -> fun query -> A.response_for ~query ~raw_name
               | Error e -> failwith (Printf.sprintf "exploit_cells %s: generation failed: %s" cell e))
         in
         List.map
           (fun (combo, profile, diversified) ->
             {
               cell;
               combo;
               arch;
               profile;
               diversified;
               strategy;
               tpl = boot ~seed:p.Plan.boot_seed arch profile;
               wire_for;
             })
           (combos base_profile))
       cells)

(* The expected disposition: the DoS always crashes; base and shstk must
   match Autogen.mitigated_by; div+shstk is never compromised; plain
   layout diversity is probabilistic and unchecked. *)
let check_disposition ck cl (disp : D.disposition) =
  let what = Printf.sprintf "%s/%s" cl.cell cl.combo in
  let compromised = match disp with D.Compromised _ -> true | _ -> false in
  match (cl.strategy, cl.combo) with
  | None, _ -> H.check ck (what ^ ": DoS crashes") (match disp with D.Crashed _ -> true | _ -> false)
  | Some s, ("base" | "shstk") ->
      if A.mitigated_by cl.profile s = [] then H.check ck (what ^ ": compromised") compromised
      else H.check ck (what ^ ": blocked") (match disp with D.Blocked _ -> true | _ -> false)
  | Some _, "div+shstk" -> H.check ck (what ^ ": not compromised") (not compromised)
  | Some _, _ -> ()

let variant_plan cl ~seed =
  match cl.arch with
  | Loader.Arch.X86 -> Connman.Program_x86.variant_plan ~version:Connman.Version.v1_34 ~profile:cl.profile ~seed
  | Loader.Arch.Arm -> Connman.Program_arm.variant_plan ~version:Connman.Version.v1_34 ~profile:cl.profile ~seed

(* Span ids of the traced run. *)
type probes = {
  sp : Spans.t;
  op : int;
  spawn_plain : int;
  spawn_div : int;
  plan : int;
  craft : int;
  deliver_plain : int;
  deliver_mitigated : int;
}

let probes sp =
  let i = Spans.intern sp in
  {
    sp;
    op = i "cells.op";
    spawn_plain = i "connman.spawn_plain";
    spawn_div = i "diversity.spawn_div";
    plan = i "diversity.variant_plan";
    craft = i "exploit.craft";
    deliver_plain = i "connman.deliver_plain";
    deliver_mitigated = i "connman.deliver_mitigated";
  }

(* One op; returns what the invariance check compares: the disposition,
   the parse's retired steps, and whether the op ran mitigated. *)
let run_op ?probes ck (p : Plan.t) classes k =
  let span id f = match probes with None -> f () | Some pr -> Spans.span pr.sp (id pr) f in
  let cl = classes.(k mod Array.length classes) in
  span (fun pr -> pr.op) (fun () ->
      let d =
        if cl.diversified then begin
          let seed = Plan.diversity_seed p k in
          let d = span (fun pr -> pr.spawn_div) (fun () -> D.fork_diversified cl.tpl ~diversity_seed:seed) in
          let plan = span (fun pr -> pr.plan) (fun () -> variant_plan cl ~seed) in
          H.check ck "variant plan carries the op's diversity seed" (plan.Diversity.Variant.seed = seed);
          d
        end
        else span (fun pr -> pr.spawn_plain) (fun () -> D.fork cl.tpl)
      in
      let wire = span (fun pr -> pr.craft) (fun () -> cl.wire_for (D.make_query d lookup)) in
      let mitigated = P.mitigated cl.profile in
      let disp =
        span
          (fun pr -> if mitigated then pr.deliver_mitigated else pr.deliver_plain)
          (fun () -> D.handle_response d wire)
      in
      check_disposition ck cl disp;
      (Format.asprintf "%a" D.pp_disposition disp, D.last_steps d, mitigated))

(* Ops per chunk (four rounds of the classes); chunks between two set-up
   measurements; the chunk after which the peak heap is read (a fixed
   amount of work). *)
let chunk_ops = 4 * n_classes
let setup_every = 25
let heap_chunk = 50

(* Each chunk's ops are timed one by one; a chunk contributes its rate
   and its median op latency, scaled by the reference timed before and
   after it (a set-up by the one before it; see Harness.reference). *)
let measure ~seconds p =
  let r_before = ref (H.time_reference ()) in
  let setup_s, classes = H.time (fun () -> build p) in
  let ck = H.checks () in
  let setups = ref [ H.scaled setup_s ~ref_s:!r_before ] in
  let rates = ref [] and p50s = ref [] and host_rates = ref [] and k = ref 0 in
  let heap = ref 0.0 in
  let lat = Array.make chunk_ops 0.0 in
  let chunks =
    H.run_chunks ~seconds (fun i ->
        if i mod setup_every = setup_every - 1 then begin
          let r = H.time_reference () in
          setups := H.scaled (fst (H.time (fun () -> build p))) ~ref_s:r :: !setups;
          r_before := H.time_reference ()
        end;
        let t_chunk = H.now_s () in
        for j = 0 to chunk_ops - 1 do
          let dt, _ = H.time (fun () -> run_op ck p classes !k) in
          lat.(j) <- dt *. 1e6;
          incr k
        done;
        let dt = H.now_s () -. t_chunk in
        let r_after = H.time_reference () in
        let ref_s = (!r_before +. r_after) /. 2.0 in
        r_before := r_after;
        host_rates := (float_of_int chunk_ops /. dt) :: !host_rates;
        rates := (float_of_int chunk_ops /. H.scaled dt ~ref_s) :: !rates;
        p50s := H.scaled (H.median (Array.to_list lat)) ~ref_s :: !p50s;
        if i <= heap_chunk then heap := H.peak_heap_mb ())
  in
  ( ck,
    {
      H.metrics =
        H.end_to_end ~ops_per_s:(H.best_rate !rates) ~op_p50_us:(H.best_time !p50s) ~heap:!heap
          ~setups:!setups;
      notes =
        [
          ("host_ops_per_s", Printf.sprintf "%.2f (unscaled)" (H.best_rate !host_rates));
          H.reference_note ();
          ("chunk_rates", H.rate_note !rates);
          ("chunks", string_of_int chunks);
          ("ops", string_of_int !k);
          ("setups", string_of_int (List.length !setups));
          ("op_p50_us", "per chunk: median over ops of spawn + delivery");
        ];
      spans = None;
    } )

let traced ~seconds p =
  let classes = build p in
  let ck = H.checks () in
  let pr = probes (Spans.create ()) in
  let gc = ref H.gc_zero in
  let plain_wall = ref 0.0 and traced_wall = ref 0.0 in
  let steps = ref 0 and plain_steps = ref 0 and mitigated_steps = ref 0 in
  let units =
    H.run_chunks ~seconds (fun u ->
        let ks = List.init chunk_ops (fun i -> (u * chunk_ops) + i) in
        let dt, plain =
          H.time (fun () -> H.counting_gc gc (fun () -> List.map (run_op ck p classes) ks))
        in
        let dt', traced = H.time (fun () -> List.map (run_op ~probes:pr ck p classes) ks) in
        plain_wall := !plain_wall +. dt;
        traced_wall := !traced_wall +. dt';
        H.check ck "traced ops reproduce dispositions and last_steps" (plain = traced);
        List.iter
          (fun (_, s, mitigated) ->
            steps := !steps + s;
            if mitigated then mitigated_steps := !mitigated_steps + s
            else plain_steps := !plain_steps + s)
          traced)
  in
  let ops = units * chunk_ops in
  let tot = Spans.totals pr.sp in
  let us = Spans.mean_self_us tot in
  let ns_per_step name steps = float_of_int (tot name).Spans.self_ns /. float_of_int steps in
  ( ck,
    {
      H.metrics =
        [
          ("connman.spawn_plain_us", us "connman.spawn_plain");
          ("diversity.spawn_div_us", us "diversity.spawn_div");
          ("diversity.variant_plan_us", us "diversity.variant_plan");
          ("exploit.craft_us", us "exploit.craft");
          ("connman.deliver_plain_us", us "connman.deliver_plain");
          ("connman.deliver_mitigated_us", us "connman.deliver_mitigated");
          ("isa.ns_per_step_plain", ns_per_step "connman.deliver_plain" !plain_steps);
          ("isa.ns_per_step_mitigated", ns_per_step "connman.deliver_mitigated" !mitigated_steps);
          ("isa.steps_per_op", float_of_int !steps /. float_of_int ops);
          ("telemetry.trace_overhead", !traced_wall /. !plain_wall);
        ]
        @ H.gc_metrics !gc ~ops ~units;
      notes = [ ("ops", string_of_int ops); ("spans", string_of_int pr.sp.Spans.len) ];
      spans = Some pr.sp;
    } )
