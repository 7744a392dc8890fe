(* Microbenchmarks.

   Every suite has one shape: a name, an output file, its smoke and full
   Bechamel (limit, quota) pairs, and a list of declared rows.  A row
   has a name, a unit, extras and how it is measured.  One driver
   measures the rows, prints them as one table and writes the suite's
   bench-suite-v1 file, which [regress] checks against a committed
   baseline.

     dune exec bench/main.exe -- SUITE [--smoke] [--out FILE]
     dune exec bench/main.exe -- all [--smoke] [--out DIR]
     dune exec bench/main.exe -- regress --base OLD.json --new NEW.json \
       [--tolerance PCT]
     dune build @bench-smoke          (every suite, smoke-sized)

   Timing rows mean something only from a release build. *)

open Bechamel
open Toolkit
module Dnsproxy = Connman.Dnsproxy
module Autogen = Exploit.Autogen
module Profile = Defense.Profile
module Mem = Memsim.Memory

(* ------------------------------------------------------------------ *)
(* Rows and suites                                                     *)
(* ------------------------------------------------------------------ *)

(* How a row's value is measured. *)
type how =
  | Ols of (unit -> unit)  (** ns per call, Bechamel OLS fit; adds r_square *)
  | Ols_per_step of int * (unit -> unit)
      (** the OLS time of a call over the steps one call retires *)
  | Fresh of { samples : int; setup : unit -> unit -> unit }
      (** median ns of the closure [setup ()] returns, a fresh setup per
          sample, the setup untimed *)
  | Once of (unit -> int)
      (** events per second of one monotonic-clock run of a closure that
          returns its event count; adds events and wall_ns *)
  | Ratio of string * string
      (** the value of the first named row over the second's *)
  | Paired of { pairs : int; first : unit -> int; second : unit -> int }
      (** the median over [pairs] pairs of monotonic-clock runs of two
          closures that return their event counts, the order alternating
          from pair to pair, of the first's events per second over the
          second's; adds min, max and pairs *)

(* What an extra reads once every row of its suite is measured. *)
type ctx = {
  value : float;  (** this row's value *)
  get : string -> float;  (** the value of a measured row *)
}

type row = {
  name : string;
  unit_ : string;  (** "ns_per_op", "ns_per_run", "ratio", ... *)
  how : how;
  extras : (string * (ctx -> float)) list;
}

type suite = {
  suite : string;
  file : string;  (** default output file *)
  smoke_cfg : int * float;  (** Bechamel (limit, quota in s) under --smoke *)
  full_cfg : int * float;
  meta : smoke:bool -> (string * Telemetry.Json.value) list;
  rows : smoke:bool -> row list;
}

let row ?(extras = []) name unit_ how = { name; unit_; how; extras }

let fresh ~samples setup run =
  Fresh { samples; setup = (fun () -> let r = setup () in fun () -> run r) }

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Extras. *)
let const x _ = x
let per_sec c = ratio 1e9 c.value
let steps_per_sec steps c = ratio (float_of_int steps *. 1e9) c.value

(* A named row's value over this one's: the speedup against it. *)
let vs name c = ratio (c.get name) c.value

(* This row's value over a named row's: the cost over it. *)
let over name c = ratio c.value (c.get name)

(* The common row: ns per call, with its rate. *)
let ns_per_op name f = row name "ns_per_op" (Ols f) ~extras:[ ("ops_per_sec", per_sec) ]

let steps_extras steps =
  [
    ("steps_per_run", const (float_of_int steps));
    ("steps_per_sec", steps_per_sec steps);
  ]

(* A row name for one ISA: [base], a dash, then the architecture's name. *)
let on arch base = base ^ "-" ^ Loader.Arch.name arch

let no_meta ~smoke:_ = []
let iters ~smoke = if smoke then 64 else 512
let iters_meta ~smoke = [ ("iters", Telemetry.Json.Int (iters ~smoke)) ]
let samples ~smoke = if smoke then 51 else 1001

(* ------------------------------------------------------------------ *)
(* Measuring                                                           *)
(* ------------------------------------------------------------------ *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

(* Bechamel OLS estimate of one call of [f]: ns per call and the fit's r². *)
let time_fn cfg name f =
  match Test.elements (Test.make ~name (Staged.stage f)) with
  | [ elt ] ->
      let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
      let result = Analyze.one ols Instance.monotonic_clock raw in
      let nanos =
        match Analyze.OLS.estimates result with Some [ est ] -> est | _ -> nan
      in
      (nanos, Option.value (Analyze.OLS.r_square result) ~default:nan)
  | _ -> invalid_arg "time_fn: expected a single element"

(* Run [f] with a reader of the monotonic clock, in ns. *)
let with_clock f =
  let module Clock = Monotonic_clock in
  let clock = Clock.make () in
  Clock.load clock;
  let r = f (fun () -> Clock.get clock) in
  Clock.unload clock;
  r

(* Median time of a fresh [setup ()] closure per sample.  Bechamel's
   [Test.multiple] cannot do this: every run of a sample gets the same
   resource, so all but the first would be warm. *)
let time_fresh ~samples setup =
  let times =
    with_clock (fun now ->
        Array.init samples (fun _ ->
            let run = setup () in
            let t0 = now () in
            run ();
            now () -. t0))
  in
  Array.sort compare times;
  times.(samples / 2)

(* Allocation per call, measured directly off the minor/major counters;
   deterministic for a fixed workload. *)
let alloc_per_op ?(n = 10_000) f =
  for _ = 1 to 256 do f () done;
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do f () done;
  (Gc.allocated_bytes () -. before) /. float_of_int n

(* Minor-heap words per run of [run] over [n] fresh [setup ()]s, the
   setups unmeasured. *)
let minor_words_fresh ?(n = 32) setup run =
  let words = ref 0. in
  for _ = 1 to n do
    let r = setup () in
    let w0 = Gc.minor_words () in
    run r;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  !words /. float_of_int n

(* One run of a closure that returns its event count: the count and the
   run's wall time in ns. *)
let events_and_ns now run =
  let t0 = now () in
  let events = float_of_int (run ()) in
  (events, now () -. t0)

(* A measured row's value and the extras only its measurement knows. *)
let measure cfg r =
  match r.how with
  | Ols f ->
      let ns, r2 = time_fn cfg r.name f in
      (ns, [ ("r_square", r2) ])
  | Ols_per_step (steps, f) ->
      let ns, r2 = time_fn cfg r.name f in
      (ns /. float_of_int steps, [ ("r_square", r2) ])
  | Fresh { samples; setup } -> (time_fresh ~samples setup, [])
  | Once run ->
      let events, wall_ns = with_clock (fun now -> events_and_ns now run) in
      (ratio (events *. 1e9) wall_ns, [ ("events", events); ("wall_ns", wall_ns) ])
  | Paired { pairs; first; second } ->
      let ratios =
        with_clock (fun now ->
            let rate run =
              let events, wall_ns = events_and_ns now run in
              ratio (events *. 1e9) wall_ns
            in
            Array.init pairs (fun i ->
                if i land 1 = 0 then
                  let a = rate first in
                  ratio a (rate second)
                else
                  let b = rate second in
                  ratio (rate first) b))
      in
      Array.sort compare ratios;
      ( ratios.(pairs / 2),
        [
          ("min", ratios.(0));
          ("max", ratios.(pairs - 1));
          ("pairs", float_of_int pairs);
        ] )
  | Ratio _ -> invalid_arg "measure: a ratio row is derived"

(* ------------------------------------------------------------------ *)
(* Output: one table, one bench-suite-v1 file                          *)
(*                                                                     *)
(* Every BENCH_*.json file is the same shape: run metadata (suite,     *)
(* smoke flag, extra suite-specific keys, then machine, commit and     *)
(* OCaml version) plus a flat result list of                           *)
(* {name, unit, value, ...extras}.                                     *)
(* ------------------------------------------------------------------ *)

type result = {
  br_name : string;
  br_unit : string;
  br_value : float;
  br_extra : (string * float) list;
}

(* Where a measurement was taken: the CPU model and core count, the
   source tree as [git describe --always --dirty] ("-dirty": uncommitted
   changes on top of that commit), and the OCaml version. *)
let provenance () =
  let machine =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | exception Sys_error _ -> "unknown"
    | info ->
        let lines = String.split_on_char '\n' info in
        let has prefix = String.starts_with ~prefix in
        let model =
          match List.find_opt (has "model name") lines with
          | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
          | None -> "unknown"
        in
        Printf.sprintf "%s x%d" model
          (List.length (List.filter (has "processor") lines))
  in
  let commit =
    let tmp = Filename.temp_file "bench" ".rev" in
    let cmd = "git describe --always --dirty > " ^ Filename.quote tmp ^ " 2>/dev/null" in
    let rev =
      if Sys.command cmd = 0 then In_channel.with_open_text tmp In_channel.input_line
      else None
    in
    Sys.remove tmp;
    Option.value rev ~default:"unknown"
  in
  Telemetry.Json.
    [
      ("machine", Str machine);
      ("commit", Str commit);
      ("ocaml", Str Sys.ocaml_version);
    ]

let write_bench_json ~suite ~smoke ~meta ~out results =
  let open Telemetry.Json in
  let safe f = fixed 4 (if Float.is_nan f then 0.0 else f) in
  let result r =
    Obj
      ([
         ("name", Str r.br_name);
         ("unit", Str r.br_unit);
         ("value", safe r.br_value);
       ]
      @ List.map (fun (k, v) -> (k, safe v)) r.br_extra)
  in
  let json =
    print
      (Obj
         ([
            ("schema", Str "bench-suite-v1");
            ("suite", Str suite);
            ("smoke", Bool smoke);
          ]
         @ meta @ provenance ()
         @ [ ("results", Arr (List.map result results)) ]))
  in
  (match validate json with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: emitted invalid JSON (%s)" out e));
  Out_channel.with_open_bin out (fun oc -> output_string oc json);
  Format.printf "@.wrote %s@." out

let print_table results =
  Format.printf "%-40s %16s %-14s %8s  %s@." "bench" "value" "unit" "r^2" "extras";
  Format.printf "%s@." (String.make 100 '-');
  List.iter
    (fun r ->
      let r2, extras = List.partition (fun (k, _) -> k = "r_square") r.br_extra in
      Format.printf "%-40s %16.4f %-14s %8s  %s@." r.br_name r.br_value r.br_unit
        (match r2 with [ (_, v) ] -> Printf.sprintf "%.4f" v | _ -> "-")
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) extras)))
    results

(* Measure every row in declaration order, then derive the ratio rows
   and every extra, which may read any measured row. *)
let run_suite ~smoke ~out s =
  let limit, quota = if smoke then s.smoke_cfg else s.full_cfg in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize:false () in
  Format.printf "=== %s benches%s ===@.@." s.suite
    (if smoke then " (smoke: few iterations)" else "");
  let rows = s.rows ~smoke in
  let measured = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.how with
      | Ratio _ -> ()
      | _ -> Hashtbl.replace measured r.name (measure cfg r))
    rows;
  let find name =
    match Hashtbl.find_opt measured name with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "bench %s: no measured row %s" s.suite name)
  in
  let get name = fst (find name) in
  let results =
    List.map
      (fun r ->
        let value, own =
          match r.how with
          | Ratio (a, b) -> (ratio (get a) (get b), [])
          | _ -> find r.name
        in
        let c = { value; get } in
        {
          br_name = r.name;
          br_unit = r.unit_;
          br_value = value;
          br_extra = List.map (fun (k, f) -> (k, f c)) r.extras @ own;
        })
      rows
  in
  print_table results;
  write_bench_json ~suite:s.suite ~smoke ~meta:(s.meta ~smoke) ~out results

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let lookup = Dns.Name.of_string "ipv4.connman.net"

let mk_config ?(version = Connman.Version.v1_34) arch profile seed =
  { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed = None }

let benign_wire d =
  let query = Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8D822 ])

let connman_spec ?diversity_seed arch profile =
  match arch with
  | Loader.Arch.X86 ->
      Connman.Program_x86.spec ~version:Connman.Version.v1_34 ~profile
        ?diversity_seed ()
  | Loader.Arch.Arm ->
      Connman.Program_arm.spec ~version:Connman.Version.v1_34 ~profile
        ?diversity_seed ()

(* ------------------------------------------------------------------ *)
(* exploit: the attack pipeline, BENCH_exploit.json                    *)
(*                                                                     *)
(* DNS codec and label planning, process boot, gadget scanning,       *)
(* payload generation per experiment cell (E1–E6, the attacker-side   *)
(* offline cost), end-to-end exploits against a fresh victim, the §V   *)
(* adaptation targets, and the Wi-Fi Pineapple scenario.               *)
(* ------------------------------------------------------------------ *)

let benign_msg =
  Dns.Packet.response
    ~query:(Dns.Packet.query ~id:77 lookup Dns.Packet.A)
    [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8D822 ]

let chain_spec =
  Dns.Craft.spec_concat
    [
      Dns.Craft.spec_any 1024;
      Dns.Craft.spec_fixed (String.make 8 '\x00');
      Dns.Craft.spec_any 28;
      Dns.Craft.spec_fixed "\x8c\x01\x01\x00";
      Dns.Craft.spec_any 120;
    ]

let boot_bench arch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    ignore (Dnsproxy.create (mk_config arch Profile.wx_aslr !counter))

let gadget_bench arch =
  let proc = Dnsproxy.process (Dnsproxy.create (mk_config arch Profile.wx 9)) in
  match arch with
  | Loader.Arch.X86 ->
      fun () -> ignore (Exploit.Gadget.scan_x86 proc ~regions:[ ".text" ])
  | Loader.Arch.Arm ->
      fun () -> ignore (Exploit.Gadget.scan_arm proc ~regions:[ ".text" ])

let payload_bench (arch, profile, strategy) =
  let analysis = Dnsproxy.process (Dnsproxy.create (mk_config arch profile 9)) in
  fun () ->
    match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
    | Ok _ -> ()
    | Error e -> failwith e

(* Boot a fresh victim and pop a shell. *)
let end_to_end_bench (arch, profile, strategy) =
  let analysis = Dnsproxy.process (Dnsproxy.create (mk_config arch profile 9)) in
  let _, raw_name =
    match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
    | Ok r -> r
    | Error e -> failwith e
  in
  let counter = ref 100 in
  fun () ->
    incr counter;
    let victim = Dnsproxy.create (mk_config arch profile !counter) in
    let query = Dnsproxy.make_query victim lookup in
    match Dnsproxy.handle_response victim (Autogen.response_for ~query ~raw_name) with
    | Dnsproxy.Compromised _ -> ()
    | other ->
        failwith (Format.asprintf "%a" Dnsproxy.pp_disposition other)

let dnsmasq_parse_bench arch =
  let module D = Dnsmasq.Daemon in
  let d =
    D.create { D.patched = false; arch; profile = Profile.wx; boot_seed = 9 }
  in
  fun () ->
    let query = D.make_query d lookup in
    let wire =
      Dns.Packet.encode
        (Dns.Packet.response ~query
           [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:1 ])
    in
    ignore (D.handle_response d wire)

let tcpsvc_exploit_bench arch =
  let module D = Tcpsvc.Daemon in
  let profile = Profile.wx_aslr in
  let analysis =
    D.process (D.create { D.patched = false; arch; profile; boot_seed = 9 })
  in
  let target =
    Exploit.Target.make
      ~frame:(Tcpsvc.Frame.geometry arch)
      ~buffer_addr:(Tcpsvc.Frame.buffer_addr analysis)
      analysis
  in
  let payload =
    match Autogen.build ~analysis:target Autogen.Rop_aslr with
    | Ok p -> Exploit.Payload.to_raw_bytes p
    | Error _ -> failwith "tcpsvc payload"
  in
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d = D.create { D.patched = false; arch; profile; boot_seed = !counter } in
    match D.handle_frame d (D.frame ~tag:payload) with
    | D.Compromised _ -> ()
    | _ -> failwith "tcpsvc exploit failed"

let pineapple_bench () =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let config = mk_config Loader.Arch.Arm Profile.wx_aslr !counter in
    match Core.Scenario.pineapple_attack ~seed:!counter ~config () with
    | Ok _ -> ()
    | Error e -> failwith e

let exploit_rows ~smoke:_ =
  let benign_bytes = Dns.Packet.encode benign_msg in
  let x86 = Loader.Arch.X86 and arm = Loader.Arch.Arm in
  let payload cell ((arch, _, _) as target) =
    ns_per_op (on arch ("payload/" ^ cell)) (payload_bench target)
  in
  [
    ns_per_op "dns/encode" (fun () -> ignore (Dns.Packet.encode benign_msg));
    ns_per_op "dns/decode" (fun () -> ignore (Dns.Packet.decode benign_bytes));
    ns_per_op "dns/plan-labels-1k" (fun () ->
        ignore (Dns.Craft.plan_labels chain_spec));
    ns_per_op (on x86 "boot/connmand") (boot_bench x86);
    ns_per_op (on arm "boot/connmand") (boot_bench arm);
    ns_per_op (on x86 "gadget/scan") (gadget_bench x86);
    ns_per_op (on arm "gadget/scan") (gadget_bench arm);
    payload "E1-inject" (x86, Profile.none, Autogen.Code_injection);
    payload "E2-inject" (arm, Profile.none, Autogen.Code_injection);
    payload "E3-ret2libc" (x86, Profile.wx, Autogen.Ret2libc);
    payload "E4-ropwx" (arm, Profile.wx, Autogen.Rop_wx);
    payload "E5-ropaslr" (x86, Profile.wx_aslr, Autogen.Rop_aslr);
    payload "E6-ropaslr" (arm, Profile.wx_aslr, Autogen.Rop_aslr);
    ns_per_op "exploit/E5-end-to-end"
      (end_to_end_bench (x86, Profile.wx_aslr, Autogen.Rop_aslr));
    ns_per_op "exploit/E6-end-to-end"
      (end_to_end_bench (arm, Profile.wx_aslr, Autogen.Rop_aslr));
    ns_per_op (on arm "cpu/parse-dnsmasq") (dnsmasq_parse_bench arm);
    ns_per_op (on arm "exploit/tcpsvc-rop-aslr") (tcpsvc_exploit_bench arm);
    ns_per_op "scenario/pineapple" (pineapple_bench ());
  ]

(* ------------------------------------------------------------------ *)
(* cache: the DNS cache, BENCH_cache.json                              *)
(*                                                                     *)
(* Each row gets its own prefilled fixture, built before any row is    *)
(* measured: the rows mutate the cache they run against.               *)
(* ------------------------------------------------------------------ *)

let cache_name i = Printf.sprintf "host-%07d.bench.example" i

let prefilled_cache n =
  let names = Array.init n cache_name in
  let c = Dns.Cache.create ~capacity:n () in
  Array.iteri
    (fun i name -> Dns.Cache.insert c ~now:0 ~name ~ttl:1_000_000 ~ipv4:(i + 1))
    names;
  (c, names)

(* Steady-state store over an existing key (the replacement path). *)
let cache_insert_bench n =
  let c, names = prefilled_cache n in
  let k = ref 0 in
  fun () ->
    k := (!k + 1) mod Array.length names;
    Dns.Cache.insert c ~now:1 ~name:names.(!k) ~ttl:1_000_000 ~ipv4:7

let cache_lookup_bench n =
  let c, names = prefilled_cache n in
  let k = ref 0 in
  fun () ->
    k := (!k + 1) mod Array.length names;
    ignore (Dns.Cache.lookup c ~now:1 names.(!k))

(* Every insert lands on a full cache of live entries and must evict a
   victim: O(log n) against the cache's expiry heap. *)
let cache_evict_bench n =
  let c, _ = prefilled_cache n in
  let k = ref 0 in
  fun () ->
    incr k;
    Dns.Cache.insert c ~now:1
      ~name:(Printf.sprintf "fresh-%09d.bench.example" !k)
      ~ttl:1_000_000 ~ipv4:!k

(* High-churn episode on the Netsim event clock: bursts of mixed ops
   with short TTLs while simulated time advances, so expiry sweeps,
   evictions, replacements, and negative entries all fire. *)
let cache_churn_bench () =
  let episode = ref 0 in
  fun () ->
    incr episode;
    let sim = Netsim.Sim.create ~seed:!episode () in
    let c = Dns.Cache.create ~capacity:512 () in
    let rng = Netsim.Sim.rng sim in
    let remaining = ref 64 in
    let rec burst sim =
      let now = Netsim.Sim.now sim / 1_000_000 in
      for _ = 1 to 32 do
        let name = cache_name (Memsim.Rng.int rng 2048) in
        match Memsim.Rng.int rng 4 with
        | 0 ->
            Dns.Cache.insert c ~now ~name
              ~ttl:(1 + Memsim.Rng.int rng 8)
              ~ipv4:1
        | 1 ->
            Dns.Cache.insert_negative c ~now ~name
              ~ttl:(1 + Memsim.Rng.int rng 4)
        | _ -> ignore (Dns.Cache.lookup c ~now name)
      done;
      decr remaining;
      if !remaining > 0 then Netsim.Sim.schedule sim ~delay:500_000 burst
    in
    Netsim.Sim.schedule sim ~delay:0 burst;
    ignore (Netsim.Sim.run sim)

let cache_rows ~smoke:_ =
  [
    ns_per_op "cache/insert-1k" (cache_insert_bench 1_000);
    ns_per_op "cache/insert-100k" (cache_insert_bench 100_000);
    ns_per_op "cache/lookup-1k" (cache_lookup_bench 1_000);
    ns_per_op "cache/lookup-100k" (cache_lookup_bench 100_000);
    ns_per_op "cache/insert-at-capacity-1k" (cache_evict_bench 1_000);
    ns_per_op "cache/insert-at-capacity-100k" (cache_evict_bench 100_000);
    ns_per_op "cache/churn-sim" (cache_churn_bench ());
  ]

(* ------------------------------------------------------------------ *)
(* cpu: the interpreter, BENCH_cpu.json                                *)
(*                                                                     *)
(* Each workload is a counted loop of a few thousand instructions run  *)
(* to [Hlt] / [svc] on a private address space; the harness resets the *)
(* registers and flags between invocations so Bechamel measures the    *)
(* steady state.  Every workload is timed with the decoded-instruction *)
(* cache on and off on the same program bytes.  The self-modifying    *)
(* variants store into their own text page every iteration, so with   *)
(* the cache on they measure the generation-check/re-decode            *)
(* invalidation path rather than the hit path.  The hook rows give the *)
(* cost of each observer set, the DoS rows ns/step on the longest real *)
(* parse, plain and mitigated.  The steady state alone hides what a    *)
(* real parse pays, so the suite also times one benign connmand parse  *)
(* per ISA from every starting point a process has (cold boot,         *)
(* restored, fork, reimaged variant) against the uncached path.        *)
(* ------------------------------------------------------------------ *)

let x86_text_base = 0x0804_8000
let x86_stack_base = 0x0810_0000

(* Each runner is run once when it is built, which checks that the
   program halts: it returns the run and the instructions one run
   retires. *)
let no_hooks _ = []

let x86_runner ~hooks ~perm ~icache program =
  let mem = Mem.create () in
  let r = Isa_x86.Asm.assemble ~base:x86_text_base program in
  Mem.map mem ~base:x86_text_base ~size:Mem.page_size ~perm ~name:".text";
  Mem.poke_bytes mem x86_text_base r.Isa_x86.Asm.code;
  Mem.map mem ~base:x86_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu =
    Isa_x86.Cpu.create
      ~icache:(if icache then Some (Isa_x86.Cpu.new_icache ()) else None)
      mem
  in
  let kernel _ _ = Machine.Outcome.Resume in
  let run () =
    Array.fill cpu.Isa_x86.Cpu.regs 0 8 0;
    Isa_x86.Cpu.set cpu Isa_x86.Insn.ESP (x86_stack_base + 0x3000);
    cpu.Isa_x86.Cpu.eip <- x86_text_base;
    cpu.Isa_x86.Cpu.zf <- false;
    cpu.Isa_x86.Cpu.sf <- false;
    cpu.Isa_x86.Cpu.cf <- false;
    cpu.Isa_x86.Cpu.o_f <- false;
    cpu.Isa_x86.Cpu.steps <- 0;
    match
      Isa_x86.Cpu.run ~fuel:10_000_000 ~traps:[] ~kernel ~hooks:(hooks cpu) cpu
    with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith
          (Format.asprintf "cpu bench: %a" Machine.Outcome.pp other)
  in
  run ();
  (run, cpu.Isa_x86.Cpu.steps)

let arm_text_base = 0x0001_0000
let arm_stack_base = 0x0010_0000

let arm_runner ~hooks ~perm ~icache program =
  let mem = Mem.create () in
  let r = Isa_arm.Asm.assemble ~base:arm_text_base program in
  Mem.map mem ~base:arm_text_base ~size:Mem.page_size ~perm ~name:".text";
  Mem.poke_bytes mem arm_text_base r.Isa_arm.Asm.code;
  Mem.map mem ~base:arm_stack_base ~size:0x4000 ~perm:Mem.rw ~name:"stack";
  let cpu =
    Isa_arm.Cpu.create
      ~icache:(if icache then Some (Isa_arm.Cpu.new_icache ()) else None)
      mem
  in
  (* svc 0 is the resumable "syscall"; svc 1 halts the workload. *)
  let kernel n _ =
    if n = 0 then Machine.Outcome.Resume
    else Machine.Outcome.Stop Machine.Outcome.Halted
  in
  let run () =
    Array.fill cpu.Isa_arm.Cpu.regs 0 16 0;
    Isa_arm.Cpu.set cpu Isa_arm.Insn.SP (arm_stack_base + 0x3000);
    Isa_arm.Cpu.set_pc cpu arm_text_base;
    cpu.Isa_arm.Cpu.n <- false;
    cpu.Isa_arm.Cpu.z <- false;
    cpu.Isa_arm.Cpu.c <- false;
    cpu.Isa_arm.Cpu.v <- false;
    cpu.Isa_arm.Cpu.steps <- 0;
    match
      Isa_arm.Cpu.run ~fuel:10_000_000 ~traps:[] ~kernel ~hooks:(hooks cpu) cpu
    with
    | Machine.Outcome.Halted -> ()
    | other ->
        failwith
          (Format.asprintf "cpu bench: %a" Machine.Outcome.pp other)
  in
  run ();
  (run, cpu.Isa_arm.Cpu.steps)

(* --- x86 workload programs --- *)

let x86_straight iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [ I (Mov_ri (ECX, iters)); Label "loop" ]
  @ [
      I (Add_i (Reg EAX, 3));
      I (Add (Reg EBX, Reg EAX));
      I (Xor (Reg EDX, Reg EAX));
      I (Sub_i (Reg ESI, 1));
      I (Lea (EDI, { base = Some EAX; disp = 8 }));
      I (Or (Reg EBX, Reg EDX));
      I (And (Reg EDX, Reg EAX));
      I (Inc_r ESI);
      I (Mov (Reg EDX, Reg EBX));
      I (Shl_i (EAX, 1));
      I (Sub (Reg EDI, Reg EDX));
      I (Add_i (Reg EBX, 7));
      I (Xor (Reg ESI, Reg EBX));
      I (Not (Reg EDX));
      I (Neg (Reg EDI));
      I (Imul (EAX, Reg EBX));
    ]
  @ [ I (Dec_r ECX); Jcc (NE, "loop"); I Hlt ]

let x86_branchy iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Label "loop";
    I (Cmp_i (Reg ECX, iters / 2));
    Jcc (B, "low");
    I (Inc_r EAX);
    I (Inc_r EBX);
    Jmp "join";
    Label "low";
    I (Dec_r EBX);
    I (Inc_r ESI);
    Label "join";
    I (Xor (Reg EDX, Reg ECX));
    I (Test_rr (EDX, EDX));
    Jcc (S, "skip");
    I (Inc_r EDI);
    Label "skip";
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

let x86_syscall iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Label "loop";
    I (Mov_ri (EAX, 4));
    I (Int 0x80);
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

(* Stores 0x90909090 over its own four NOPs each iteration: every store
   bumps the text page's generation, so the cached decodes of the whole
   loop go stale once per iteration. *)
let x86_selfmod iters =
  let open Isa_x86.Insn in
  let open Isa_x86.Asm in
  [
    I (Mov_ri (ECX, iters));
    Mov_ri_sym (EDX, "patch");
    Label "loop";
    I (Mov_mi (Mem { base = Some EDX; disp = 0 }, 0x9090_9090));
    Label "patch";
    I Nop;
    I Nop;
    I Nop;
    I Nop;
    I (Dec_r ECX);
    Jcc (NE, "loop");
    I Hlt;
  ]

(* --- ARM workload programs --- *)

let arm_straight iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [ I (al (Mov (R2, Imm iters))); Label "loop" ]
  @ [
      I (al (Add (R0, R0, Imm 3)));
      I (al (Add (R1, R1, Reg R0)));
      I (al (Eor (R3, R3, Reg R0)));
      I (al (Sub (R4, R4, Imm 1)));
      I (al (Orr (R1, R1, Reg R3)));
      I (al (And (R3, R3, Reg R0)));
      I (al (Mov (R5, Lsl (R0, 1))));
      I (al (Mvn (R4, Reg R3)));
      I (al (Rsb (R5, R5, Reg R1)));
      I (al (Add (R1, R1, Imm 7)));
      I (al (Eor (R4, R4, Reg R1)));
      I (al (Bic (R3, R3, Imm 0xFF)));
      I (al (Mul (R5, R0, R1)));
      I (al (Sub (R0, R0, Reg R4)));
      I (al (Orr (R3, R3, Imm 1)));
      I (al (Add (R4, R4, Reg R5)));
    ]
  @ [
      I (al (Sub (R2, R2, Imm 1)));
      I (al (Cmp (R2, Imm 0)));
      B_sym (NE, "loop");
      I (al (Svc 1));
    ]

let arm_branchy iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    I (al (Mov (R6, Imm (iters / 2))));
    Label "loop";
    I (al (Cmp (R2, Reg R6)));
    B_sym (LT, "low");
    I (al (Add (R0, R0, Imm 1)));
    I (al (Add (R1, R1, Imm 2)));
    B_sym (AL, "join");
    Label "low";
    I (al (Sub (R1, R1, Imm 1)));
    I (al (Add (R3, R3, Imm 1)));
    Label "join";
    I (al (Eor (R4, R4, Reg R2)));
    I (al (Tst (R4, Imm 1)));
    B_sym (NE, "skip");
    I (al (Add (R5, R5, Imm 1)));
    Label "skip";
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
  ]

let arm_syscall iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    Label "loop";
    I (al (Mov (R7, Imm 4)));
    I (al (Svc 0));
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
  ]

let arm_selfmod iters =
  let open Isa_arm.Insn in
  let open Isa_arm.Asm in
  [
    I (al (Mov (R2, Imm iters)));
    Ldr_sym (R5, "lit_patch");
    Ldr_sym (R6, "lit_nop");
    Label "loop";
    I (al (Str (R6, R5, 0)));
    Label "patch";
    I (al (Mov (R0, Reg R0)));
    I (al (Add (R1, R1, Imm 1)));
    I (al (Sub (R2, R2, Imm 1)));
    I (al (Cmp (R2, Imm 0)));
    B_sym (NE, "loop");
    I (al (Svc 1));
    Label "lit_patch";
    Word_sym "patch";
    Label "lit_nop";
    Word 0xE1A0_0000 (* mov r0, r0 — the bytes already at "patch" *);
  ]

(* Each workload cached and uncached, and the uncached/cached ratio. *)
let cpu_workload_rows ~iters =
  let workload arch runner kind perm program =
    let name = on arch ("cpu/" ^ kind) in
    let timed tag icache =
      let run, steps = runner ~perm ~icache program in
      row (name ^ "/" ^ tag) "ns_per_run" (Ols run) ~extras:(steps_extras steps)
    in
    [
      timed "cached" true;
      timed "uncached" false;
      row (name ^ "/speedup") "ratio" (Ratio (name ^ "/uncached", name ^ "/cached"));
    ]
  in
  let x86 = workload Loader.Arch.X86 (x86_runner ~hooks:no_hooks)
  and arm = workload Loader.Arch.Arm (arm_runner ~hooks:no_hooks) in
  List.concat
    [
      x86 "straight" Mem.rx (x86_straight iters);
      x86 "branchy" Mem.rx (x86_branchy iters);
      x86 "syscall" Mem.rx (x86_syscall iters);
      x86 "selfmod" Mem.rwx (x86_selfmod iters);
      arm "straight" Mem.rx (arm_straight iters);
      arm "branchy" Mem.rx (arm_branchy iters);
      arm "syscall" Mem.rx (arm_syscall iters);
      arm "selfmod" Mem.rwx (arm_selfmod iters);
    ]

(* The hook sets of the per-hook overhead rows, each a per-run builder
   (the trace and enforcement hooks carry per-run state).  The policy
   set of forward-edge CFI is the text base; the workloads make no
   indirect transfer, so it only pays for classifying each step.  The
   sanitizer arms its oracle per run, as the daemon does per datagram. *)
let hook_sets isa ~taint ~text_base =
  let module H = Machine.Hook in
  let profile = Telemetry.Profile.create () in
  let trace = Telemetry.Trace.create ~capacity:4096 () in
  let oracle = Sanitizer.Oracle.create () in
  let prof _ = H.profile isa profile in
  let tr cpu = H.trace isa trace cpu in
  let san _ =
    Sanitizer.Oracle.begin_parse oracle;
    taint oracle
  in
  let enf _ =
    H.enforce isa ~shadow_stack:true ~forward_cfi:true
      ~valid_target:(fun a -> a = text_base)
      ~shadow0:[]
  in
  [
    ("profile", fun c -> [ prof c ]);
    ("trace", fun c -> [ tr c ]);
    ("sanitizer", fun c -> [ san c ]);
    ("shstk+fcfi", fun c -> [ enf c ]);
    ("all", fun c -> [ prof c; tr c; san c; enf c ]);
  ]

(* The straight-line workload of each ISA under every hook set, and the
   branchy one under the sanitizer, each against the workload's bare run:
   its [cached] row. *)
let hook_rows ~iters =
  let rows arch runner sets kind program =
    let workload = on arch kind in
    List.map
      (fun (set, hooks) ->
        let run, steps = runner ~hooks ~perm:Mem.rx ~icache:true program in
        row
          (Printf.sprintf "cpu/hooks/%s/%s" workload set)
          "ns_per_run" (Ols run)
          ~extras:
            (steps_extras steps
            @ [ ("overhead", over (Printf.sprintf "cpu/%s/cached" workload)) ]))
      sets
  in
  let sanitizer sets = List.filter (fun (set, _) -> set = "sanitizer") sets in
  let x86 = hook_sets Isa_x86.Cpu.isa ~taint:Isa_x86.Cpu.taint ~text_base:x86_text_base
  and arm = hook_sets Isa_arm.Cpu.isa ~taint:Isa_arm.Cpu.taint ~text_base:arm_text_base in
  List.concat
    [
      rows Loader.Arch.X86 x86_runner x86 "straight" (x86_straight iters);
      rows Loader.Arch.X86 x86_runner (sanitizer x86) "branchy" (x86_branchy iters);
      rows Loader.Arch.Arm arm_runner arm "straight" (arm_straight iters);
      rows Loader.Arch.Arm arm_runner (sanitizer arm) "branchy" (arm_branchy iters);
    ]

(* The 8192-byte DoS parse, the interpreter's longest real run (about
   47k steps), on a warmed template per ISA: [plain] under W^X, and
   [mitigated] with the shadow stack and forward CFI enforced as well.
   Each run restores the boot snapshot, writes the datagram and calls
   [parse_response]; the row is the time per retired instruction. *)
let dos_parse_rows () =
  List.concat_map
    (fun arch ->
      List.map
        (fun (tag, profile) ->
          let d = Dnsproxy.create (mk_config arch profile 9) in
          let wire =
            Dns.Craft.hostile_response
              ~query:(Dnsproxy.make_query d lookup)
              ~raw_name:(Dns.Craft.dos_name ~size:8192) ()
          in
          let proc = Dnsproxy.process d in
          let snap = Loader.Process.snapshot proc in
          let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
          let entry = Loader.Process.symbol proc "parse_response" in
          let parse () =
            Loader.Process.restore proc snap;
            Mem.write_bytes proc.Loader.Process.mem buf wire;
            Loader.Process.call proc ~fuel:400_000 ~entry
              ~args:[ buf; String.length wire ]
          in
          let steps = (parse ()).Loader.Process.steps in
          row
            (Printf.sprintf "cpu/dos-parse-%s/%s" (Loader.Arch.name arch) tag)
            "ns_per_step"
            (Ols_per_step (steps, fun () -> ignore (parse ())))
            ~extras:[ ("steps_per_run", const (float_of_int steps)) ])
        [ ("plain", Profile.wx); ("mitigated", Profile.with_mitigations Profile.wx) ])
    Loader.Arch.all

(* A benign parse from each starting point a process can run from, per
   ISA: [cold] (a fresh boot: every instruction compiles), [warm] (the
   same process after a restore: every instruction hits), [after-fork]
   (a fork of a warmed template: the family's entries hit) and
   [after-reimage] (a diversified variant forked from the template: its
   text is its own, so it compiles from empty), against the [uncached]
   reference.  Each comes as its setup (untimed) and the timed part:
   the datagram write plus the call.  A starting point slower than
   [uncached] is an end-to-end loss that no straight-line row shows.
   [minor_words_per_run] is what a run allocates on the minor heap: a
   cold start's decodes, compiles and block builds, a warm one's
   datagram and call. *)
let parse_start_rows ~samples arch =
  let aname = Loader.Arch.name arch in
  let profile = Profile.wx in
  let boot () = Loader.Process.boot (connman_spec arch profile) ~profile ~seed:1 in
  let input = List.hd (Fuzz.Engine.benign_seeds ()) in
  let parse ~icache proc =
    let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
    Mem.write_bytes proc.Loader.Process.mem buf input;
    Loader.Process.call proc ~icache ~fuel:400_000
      ~entry:(Loader.Process.symbol proc "parse_response")
      ~args:[ buf; String.length input ]
  in
  let template = boot () in
  let snap = Loader.Process.snapshot template in
  let steps =
    match parse ~icache:true template with
    | { Loader.Process.outcome = Machine.Outcome.Halted; steps; _ } -> steps
    | r ->
        failwith
          ("cpu bench: benign parse failed: "
          ^ Machine.Outcome.to_string r.Loader.Process.outcome)
  in
  let restored () =
    Loader.Process.restore template snap;
    template
  in
  let seed = ref 0 in
  let rec variant () =
    incr seed;
    match
      Loader.Process.reimage
        (Loader.Process.fork template snap)
        (connman_spec ~diversity_seed:!seed arch profile)
    with
    | Some p -> p
    | None -> variant ()
  in
  let name start = Printf.sprintf "cpu/parse-%s/%s" aname start in
  List.map
    (fun (start, icache, setup) ->
      let run p = ignore (parse ~icache p) in
      row (name start) "ns_per_run" (fresh ~samples setup run)
        ~extras:
          [
            ("steps_per_run", const (float_of_int steps));
            ("speedup_vs_uncached", vs (name "uncached"));
            ("samples", const (float_of_int samples));
            ("minor_words_per_run", fun _ -> minor_words_fresh setup run);
          ])
    [
      ("cold", true, boot);
      ("warm", true, restored);
      ("after-fork", true, fun () -> Loader.Process.fork template snap);
      ("after-reimage", true, variant);
      ("uncached", false, restored);
    ]

(* Decoding in place: every distinct pc a benign parse retires, in the
   order it first retires them, decoded (fetch-checked) in the booted
   process's memory; the row is the time per instruction. *)
let decode_row arch =
  let profile = Profile.wx in
  let proc = Loader.Process.boot (connman_spec arch profile) ~profile ~seed:1 in
  let input = List.hd (Fuzz.Engine.benign_seeds ()) in
  let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
  let seen = Hashtbl.create 512 and pcs = ref [] in
  let record pc =
    if not (Hashtbl.mem seen pc) then begin
      Hashtbl.add seen pc ();
      pcs := pc :: !pcs
    end
  in
  let snap = Loader.Process.snapshot proc in
  Mem.write_bytes proc.Loader.Process.mem buf input;
  ignore
    (Loader.Process.call proc ~icache:false ~on_step:(Machine.Hook.observer record) ~fuel:400_000
       ~entry:(Loader.Process.symbol proc "parse_response")
       ~args:[ buf; String.length input ]);
  Loader.Process.restore proc snap;
  let pcs = Array.of_list (List.rev !pcs) and mem = proc.Loader.Process.mem in
  let decode =
    match arch with
    | Loader.Arch.X86 -> fun pc -> ignore (Sys.opaque_identity (Isa_x86.Decode.decode mem pc))
    | Loader.Arch.Arm -> fun pc -> ignore (Sys.opaque_identity (Isa_arm.Decode.decode mem pc))
  in
  row (on arch "cpu/decode") "ns_per_insn"
    (Ols_per_step (Array.length pcs, fun () -> Array.iter decode pcs))
    ~extras:[ ("insns", const (float_of_int (Array.length pcs))) ]

let cpu_rows ~smoke =
  let iters = iters ~smoke in
  cpu_workload_rows ~iters @ hook_rows ~iters @ dos_parse_rows ()
  @ List.concat_map (parse_start_rows ~samples:(samples ~smoke)) Loader.Arch.all
  @ List.map decode_row Loader.Arch.all

(* ------------------------------------------------------------------ *)
(* faults: fault-injection paths, BENCH_faults.json                    *)
(*                                                                     *)
(* What a datagram costs to deliver: a clean link (policy resolution + *)
(* the default latency draw — the hot path every simulated packet now  *)
(* crosses), the same link with every impairment enabled, a 32-host    *)
(* broadcast domain, and a 16-LAN uplink chain exercising the unicast  *)
(* route search.  Worlds are reused across invocations (the event heap *)
(* drains each run), so the estimate is the send+run steady state.     *)
(* ------------------------------------------------------------------ *)

module WF = Netsim.World
module Faults = Netsim.Faults

let fault_impaired_policy =
  {
    Faults.default with
    Faults.drop = 0.1;
    duplicate = 0.15;
    corrupt = 0.15;
    reorder = 0.3;
    reorder_window_us = 2_000;
    latency = Faults.Jitter { base = 500; jitter = 400 };
  }

let faults_two_host_bench ?policy () =
  let w = WF.create ~seed:7 () in
  let lan = WF.add_lan w ~name:"lan" in
  (match policy with Some p -> WF.set_lan_policy w lan p | None -> ());
  let a = WF.add_host w ~name:"a" in
  WF.set_host_ip a (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach a lan;
  let b = WF.add_host w ~name:"b" in
  let dst = Netsim.Ip.of_string "10.0.0.2" in
  WF.set_host_ip b (Some dst);
  WF.attach b lan;
  WF.on_udp b ~port:9 (fun _ _ -> ());
  fun () ->
    for _ = 1 to 64 do
      WF.send w ~from:a ~dst ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let faults_broadcast_bench ~hosts () =
  let w = WF.create ~seed:7 () in
  let lan = WF.add_lan w ~name:"lan" in
  let sender = WF.add_host w ~name:"sender" in
  WF.set_host_ip sender (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach sender lan;
  for i = 2 to hosts do
    let h = WF.add_host w ~name:(Printf.sprintf "h%d" i) in
    WF.set_host_ip h (Some (Netsim.Ip.of_string (Printf.sprintf "10.0.0.%d" i)));
    WF.attach h lan;
    WF.on_udp h ~port:9 (fun _ _ -> ())
  done;
  fun () ->
    for _ = 1 to 8 do
      WF.send w ~from:sender ~dst:Netsim.Ip.broadcast ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let faults_route_chain_bench ~lans () =
  let w = WF.create ~seed:7 () in
  let chain =
    Array.init lans (fun i -> WF.add_lan w ~name:(Printf.sprintf "lan%d" i))
  in
  for i = 0 to lans - 2 do
    WF.set_uplink chain.(i) (Some chain.(i + 1))
  done;
  let src = WF.add_host w ~name:"src" in
  WF.set_host_ip src (Some (Netsim.Ip.of_string "10.0.0.1"));
  WF.attach src chain.(0);
  let dst_host = WF.add_host w ~name:"dst" in
  let dst = Netsim.Ip.of_string "10.0.255.1" in
  WF.set_host_ip dst_host (Some dst);
  WF.attach dst_host chain.(lans - 1);
  WF.on_udp dst_host ~port:9 (fun _ _ -> ());
  fun () ->
    for _ = 1 to 64 do
      WF.send w ~from:src ~dst ~dport:9 "bench payload"
    done;
    ignore (WF.run w)

let faults_rows ~smoke:_ =
  [
    ns_per_op "faults/unicast-clean-64" (faults_two_host_bench ());
    ns_per_op "faults/unicast-impaired-64"
      (faults_two_host_bench ~policy:fault_impaired_policy ());
    ns_per_op "faults/broadcast-32-hosts" (faults_broadcast_bench ~hosts:32 ());
    ns_per_op "faults/route-chain-16-lans" (faults_route_chain_bench ~lans:16 ());
  ]

(* ------------------------------------------------------------------ *)
(* fuzz: snapshot fuzzing, BENCH_fuzz.json                             *)
(*                                                                     *)
(* The costs that set the fuzzer's throughput: taking a CoW snapshot,  *)
(* restoring it (clean, and after one parse, timed apart from the      *)
(* parse), forking a fresh machine from it, a complete fuzz execution  *)
(* (restore + datagram write + parse with the edge map on [on_step]    *)
(* as [Fuzz.Engine] attaches it, so its copy loops summarise; one call *)
(* per input in turn, mutations of the benign seeds drawn as the       *)
(* engine draws them),                                                 *)
(* and the sanitizer triage of a fixed crash input, stopped at its     *)
(* first report as the engine runs it and run to the end.              *)
(* ------------------------------------------------------------------ *)

let fuzz_arch_rows ~samples arch =
  let aname = Loader.Arch.name arch in
  let profile = Profile.wx in
  let proc = Loader.Process.boot (connman_spec arch profile) ~profile ~seed:1 in
  let snap = Loader.Process.snapshot proc in
  let entry = Loader.Process.symbol proc "parse_response" in
  let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
  let seeds = Array.of_list (Fuzz.Engine.benign_seeds ()) in
  let cov = Fuzz.Coverage.create () in
  let on_step = Fuzz.Coverage.observer cov in
  let parse input =
    Mem.write_bytes proc.Loader.Process.mem buf input;
    Fuzz.Coverage.begin_exec cov;
    let r =
      Loader.Process.call proc ~fuel:400_000 ~on_step ~entry
        ~args:[ buf; String.length input ]
    in
    ignore (Fuzz.Coverage.commit cov);
    r
  in
  (* Every benign seed must parse for the numbers to mean anything. *)
  Array.iter
    (fun input ->
      Loader.Process.restore proc snap;
      let r = parse input in
      if r.Loader.Process.outcome <> Machine.Outcome.Halted then
        failwith
          ("fuzz bench: benign parse failed: "
          ^ Machine.Outcome.to_string r.Loader.Process.outcome))
    seeds;
  (* The inputs an exec runs, drawn as [Fuzz.Engine] draws them with a
     fixed seed: mutations of a corpus that starts as the benign seeds
     and keeps each input that parses and covers a new edge.  Their
     counts come from a second, warm run of each, with a folding
     observer beside the edge map that counts the steps its copy loops
     summarise. *)
  let inputs =
    let rng = Memsim.Rng.create 1 in
    let corpus = ref seeds in
    let pick () = !corpus.(Memsim.Rng.int rng (Array.length !corpus)) in
    let max_len = min 2048 proc.Loader.Process.layout.Loader.Layout.heap_size in
    Array.init 1000 (fun _ ->
        let input = Fuzz.Mutator.mutate rng ~max_len ~pick_other:pick (pick ()) in
        Loader.Process.restore proc snap;
        Mem.write_bytes proc.Loader.Process.mem buf input;
        Fuzz.Coverage.begin_exec cov;
        let r =
          Loader.Process.call proc ~fuel:400_000 ~on_step ~entry
            ~args:[ buf; String.length input ]
        in
        if Fuzz.Coverage.commit cov > 0 && r.Loader.Process.outcome = Machine.Outcome.Halted then
          corpus := Array.append !corpus [| input |];
        input)
  in
  let summarised_steps = ref 0 in
  let counted =
    Array.map
      (fun input ->
        let run on_step =
          Loader.Process.restore proc snap;
          Mem.write_bytes proc.Loader.Process.mem buf input;
          Fuzz.Coverage.begin_exec cov;
          Loader.Process.call proc ~fuel:400_000 ~on_step ~entry
            ~args:[ buf; String.length input ]
        in
        ignore (run on_step);
        let summarised = ref 0 in
        let counting =
          Machine.Hook.observer
            ~fold:(fun pcs k ->
              Option.iter (fun f -> f pcs k) on_step.Machine.Hook.fold;
              summarised := !summarised + (Array.length pcs * k))
            on_step.Machine.Hook.see
        in
        let r = run counting in
        summarised_steps := !summarised_steps + !summarised;
        r)
      inputs
  in
  Loader.Process.restore proc snap;
  let mean_of count =
    float_of_int (Array.fold_left (fun n r -> n + count r) 0 counted)
    /. float_of_int (Array.length counted)
  in
  let next_input = ref 0 in
  (* Triage as the engine does it: restore, write the crash input, arm
     a fresh oracle, run sanitized; [halt] stops at the first report. *)
  let crash = Fuzz.Engine.string_of_hex (snd (List.hd Fuzz.Corpus.entries)) in
  let triage ~halt () =
    Loader.Process.restore proc snap;
    Mem.write_bytes proc.Loader.Process.mem buf crash;
    let oracle = Sanitizer.Oracle.create ~halt_on_report:halt () in
    let len = String.length crash in
    Sanitizer.Oracle.arm oracle ~origin:"fuzz" ~rx:buf ~len
      ~buffer:(Connman.Frame.buffer_addr proc)
      (Connman.Frame.geometry arch);
    Loader.Process.call proc ~fuel:400_000 ~sanitizer:oracle ~entry
      ~args:[ buf; len ]
  in
  let triage_name halt =
    Printf.sprintf "fuzz/triage-%s/%s" aname (if halt then "halting" else "full")
  in
  (* The untimed first run checks that the input still crashes and
     counts its steps. *)
  let triage_row halt =
    let name = triage_name halt in
    let r = triage ~halt () in
    if r.Loader.Process.outcome = Machine.Outcome.Halted then
      failwith ("fuzz bench: crash input parsed cleanly: " ^ name);
    row name "ns_per_run"
      (Ols (fun () -> ignore (triage ~halt ())))
      ~extras:
        [
          ("steps_per_run", const (float_of_int r.Loader.Process.steps));
          ("vs_full", vs (triage_name false));
        ]
  in
  let triage_rows = [ triage_row false; triage_row true ] in
  Loader.Process.restore proc snap;
  let name op = Printf.sprintf "fuzz/%s-%s" op aname in
  [
    (* One byte written first, so every call builds a snapshot: an
       unchanged memory hands back its standing snapshot in O(1).  The
       write's copy of the one page it unshares is part of the time. *)
    row (name "snapshot") "ns_per_op"
      (Ols
         (fun () ->
           Mem.write_u8 proc.Loader.Process.mem buf 0;
           ignore (Loader.Process.snapshot proc)));
    (* Steady-state restore: nothing dirtied between iterations. *)
    row (name "restore-clean") "ns_per_op"
      (Ols (fun () -> Loader.Process.restore proc snap));
    (* Restore after one benign parse, the parse untimed: the rewind of
       the pages a fuzz execution dirtied. *)
    row (name "restore-dirty") "ns_per_op"
      (fresh ~samples (fun () -> ignore (parse seeds.(0))) (fun () ->
           Loader.Process.restore proc snap));
    (* Every iteration restores then parses the next mutated input
       (dirtying stack/heap/bss pages), i.e. one full fuzz execution;
       the counts are the inputs' means, and the share is of the steps
       that ran summarised. *)
    row (name "exec") "ns_per_run"
      (Ols
         (fun () ->
           let input = inputs.(!next_input) in
           next_input := (!next_input + 1) mod Array.length inputs;
           Loader.Process.restore proc snap;
           ignore (parse input)))
      ~extras:
        [
          ("execs_per_sec", per_sec);
          ("steps_per_run", const (mean_of (fun r -> r.Loader.Process.steps)));
          ( "summarised_per_run",
            const (mean_of (fun r -> r.Loader.Process.icache_summarised)) );
          ( "summarised_share",
            const
              (ratio (float_of_int !summarised_steps)
                 (float_of_int (Array.fold_left (fun n r -> n + r.Loader.Process.steps) 0 counted)))
          );
        ];
    row (name "fork") "ns_per_op"
      (Ols (fun () -> ignore (Loader.Process.fork proc snap)));
  ]
  @ triage_rows

let fuzz_rows ~smoke =
  List.concat_map (fuzz_arch_rows ~samples:(samples ~smoke)) Loader.Arch.all

(* ------------------------------------------------------------------ *)
(* wire: the DNS codec, BENCH_wire.json                                *)
(*                                                                     *)
(* Old (Dns.Legacy: String.sub walker, Buffer/Hashtbl encoder) vs the  *)
(* zero-copy codec (reused Dns.Wire view + arena) on the two host-side *)
(* hot paths: parsing a benign response down to its A records, and     *)
(* answering a query (parse + build + encode).                         *)
(* ------------------------------------------------------------------ *)

let wire_rows ~smoke:_ =
  let open Dns in
  let name = Name.of_string in
  let query = Packet.query ~id:0x1A2B (name "www.example.com") Packet.A in
  let response =
    Packet.response ~query
      [
        Packet.cname_record (name "www.example.com") ~ttl:600
          ~target:(name "web.example.com");
        Packet.a_record (name "web.example.com") ~ttl:300 ~ipv4:0x5DB8D822;
        Packet.a_record (name "web.example.com") ~ttl:300 ~ipv4:0x5DB8D823;
      ]
  in
  let response_wire = Packet.encode response in
  let query_wire = Packet.encode query in
  (* Parse path: validate a response and extract its A records, as the
     daemons' cache-update paths do. *)
  let legacy_parse () =
    match Legacy.decode response_wire with
    | Error _ -> 0
    | Ok p ->
        List.fold_left
          (fun acc (rr : Packet.rr) ->
            match (rr.Packet.rtype, Packet.ipv4_of_rdata rr.Packet.rdata) with
            | Packet.A, Some ip -> acc + ip
            | _ -> acc)
          0 p.Packet.answers
  in
  let view = Wire.create_view () in
  let zc_parse () =
    match Wire.parse view response_wire with
    | Error _ -> 0
    | Ok () ->
        let acc = ref 0 in
        for i = 0 to Wire.ancount view - 1 do
          if Wire.rr_rtype view i = 1 && Wire.rr_rdlen view i = 4 then
            acc := !acc + Wire.get_u32 response_wire (Wire.rr_rdata view i)
        done;
        !acc
  in
  assert (legacy_parse () = zc_parse ());
  (* Respond path: decode a query, build the answer, encode it — the
     resolver's per-datagram work. *)
  let answer = [ Packet.a_record (name "www.example.com") ~ttl:300 ~ipv4:42 ] in
  let legacy_respond () =
    match Legacy.decode query_wire with
    | Error _ -> 0
    | Ok q -> String.length (Legacy.encode (Packet.response ~query:q answer))
  in
  let arena = Wire.arena ~capacity:256 () in
  let qview = Wire.create_view () in
  (* The zero-copy responder never materializes a [Packet.t]: it echoes
     the question bytes straight from the query wire and appends the
     answer RR with a hand-written compression pointer to the question
     name — the same bytes [Packet.response]/[Legacy.encode] produce,
     asserted below. *)
  let zc_respond () =
    match Wire.parse qview query_wire with
    | Error _ -> 0
    | Ok () -> (
        let qname_off = Wire.question_name qview 0 in
        match Wire.skip_name query_wire qname_off with
        | Error _ -> 0
        | Ok used ->
            Wire.reset arena;
            Wire.add_u16 arena (Wire.id qview);
            (* qr=1, ra=1; aa and rcode cleared — as Packet.response. *)
            Wire.add_u16 arena ((Wire.flags qview lor 0x8080) land 0xFBF0);
            Wire.add_u16 arena 1 (* qdcount *);
            Wire.add_u16 arena 1 (* ancount *);
            Wire.add_u16 arena 0;
            Wire.add_u16 arena 0;
            Wire.add_substring arena query_wire qname_off (used + 4);
            Wire.add_u16 arena 0xC00C (* name: pointer to the question *);
            Wire.add_u16 arena 1 (* type A *);
            Wire.add_u16 arena 1 (* class IN *);
            Wire.add_u32 arena 300;
            Wire.add_u16 arena 4;
            Wire.add_u32 arena 42;
            Wire.length arena)
  in
  (* Byte-for-byte parity with the legacy respond path, not just length. *)
  (match Legacy.decode query_wire with
  | Error _ -> assert false
  | Ok q ->
      let legacy_bytes = Legacy.encode (Packet.response ~query:q answer) in
      ignore (zc_respond ());
      assert (String.equal legacy_bytes (Wire.contents arena)));
  assert (legacy_respond () = zc_respond ());
  let pair tag legacy zc =
    let legacy () = ignore (legacy ()) and zc () = ignore (zc ()) in
    let timed kind f =
      row ("wire/" ^ tag ^ kind) "ns_per_op" (Ols f)
        ~extras:[ ("alloc_bytes_per_op", fun _ -> alloc_per_op f) ]
    in
    [
      timed "-legacy" legacy;
      timed "-zero-copy" zc;
      row ("wire/" ^ tag ^ "-speedup") "ratio"
        (Ratio ("wire/" ^ tag ^ "-legacy", "wire/" ^ tag ^ "-zero-copy"))
        (* Allocation is deterministic: measured again, it is the two
           rows' values. *)
        ~extras:[ ("alloc_ratio", fun _ -> ratio (alloc_per_op legacy) (alloc_per_op zc)) ];
    ]
  in
  pair "parse" legacy_parse zc_parse @ pair "respond" legacy_respond zc_respond

(* ------------------------------------------------------------------ *)
(* fleet: campaign scale, BENCH_fleet.json                             *)
(*                                                                     *)
(* End-to-end scheduler throughput: events per second of a whole       *)
(* campaign (benign + attack traffic, supervision, rollout), one       *)
(* monotonic-clock run (a campaign is far too heavy for an OLS sweep). *)
(* The flight recorder's cost is the same campaign again with the      *)
(* monitor attached (1s scrape barrier, the built-in rule set, causal  *)
(* journaling).  The event count is the same both ways — the barrier   *)
(* only segments the run loop — so the overhead ratio is pure scrape + *)
(* journal cost; one pair of runs varies by about ±0.1 on a shared     *)
(* host, so it is the median of five alternating pairs, with their     *)
(* spread.  A device spawn is [diversity/fork-plain-*].                *)
(* ------------------------------------------------------------------ *)

let fleet_rows ~smoke =
  let ccfg =
    if smoke then Fleet.Campaign.smoke_config
    else
      { Fleet.Campaign.default_config with Fleet.Campaign.devices = 240; lans = 8 }
  in
  let run ?monitor () =
    let monitor = Option.map (fun make -> make ()) monitor in
    (Fleet.Campaign.run ?monitor ccfg).Fleet.Campaign.r_events
  in
  let campaign name ?monitor () =
    row name "events_per_sec" (Once (run ?monitor))
      ~extras:[ ("devices", const (float_of_int ccfg.Fleet.Campaign.devices)) ]
  in
  let monitor () =
    let mon = Telemetry.Monitor.create (Telemetry.Metrics.create ()) in
    (match Telemetry.Monitor.add_rules mon Fleet.Campaign.default_rules with
    | Ok _ -> ()
    | Error e -> failwith ("fleet bench: bad built-in rules: " ^ e));
    mon
  in
  (* One untimed campaign first: the first in a process pays the heap's
     growth and would make whichever timed run comes first look slower. *)
  ignore (Fleet.Campaign.run ccfg);
  let bare = "fleet/campaign" and monitored = "fleet/campaign-monitored" in
  [
    campaign bare ();
    campaign monitored ~monitor ();
    row "fleet/monitor-overhead" "ratio"
      (Paired { pairs = 5; first = run; second = run ~monitor })
      ~extras:[ ("bare_events_per_sec", fun c -> c.get bare) ];
  ]

(* ------------------------------------------------------------------ *)
(* diversity: per-boot diversification, BENCH_diversity.json           *)
(*                                                                     *)
(* Variant generation (seeded layout shuffle + padding + gadget-       *)
(* breaking rewrites over the whole image, a fresh seed each call),    *)
(* diversified CoW fork (fork + in-place reimage) vs a plain fork, and *)
(* a benign parse through the mitigated interpreter (shadow return     *)
(* stack + forward-edge CFI) and through the taint sanitizer (every    *)
(* response byte tainted, zero reports: pure overhead) vs the plain    *)
(* hot loop; and a fresh variant's first benign parse (its fork        *)
(* untimed) vs the plain hot loop.  The template never runs its stock  *)
(* text, as in perfbench's exploit_cells; the variant decodes its own  *)
(* text and finds the rest in the template family's entries.           *)
(* ------------------------------------------------------------------ *)

let diversity_arch_rows ~samples arch =
  let aname = Loader.Arch.name arch in
  let seed = ref 0 in
  let plan () =
    incr seed;
    match arch with
    | Loader.Arch.X86 ->
        ignore
          (Connman.Program_x86.variant_plan ~version:Connman.Version.v1_34
             ~profile:Profile.wx ~seed:!seed)
    | Loader.Arch.Arm ->
        ignore
          (Connman.Program_arm.variant_plan ~version:Connman.Version.v1_34
             ~profile:Profile.wx ~seed:!seed)
  in
  let tpl = Dnsproxy.create (mk_config arch Profile.wx 1) in
  let dseed = ref 0 in
  let parse ?(sanitize = false) profile =
    let d = Dnsproxy.create (mk_config arch profile 9) in
    if sanitize then Dnsproxy.set_sanitizer d (Some (Sanitizer.Oracle.create ()));
    fun () -> ignore (Dnsproxy.handle_response d (benign_wire d))
  in
  let name what = Printf.sprintf "diversity/%s-%s" what aname in
  [
    row (name "variant-gen") "ns_per_op" (Ols plan)
      ~extras:[ ("variants_per_sec", per_sec) ];
    row (name "fork-plain") "ns_per_op" (Ols (fun () -> ignore (Dnsproxy.fork tpl)));
    row (name "fork-div") "ns_per_op"
      (Ols
         (fun () ->
           incr dseed;
           ignore (Dnsproxy.fork_diversified tpl ~diversity_seed:!dseed)))
      ~extras:[ ("devices_per_sec", per_sec) ];
    row (name "fork" ^ "/overhead") "ratio" (Ratio (name "fork-div", name "fork-plain"));
    row (name "parse-plain") "ns_per_run" (Ols (parse Profile.wx));
    row (name "parse-mitigated") "ns_per_run"
      (Ols (parse (Profile.with_mitigations Profile.wx)));
    row (name "parse" ^ "/overhead") "ratio"
      (Ratio (name "parse-mitigated", name "parse-plain"));
    row (name "parse-sanitized") "ns_per_run"
      (Ols (parse ~sanitize:true Profile.wx))
      ~extras:[ ("overhead", over (name "parse-plain")) ];
    row (name "first-parse-div") "ns_per_run"
      (fresh ~samples
         (fun () ->
           incr dseed;
           Dnsproxy.fork_diversified tpl ~diversity_seed:!dseed)
         (fun d -> ignore (Dnsproxy.handle_response d (benign_wire d))))
      ~extras:[ ("samples", const (float_of_int samples)) ];
    row (name "first-parse" ^ "/overhead") "ratio"
      (Ratio (name "first-parse-div", name "parse-plain"));
  ]

let diversity_rows ~smoke =
  List.concat_map (diversity_arch_rows ~samples:(samples ~smoke)) Loader.Arch.all

(* ------------------------------------------------------------------ *)
(* The suites, in the order [all] runs them                            *)
(* ------------------------------------------------------------------ *)

let suites =
  let suite ?(meta = no_meta) suite smoke_cfg full_cfg rows =
    { suite; file = "BENCH_" ^ suite ^ ".json"; smoke_cfg; full_cfg; meta; rows }
  in
  [
    suite "cache" (50, 0.01) (2000, 2.0) cache_rows;
    suite "cpu" (20, 0.02) (500, 1.0) cpu_rows ~meta:iters_meta;
    suite "faults" (50, 0.01) (2000, 0.25) faults_rows;
    suite "fuzz" (20, 0.02) (500, 0.5) fuzz_rows;
    suite "wire" (20, 0.02) (500, 0.5) wire_rows;
    suite "fleet" (20, 0.02) (200, 0.5) fleet_rows;
    suite "diversity" (20, 0.02) (1000, 1.0) diversity_rows;
    suite "exploit" (50, 0.01) (2000, 0.25) exploit_rows;
  ]

(* ------------------------------------------------------------------ *)
(* Bench regression gate: compare two bench-suite-v1 files             *)
(*                                                                     *)
(*   dune exec bench/main.exe -- regress --base OLD.json \              *)
(*     --new NEW.json [--tolerance 10]                                 *)
(*   dune build @bench-regress-smoke                                   *)
(*                                                                     *)
(* Rows are matched by name; the comparison is direction-aware by       *)
(* unit (ns_* smaller-better, events_per_sec larger-better, ratios     *)
(* larger-better except .../overhead rows).  Any row whose regression  *)
(* exceeds the tolerance, changes unit or is missing from the new run  *)
(* fails the run (exit 1): deleting a row must not take it out of the  *)
(* gate.                                                               *)
(* ------------------------------------------------------------------ *)

(* [`Smaller]: a smaller value is better (times, overheads). *)
let regress_direction ~unit_ ~name =
  match unit_ with
  | "ns_per_op" | "ns_per_run" | "ns_per_step" -> `Smaller
  | "events_per_sec" -> `Larger
  | "ratio" ->
      if
        String.length name >= 8
        && String.sub name (String.length name - 8) 8 = "overhead"
      then `Smaller
      else `Larger
  | _ -> `Larger

let run_regress ~base ~next ~tolerance () =
  let module J = Telemetry.Json in
  let load path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    match J.parse text with
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | Ok v -> v
  in
  let rows path v =
    match
      ( Option.bind (J.member "schema" v) J.to_string,
        Option.bind (J.member "results" v) J.to_list )
    with
    | Some "bench-suite-v1", Some rs ->
        List.filter_map
          (fun r ->
            match
              ( Option.bind (J.member "name" r) J.to_string,
                Option.bind (J.member "unit" r) J.to_string,
                Option.bind (J.member "value" r) J.to_float )
            with
            | Some n, Some u, Some value -> Some (n, (u, value))
            | _ -> None)
          rs
    | Some "bench-suite-v1", None ->
        failwith (path ^ ": missing \"results\" array")
    | Some other, _ ->
        failwith (Printf.sprintf "%s: schema %S is not bench-suite-v1" path other)
    | None, _ -> failwith (path ^ ": missing \"schema\"")
  in
  let base_rows = rows base (load base) in
  let next_rows = rows next (load next) in
  Format.printf "=== Bench regression gate (tolerance %.1f%%) ===@.@."
    tolerance;
  Format.printf "  base: %s@.  new:  %s@.@." base next;
  Format.printf "%-40s %6s %14s %14s %9s  %s@." "bench" "unit" "base" "new"
    "delta" "verdict";
  Format.printf "%s@." (String.make 96 '-');
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun (name, (unit_, bv)) ->
      match List.assoc_opt name next_rows with
      | None ->
          incr regressions;
          Format.printf "%-40s %6s : dropped from new run  REGRESSED@." name unit_
      | Some (nunit, _) when nunit <> unit_ ->
          incr regressions;
          Format.printf "%-40s : unit changed %s -> %s  REGRESSED@." name
            unit_ nunit
      | Some (_, nv) ->
          incr compared;
          (* Positive delta = worse, whichever way the unit points. *)
          let delta_pct =
            if bv = 0.0 then 0.0
            else
              match regress_direction ~unit_ ~name with
              | `Smaller -> (nv -. bv) /. bv *. 100.0
              | `Larger -> (bv -. nv) /. bv *. 100.0
          in
          let bad = delta_pct > tolerance in
          if bad then incr regressions;
          Format.printf "%-40s %6s %14.4f %14.4f %+8.2f%%  %s@." name
            (match unit_ with
            | "events_per_sec" -> "ev/s"
            | "ns_per_op" -> "ns/op"
            | "ns_per_run" -> "ns/run"
            | "ns_per_step" -> "ns/step"
            | u -> u)
            bv nv delta_pct
            (if bad then "REGRESSED" else "ok"))
    base_rows;
  List.iter
    (fun (name, (unit_, _)) ->
      if not (List.mem_assoc name base_rows) then
        Format.printf "%-40s %6s : new bench (no baseline)@." name unit_)
    next_rows;
  Format.printf "@.%d compared, %d regression(s)@." !compared !regressions;
  if !regressions > 0 then exit 1

let usage () =
  prerr_endline
    "usage: main.exe SUITE [--smoke] [--out FILE]\n\
    \       main.exe all [--smoke] [--out DIR]\n\
    \       main.exe regress --base OLD.json --new NEW.json [--tolerance PCT]";
  prerr_endline
    ("suites: " ^ String.concat " " (List.map (fun s -> s.suite) suites));
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  let flag_value name argv =
    let rec go = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let out_of default argv = Option.value (flag_value "--out" argv) ~default in
  let smoke = List.mem "--smoke" argv in
  if List.mem "regress" argv then begin
    match (flag_value "--base" argv, flag_value "--new" argv) with
    | Some base, Some next ->
        let tolerance =
          match flag_value "--tolerance" argv with
          | None -> 10.0
          | Some t -> (
              match float_of_string_opt t with
              | Some t when t >= 0.0 -> t
              | _ -> failwith ("regress: bad --tolerance " ^ t))
        in
        run_regress ~base ~next ~tolerance ()
    | _ -> usage ()
  end
  else if List.mem "all" argv then begin
    (* Every suite in one run; --out is a directory here. *)
    let dir = out_of "." argv in
    List.iter
      (fun s -> run_suite ~smoke ~out:(Filename.concat dir s.file) s)
      suites
  end
  else
    match List.find_opt (fun s -> List.mem s.suite argv) suites with
    | Some s -> run_suite ~smoke ~out:(out_of s.file argv) s
    | None -> usage ()
