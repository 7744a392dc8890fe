module Rng = Memsim.Rng
module Mem = Memsim.Memory
module Process = Loader.Process
module Oracle = Sanitizer.Oracle
module O = Machine.Outcome

(* Coverage-guided snapshot fuzzer for the Connman parse path.

   The harness is the classic AFL loop specialized to the simulated
   machine: boot the daemon image once, snapshot it copy-on-write, then
   per execution restore, write the mutated datagram into the guest rx
   buffer and call [parse_response] with the edge map as its [on_step]
   observer (its fold lets the engine run libc's copy loop as bulk
   steps).  Every restore after the first is to the same snapshot, so
   it touches only the pages the last run wrote, and their buffers are
   recycled for the next run's copy-on-write stores: an exec costs a
   fraction of a microsecond of restore and copies no fresh page into
   the major heap.  Inputs that light up new edges join the corpus.

   Crashing inputs get a second, sanitizer-instrumented run from the
   same snapshot: the taint oracle labels every wire byte, protects the
   [get_name] frame, and its first report names both the detection rule
   that fired and the exact wire offset that reached the overflow — the
   [wire[off]@fuzz -> mem -> pc] provenance chain.  Two runs rather than
   one taint-instrumented run because taint costs several times as much
   per step and only crashing inputs need it; determinism makes the
   replay exact.  And the triage halts at that first report
   ([halt_on_report]): the engine keeps nothing else of it, and most of
   a crash's instructions come after its overflow is detected.  Its
   step count is the coverage run's, which a full triage would retire
   exactly (the oracle only observes), so [total_steps] is unchanged.

   Everything — mutation choices, corpus growth, stats — is a pure
   function of [config.seed].  The stats JSON contains no wall-clock
   values, so a re-run with the same seed is byte-identical. *)

type config = {
  arch : Loader.Arch.t;
  version : Connman.Version.t;
  profile : Defense.Profile.t;
  seed : int;
  max_execs : int;
  stop_on_find : bool;  (* stop at the first redzone-write triage *)
}

let default_config =
  {
    arch = Loader.Arch.X86;
    version = Connman.Version.v1_34;
    profile = Defense.Profile.wx;
    seed = 1;
    max_execs = 2_000;
    stop_on_find = false;
  }

type crash = {
  exec : int;
  input : string;
  outcome : string;
  steps : int;
  rule : string option;  (* first detection rule, if the oracle fired *)
  wire_offset : int option;
  provenance : string option;  (* rendered first report *)
}

type stats = {
  cfg : config;
  seed_inputs : int;
  execs : int;
  corpus : int;
  edges : int;
  total_steps : int;
  crashes : crash list;  (* deduped by (outcome, rule), chronological *)
  rediscovered_at : int option;  (* exec index of first redzone-write *)
  first_rule : string option;  (* rule of the chronologically first crash *)
}

(* Benign seed corpus: well-formed responses a real resolver could send,
   compression included (the pointer splice operator needs pointer bytes
   in-distribution to riff on). *)
let benign_seeds () =
  let open Dns in
  let n = Name.of_string in
  let q1 = Packet.query ~id:0x1A2B (n "www.example.com") Packet.A in
  let r1 =
    Packet.response ~query:q1
      [ Packet.a_record (n "www.example.com") ~ttl:300 ~ipv4:0x5DB8D822 ]
  in
  let q2 = Packet.query ~id:0x1A2C (n "cdn.example.net") Packet.A in
  let r2 =
    Packet.response ~query:q2
      [
        Packet.cname_record (n "cdn.example.net") ~ttl:600
          ~target:(n "edge7.cdn.example.net");
        Packet.a_record (n "edge7.cdn.example.net") ~ttl:60 ~ipv4:0xC6336401;
      ]
  in
  let q3 = Packet.query ~id:0x1A2D (n "pool.ntp.org") Packet.A in
  let r3 =
    Packet.response ~query:q3
      [
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1804;
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1805;
        Packet.a_record (n "pool.ntp.org") ~ttl:30 ~ipv4:0xA29F1806;
      ]
  in
  [
    Packet.encode ~compress:true r1;
    Packet.encode ~compress:false r1;
    Packet.encode ~compress:true r2;
    Packet.encode ~compress:true r3;
  ]

let spec config =
  match config.arch with
  | Loader.Arch.X86 ->
      Connman.Program_x86.spec ~version:config.version ~profile:config.profile ()
  | Loader.Arch.Arm ->
      Connman.Program_arm.spec ~version:config.version ~profile:config.profile ()

(* A fuzz execution gets the budget a daemon gives a parse. *)
let fuel = Loader.Service.fuel

let run config =
  let rng = Rng.create config.seed in
  let proc = Process.boot (spec config) ~profile:config.profile ~seed:config.seed in
  let snap = Process.snapshot proc in
  let entry = Process.symbol proc "parse_response" in
  let buf = proc.Process.layout.Loader.Layout.heap_base in
  let max_len = min 2048 proc.Process.layout.Loader.Layout.heap_size in
  let cov = Coverage.create () in
  let on_step = Coverage.observer cov in
  let oracle = Oracle.create ~halt_on_report:true () in
  let geometry = Connman.Frame.geometry config.arch in
  let frame_buffer = Connman.Frame.buffer_addr proc in
  let symbolize = Exploit.Debugger.symbolize proc in
  let corpus = ref [||] in
  let add_to_corpus s = corpus := Array.append !corpus [| s |] in
  let pick_input () = !corpus.(Rng.int rng (Array.length !corpus)) in
  let total_steps = ref 0 in
  (* Coverage-instrumented execution of one input from the snapshot. *)
  let exec_cov input =
    Process.restore proc snap;
    Mem.write_bytes proc.Process.mem buf input;
    Coverage.begin_exec cov;
    let r =
      Process.call proc ~fuel ~on_step ~entry ~args:[ buf; String.length input ]
    in
    total_steps := !total_steps + r.Process.steps;
    r
  in
  (* Sanitizer-instrumented replay for triage: same snapshot, same
     bytes, taint armed, stopped at the first report.  A full triage
     would retire exactly the coverage run's [steps] (the oracle only
     observes), so that is what the triage counts toward [total_steps]. *)
  let triage input ~steps =
    Process.restore proc snap;
    Mem.write_bytes proc.Process.mem buf input;
    Oracle.clear_reports oracle;
    Oracle.arm oracle ~origin:"fuzz" ~rx:buf ~len:(String.length input)
      ~buffer:frame_buffer geometry;
    ignore
      (Process.call proc ~fuel ~sanitizer:oracle ~entry
         ~args:[ buf; String.length input ]);
    total_steps := !total_steps + steps;
    Oracle.first_report oracle
  in
  let seeds = benign_seeds () in
  List.iter
    (fun s ->
      let _ = exec_cov s in
      ignore (Coverage.commit cov);
      add_to_corpus s)
    seeds;
  let crashes = ref [] in
  let crash_keys = Hashtbl.create 8 in
  let rediscovered = ref None in
  let first_rule = ref None in
  let execs = ref 0 in
  let stop = ref false in
  while (not !stop) && !execs < config.max_execs do
    incr execs;
    let input = Mutator.mutate rng ~max_len ~pick_other:pick_input (pick_input ()) in
    let r = exec_cov input in
    let fresh = Coverage.commit cov in
    if r.Process.outcome <> O.Halted then begin
      let report = triage input ~steps:r.Process.steps in
      let rule = Option.map (fun (rp : Oracle.report) -> Oracle.kind_name rp.Oracle.kind) report in
      if !first_rule = None then first_rule := rule;
      (match report with
      | Some rp when rp.Oracle.kind = Oracle.Redzone_write ->
          if !rediscovered = None then begin
            rediscovered := Some !execs;
            if config.stop_on_find then stop := true
          end
      | _ -> ());
      let key = (O.to_string r.Process.outcome, rule) in
      if not (Hashtbl.mem crash_keys key) && List.length !crashes < 16 then begin
        Hashtbl.replace crash_keys key ();
        crashes :=
          {
            exec = !execs;
            input;
            outcome = O.to_string r.Process.outcome;
            steps = r.Process.steps;
            rule;
            wire_offset =
              Option.map (fun rp -> Oracle.wire_offset rp) report;
            provenance = Option.map (Oracle.render ~symbolize) report;
          }
          :: !crashes
      end
    end
    else if fresh > 0 then add_to_corpus input
  done;
  {
    cfg = config;
    seed_inputs = List.length seeds;
    execs = !execs;
    corpus = Array.length !corpus;
    edges = Coverage.edges cov;
    total_steps = !total_steps;
    crashes = List.rev !crashes;
    rediscovered_at = !rediscovered;
    first_rule = !first_rule;
  }

(* {1 Deterministic JSON} *)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  if String.length h mod 2 <> 0 then invalid_arg "Engine.string_of_hex: odd length";
  String.init
    (String.length h / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let nullable f = function None -> Telemetry.Json.Null | Some x -> f x

let crash_value c =
  let open Telemetry.Json in
  Obj
    [
      ("exec", Int c.exec);
      ("outcome", Str c.outcome);
      ("steps", Int c.steps);
      ("rule", nullable (fun r -> Str r) c.rule);
      ("wire_offset", nullable (fun n -> Int n) c.wire_offset);
      ("provenance", nullable (fun p -> Str p) c.provenance);
      ("input_hex", Str (hex_of_string c.input));
    ]

let stats_value st =
  let open Telemetry.Json in
  Obj
    [
      ("schema", Str "fuzz-stats-v1");
      ("arch", Str (Loader.Arch.name st.cfg.arch));
      ("version", Str (Connman.Version.to_string st.cfg.version));
      ("profile", Str (Defense.Profile.name st.cfg.profile));
      ("seed", Int st.cfg.seed);
      ("max_execs", Int st.cfg.max_execs);
      ("seed_inputs", Int st.seed_inputs);
      ("execs", Int st.execs);
      ("corpus", Int st.corpus);
      ("edges", Int st.edges);
      ("total_steps", Int st.total_steps);
      ("rediscovered_at_exec", nullable (fun n -> Int n) st.rediscovered_at);
      ("first_rule", nullable (fun r -> Str r) st.first_rule);
      ("crashes", Arr (List.map crash_value st.crashes));
    ]

let stats_json st = Telemetry.Json.print (stats_value st)

let pp_stats ppf st =
  Format.fprintf ppf
    "fuzz %s/%s profile=%s seed=%d: %d execs, corpus %d (%d seeds), %d edges@."
    (Loader.Arch.name st.cfg.arch)
    (Connman.Version.to_string st.cfg.version)
    (Defense.Profile.name st.cfg.profile)
    st.cfg.seed st.execs st.corpus st.seed_inputs st.edges;
  (match st.rediscovered_at with
  | Some n ->
      Format.fprintf ppf "  overflow rediscovered at exec %d (rule %s)@." n
        (match st.first_rule with Some r -> r | None -> "?")
  | None -> Format.fprintf ppf "  overflow not rediscovered within budget@.");
  List.iter
    (fun c ->
      Format.fprintf ppf "  crash @exec %d: %s%s@." c.exec c.outcome
        (match c.provenance with
        | Some p -> "\n    " ^ p
        | None -> ""))
    st.crashes
