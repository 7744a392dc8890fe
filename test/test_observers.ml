(* Observer invariance: watching a run never changes it.  Every observer
   set (none, trace, profiler, edge coverage, sanitizer, single-step,
   all five) is attached to every scenario (DoS and a benign parse on
   both ISAs, the six exploit cells E1–E6) under every defense profile
   (none, wx, wx+aslr, and the scenario's base profile with +shstk,
   +fcfi, +shstk+fcfi, +seccomp).  Each observed run must match the
   bare run: outcome, retired steps, the whole register file, icache
   hits and misses and the bytes of every mapped region at the
   [Process.call] level, disposition and [last_steps] through the
   daemon (which has no single-step or coverage attachment point, so
   there "all" is the other three).  In particular an attached observer must not switch the embedded
   mitigations off.  Bare runs summarise the guest's copy loops (see
   {!Machine.Engine}), and so do runs whose every pc observer folds (the
   profiler and the coverage map), as many iterations as the bare run;
   runs with any other observer do not.  So the comparison covers that
   fast path too, and what the folding observers gather must equal what
   they gather on the reference loop; the [summaries] group checks that
   the fast path is taken.  The [diversified] group runs every scenario
   on a fresh variant of a warmed template and of a cold one.  The one
   observer allowed to stop a run, an oracle created with
   [~halt_on_report:true], gets its own group. *)

module Dnsproxy = Connman.Dnsproxy
module Process = Loader.Process
module Profile = Defense.Profile
module Autogen = Exploit.Autogen
module Oracle = Sanitizer.Oracle
module E = Core.Experiments
module O = Machine.Outcome

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let lookup = Dns.Name.of_string "ipv4.connman.net"

let config arch profile =
  {
    Dnsproxy.version = Connman.Version.v1_34;
    arch;
    profile;
    boot_seed = 42;
    diversity_seed = None;
  }

(* What a scenario sends: a wire built against the receiving device's
   pending query.  Exploit cells plan their name on an analysis boot of
   the same firmware, exactly as [Experiments.fire] does; [None] when the
   planner cannot build the payload under this profile. *)
type payload = Benign | Dos | Exploit of string

let payload cfg = function
  | `Benign -> Some Benign
  | `Dos -> Some Dos
  | `Exploit strategy -> (
      let analysis =
        Dnsproxy.process
          (Dnsproxy.create
             { cfg with Dnsproxy.boot_seed = cfg.Dnsproxy.boot_seed + 5000 })
      in
      match
        Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy ()
      with
      | Ok (_, raw_name) -> Some (Exploit raw_name)
      | Error _ -> None)

let wire d payload =
  let query = Dnsproxy.make_query d lookup in
  match payload with
  | Benign ->
      Dns.Packet.encode
        (Dns.Packet.response ~query
           [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8_D822 ])
  | Dos ->
      Dns.Craft.hostile_response ~query
        ~raw_name:(Dns.Craft.dos_name ~size:8192)
        ()
  | Exploit raw_name -> Autogen.response_for ~query ~raw_name

type observers = {
  name : string;
  trace : bool;
  profile : bool;
  coverage : bool;  (* a [Fuzz.Coverage] map, attached as the fuzzer does *)
  sanitizer : bool;
  on_step : bool;  (* a pc counter with no fold *)
}

let observer_sets =
  let none =
    {
      name = "none";
      trace = false;
      profile = false;
      coverage = false;
      sanitizer = false;
      on_step = false;
    }
  in
  [
    none;
    { none with name = "trace"; trace = true };
    { none with name = "profile"; profile = true };
    { none with name = "coverage"; coverage = true };
    { none with name = "sanitizer"; sanitizer = true };
    { none with name = "on_step"; on_step = true };
    {
      name = "all";
      trace = true;
      profile = true;
      coverage = true;
      sanitizer = true;
      on_step = true;
    };
  ]

(* Every pc observer attached folds: the set's runs summarise. *)
let folds obs = not (obs.trace || obs.sanitizer || obs.on_step)

(* --- Process.call level: outcome, steps, register file --- *)

(* The bytes of every mapped region, permission-blind. *)
let memory_digest mem =
  let module M = Memsim.Memory in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun (r : M.region) -> M.peek_bytes mem r.M.base r.M.size) (M.regions mem))))

(* What the folding observers gathered: the coverage map's fresh-edge
   count and edges, the profiler's per-pc rows. *)
let gathered coverage profile =
  let coverage =
    Option.map
      (fun cov ->
        let fresh = Fuzz.Coverage.commit cov in
        Printf.sprintf "coverage %d fresh, %d edges" fresh (Fuzz.Coverage.edges cov))
      coverage
  and profile =
    Option.map
      (fun p ->
        String.concat ", "
          (List.map
             (fun (pc, n) -> Printf.sprintf "%s %d" pc n)
             (Telemetry.Profile.report p ~symbolize:(Printf.sprintf "0x%x"))))
      profile
  in
  String.concat "; " (Option.to_list coverage @ Option.to_list profile)

(* One parse on a fresh restore of the booted image, with the observers
   attached the way the daemon and the fuzzer attach them (the oracle
   taints every wire byte and guards the overflow frame; the coverage
   map rides [on_step], with the counter when both are on).  When the
   counter and the profiler are both attached they must see the same
   pcs.  The oracle is returned for its reports, with the digest of the
   memory the call leaves and what the folding observers gathered. *)
let call ?halt_on_report ?icache d snap wire obs =
  let arch = (Dnsproxy.config d).Dnsproxy.arch in
  let proc = Dnsproxy.process d in
  Process.restore proc snap;
  let buf = proc.Process.layout.Loader.Layout.heap_base in
  let len = String.length wire in
  Memsim.Memory.write_bytes proc.Process.mem buf wire;
  let sanitizer =
    if not obs.sanitizer then None
    else begin
      let oracle = Oracle.create ?halt_on_report () in
      Oracle.begin_parse oracle;
      let src = Oracle.new_source oracle ~origin:"udp" ~length:len in
      Oracle.taint oracle ~src buf ~len;
      Oracle.protect_frame oracle
        ~buffer:(Connman.Frame.buffer_addr proc)
        (Connman.Frame.geometry arch);
      Some oracle
    end
  in
  let trace = if obs.trace then Some (Telemetry.Trace.create ()) else None in
  let profile = if obs.profile then Some (Telemetry.Profile.create ()) else None in
  let coverage =
    if not obs.coverage then None
    else begin
      let cov = Fuzz.Coverage.create () in
      Fuzz.Coverage.begin_exec cov;
      Some cov
    end
  in
  let stepped = ref 0 in
  let on_step =
    match (obs.on_step, coverage) with
    | false, None -> None
    | false, Some cov -> Some (Fuzz.Coverage.observer cov)
    | true, None -> Some (Machine.Hook.observer (fun _ -> incr stepped))
    | true, Some cov ->
        Some
          (Machine.Hook.observer (fun pc ->
               incr stepped;
               Fuzz.Coverage.touch cov pc))
  in
  let r =
    Process.call_named proc ~fuel:400_000 ?icache ?on_step ?sanitizer ?trace ?profile
      ~entry:"parse_response" ~args:[ buf; len ]
  in
  (match profile with
  | Some p when obs.on_step ->
      check_int (obs.name ^ ": on_step and profiler saw the same pcs")
        !stepped (Telemetry.Profile.total p)
  | _ -> ());
  (r, sanitizer, memory_digest proc.Process.mem, gathered coverage profile)

(* Hit and miss counts agree only between calls on an icache that one
   call has already warmed, so each check makes a warm-up call first. *)
let same_run what (bare, _, bare_mem, _) (seen, _, seen_mem, _) =
  check_string (what ^ " outcome") (O.to_string bare.Process.outcome)
    (O.to_string seen.Process.outcome);
  check_int (what ^ " steps") bare.Process.steps seen.Process.steps;
  Alcotest.(check (array int))
    (what ^ " register file") bare.Process.regs seen.Process.regs;
  check_int (what ^ " icache hits") bare.Process.icache_hits seen.Process.icache_hits;
  check_int (what ^ " icache misses") bare.Process.icache_misses
    seen.Process.icache_misses;
  check_string (what ^ " memory") bare_mem seen_mem

(* --- daemon level: disposition and last_steps --- *)

let deliver cfg payload obs =
  let d = Dnsproxy.create cfg in
  if obs.trace then Dnsproxy.set_trace d (Some (Telemetry.Trace.create ()));
  if obs.profile then Dnsproxy.set_profiler d (Some (Telemetry.Profile.create ()));
  if obs.sanitizer then Dnsproxy.set_sanitizer d (Some (Oracle.create ()));
  let disposition = Dnsproxy.handle_response d (wire d payload) in
  (E.disposition_word disposition, Dnsproxy.last_steps d)

let profiles base =
  [
    ("none", Profile.none);
    ("wx", Profile.wx);
    ("wx+aslr", Profile.wx_aslr);
    ("+shstk", Profile.with_shadow_stack base);
    ("+fcfi", Profile.with_forward_cfi base);
    ("+shstk+fcfi", Profile.with_mitigations base);
    ("+seccomp", Profile.with_seccomp base);
  ]

let check_scenario arch base kind () =
  List.iter
    (fun (pname, profile) ->
      let cfg = config arch profile in
      match payload cfg kind with
      | None -> ()
      | Some payload ->
          let d = Dnsproxy.create cfg in
          let w = wire d payload in
          let snap = Process.snapshot (Dnsproxy.process d) in
          ignore (call d snap w (List.hd observer_sets));
          let ((bare_r, _, _, _) as bare) = call d snap w (List.hd observer_sets) in
          let bare_word, bare_steps = deliver cfg payload (List.hd observer_sets) in
          check_int (pname ^ ": daemon and call agree on steps") bare_r.Process.steps
            bare_steps;
          List.iter
            (fun obs ->
              let what = Printf.sprintf "%s/%s" pname obs.name in
              let ((r, _, _, gathered) as seen) = call d snap w obs in
              same_run what bare seen;
              check_int (what ^ ": summarised iterations")
                (if folds obs then bare_r.Process.icache_summarised else 0)
                r.Process.icache_summarised;
              if obs.profile || obs.coverage then begin
                let _, _, _, reference = call ~icache:false d snap w obs in
                check_string (what ^ ": gathered as on the reference loop") reference
                  gathered
              end;
              if obs.trace || obs.profile || obs.sanitizer then begin
                let word, steps = deliver cfg payload obs in
                check_string (what ^ " disposition") bare_word word;
                check_int (what ^ " last_steps") bare_steps steps
              end)
            (List.tl observer_sets))
    (profiles base)

(* --- the one observer that may stop a run: a halting oracle ---

   Against the full sanitized run (itself the bare run, above): the same
   first report, and the run stops at the instruction after it — the
   reporting instruction retires, the next is vetoed — unless the run
   had ended by then anyway. *)

let sanitizer_only = List.find (fun o -> o.name = "sanitizer") observer_sets

let check_halting arch base kind () =
  List.iter
    (fun (pname, profile) ->
      let cfg = config arch profile in
      match payload cfg kind with
      | None -> ()
      | Some payload -> (
          let d = Dnsproxy.create cfg in
          let w = wire d payload in
          let snap = Process.snapshot (Dnsproxy.process d) in
          ignore (call d snap w sanitizer_only);
          let (full, full_oracle, _, _) as full_run = call d snap w sanitizer_only in
          let (halted, halted_oracle, _, _) as halted_run =
            call ~halt_on_report:true d snap w sanitizer_only
          in
          let first o = Option.bind o Oracle.first_report in
          let show = Option.map (Format.asprintf "%a" Oracle.pp_report) in
          Alcotest.(check (option string))
            (pname ^ ": same first report")
            (show (first full_oracle))
            (show (first halted_oracle));
          match first full_oracle with
          | None -> same_run (pname ^ ": no report, no halt") full_run halted_run
          | Some rp ->
              let next = rp.Oracle.step + 1 in
              check_int (pname ^ ": stops after the reporting instruction")
                (min full.Process.steps next) halted.Process.steps;
              if full.Process.steps > next then
                check_string (pname ^ ": halted by the oracle")
                  (O.to_string (O.Aborted "sanitizer"))
                  (O.to_string halted.Process.outcome)
              else if full.Process.steps < next then
                check_string (pname ^ ": ended before the halt")
                  (O.to_string full.Process.outcome)
                  (O.to_string halted.Process.outcome)))
    (profiles base)

(* --- the copy-loop summaries the bare runs take ---

   A bare call of every DoS and exploit scenario runs most of its copy
   loop iterations as bulk steps, under the scenario's base profile, a
   diversified build of it and it with the mitigations (whose hooks
   lower to [Terminal]), and so does the same call with the profiler or
   the coverage map attached, which fold; with any other observer it
   runs none. *)

let check_summaries arch base kind () =
  List.iter
    (fun (cname, profile, diversity_seed) ->
      let cfg = { (config arch profile) with Dnsproxy.diversity_seed } in
      match payload (config arch profile) kind with
      | None -> ()
      | Some payload ->
          let d = Dnsproxy.create cfg in
          let w = wire d payload in
          let snap = Process.snapshot (Dnsproxy.process d) in
          List.iter
            (fun obs ->
              let r, _, _, _ = call d snap w obs in
              let what = Printf.sprintf "%s/%s: summarised iterations" cname obs.name in
              if folds obs then
                Alcotest.(check bool) (what ^ " > 0") true (r.Process.icache_summarised > 0)
              else check_int what 0 r.Process.icache_summarised)
            observer_sets)
    [
      ("base", base, None);
      ("div", base, Some 11);
      ("shstk", Profile.with_mitigations base, None);
    ]

(* --- diversified: a fresh variant's first run ---

   A variant decodes its own text and finds the rest (libc, the PLT)
   in its template family's entries: filled when the template has
   parsed the payload (warm), empty when it has not (cold).  A fresh
   variant of each runs the payload once under every observer set, and
   must match the same variant's bare first run and its uncached run:
   outcome, retired steps, the whole register file and the bytes of
   every mapped region; and through the daemon, the bare delivery's
   disposition and [last_steps]. *)

let check_diversified arch base kind () =
  let cfg = config arch base in
  match payload cfg kind with
  | None -> ()
  | Some payload ->
      let bare_set = List.hd observer_sets in
      (* A template in the given state, from a boot of its own. *)
      let template state =
        let t = Dnsproxy.create cfg in
        (match state with
        | `Cold -> ()
        | `Warm ->
            let snap = Process.snapshot (Dnsproxy.process t) in
            ignore (call t snap (wire t payload) bare_set);
            Process.restore (Dnsproxy.process t) snap);
        t
      in
      let variant state = Dnsproxy.fork_diversified (template state) ~diversity_seed:7 in
      let first ?icache state obs =
        let v = variant state in
        call ?icache v (Process.snapshot (Dnsproxy.process v)) (wire v payload) obs
      in
      let delivered state obs =
        let v = variant state in
        if obs.trace then Dnsproxy.set_trace v (Some (Telemetry.Trace.create ()));
        if obs.profile then Dnsproxy.set_profiler v (Some (Telemetry.Profile.create ()));
        if obs.sanitizer then Dnsproxy.set_sanitizer v (Some (Oracle.create ()));
        let disposition = Dnsproxy.handle_response v (wire v payload) in
        (E.disposition_word disposition, Dnsproxy.last_steps v)
      in
      let same what (a, _, a_mem, _) (b, _, b_mem, _) =
        check_string (what ^ " outcome") (O.to_string a.Process.outcome)
          (O.to_string b.Process.outcome);
        check_int (what ^ " steps") a.Process.steps b.Process.steps;
        Alcotest.(check (array int)) (what ^ " register file") a.Process.regs b.Process.regs;
        check_string (what ^ " memory") a_mem b_mem
      in
      List.iter
        (fun (sname, state) ->
          let bare = first state bare_set in
          same (sname ^ ": uncached") bare (first ~icache:false state bare_set);
          let bare_word, bare_steps = delivered state bare_set in
          List.iter
            (fun obs ->
              let what = Printf.sprintf "%s/%s" sname obs.name in
              same what bare (first state obs);
              if obs.trace || obs.profile || obs.sanitizer then begin
                let word, steps = delivered state obs in
                check_string (what ^ " disposition") bare_word word;
                check_int (what ^ " last_steps") bare_steps steps
              end)
            (List.tl observer_sets))
        [ ("warm template", `Warm); ("cold template", `Cold) ]

let scenarios =
  List.concat_map
    (fun arch ->
      let a = Loader.Arch.name arch in
      [
        ("dos " ^ a, arch, Profile.wx, `Dos);
        ("benign " ^ a, arch, Profile.wx, `Benign);
      ])
    Loader.Arch.all
  @ List.map
      (fun (id, _, arch, profile, strategy, _) ->
        (id ^ " " ^ Loader.Arch.name arch, arch, profile, `Exploit strategy))
      E.matrix_cells

let () =
  Alcotest.run "observers"
    [
      ( "invariance",
        List.map
          (fun (name, arch, base, kind) ->
            Alcotest.test_case name `Quick (check_scenario arch base kind))
          scenarios );
      ( "summaries",
        List.filter_map
          (fun (name, arch, base, kind) ->
            match kind with
            | `Benign -> None
            | _ -> Some (Alcotest.test_case name `Quick (check_summaries arch base kind)))
          scenarios );
      ( "diversified",
        List.map
          (fun (name, arch, base, kind) ->
            Alcotest.test_case name `Quick (check_diversified arch base kind))
          scenarios );
      ( "halting oracle",
        List.map
          (fun (name, arch, base, kind) ->
            Alcotest.test_case name `Quick (check_halting arch base kind))
          scenarios );
    ]
