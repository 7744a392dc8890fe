(* Fuzz-style robustness tests: whatever bytes arrive, the host-side code
   must stay total (return values, never exceptions), and the daemon must
   classify every machine outcome.  The simulated overflow is allowed to
   crash the *guest*; nothing may crash the *host*. *)

module O = Machine.Outcome
module Dnsproxy = Connman.Dnsproxy

let lookup = Dns.Name.of_string "ipv4.connman.net"

let gen_bytes max_len =
  QCheck.Gen.(string_size ~gen:char (int_range 0 max_len))

(* --- codecs are total --- *)

let prop_packet_decode_total =
  QCheck.Test.make ~name:"Packet.decode never raises" ~count:1000
    (QCheck.make (gen_bytes 512))
    (fun bytes ->
      match Dns.Packet.decode bytes with Ok _ | Error _ -> true)

let prop_name_labels_total =
  QCheck.Test.make ~name:"Wire.name_labels never raises" ~count:1000
    (QCheck.make (gen_bytes 256))
    (fun bytes ->
      match Dns.Wire.name_labels bytes 0 with Ok _ | Error _ -> true)

let prop_vulnerable_expand_total =
  QCheck.Test.make ~name:"expand_like_connman never raises" ~count:1000
    (QCheck.make (gen_bytes 256))
    (fun bytes ->
      match Dns.Name.expand_like_connman bytes 0 with Ok _ | Error _ -> true)

let prop_decoders_total_on_random_words =
  QCheck.Test.make ~name:"instruction decoders never raise unexpectedly"
    ~count:2000
    QCheck.(make Gen.(pair (int_bound 0xFFFFFFF) (int_bound 0xF)))
    (fun (w, hi) ->
      let word = w lor (hi lsl 28) in
      (match Isa_arm.Decode.decode_word ~addr:0 word with
      | _ -> true
      | exception Isa_arm.Decode.Error _ -> true)
      &&
      let bytes =
        String.init 8 (fun i -> Char.chr ((word lsr (8 * (i land 3))) land 0xFF))
      in
      match Isa_x86.Decode.decode_with (fun i -> Char.code bytes.[i land 7]) 0 with
      | _ -> true
      | exception Isa_x86.Decode.Error _ -> true)

(* --- the daemon survives arbitrary garbage (host-side) --- *)

let classify_ok d disposition =
  match disposition with
  | Dnsproxy.Cached _ | Dnsproxy.Dropped _ -> Dnsproxy.alive d
  | Dnsproxy.Crashed _ | Dnsproxy.Compromised _ | Dnsproxy.Blocked _ ->
      not (Dnsproxy.alive d)

let prop_daemon_total_on_garbage =
  QCheck.Test.make ~name:"daemon handles arbitrary datagrams" ~count:200
    (QCheck.make (gen_bytes 300))
    (fun bytes ->
      let d = Dnsproxy.create Dnsproxy.default_config in
      ignore (Dnsproxy.make_query d lookup);
      classify_ok d (Dnsproxy.handle_response d bytes))

(* Garbage that passes pre-validation: correct header/id/question, random
   answer-section bytes — this drives the vulnerable machine code with
   arbitrary input. *)
let prop_daemon_total_on_hostile_answers =
  QCheck.Test.make ~name:"daemon classifies arbitrary answer sections" ~count:150
    (QCheck.make (gen_bytes 600))
    (fun garbage ->
      let d = Dnsproxy.create Dnsproxy.default_config in
      let query = Dnsproxy.make_query d lookup in
      let wire =
        (* Hand-build: header + question echo + raw garbage as the answer
           section. *)
        let buf = Buffer.create 128 in
        let u16 v =
          Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
          Buffer.add_char buf (Char.chr (v land 0xFF))
        in
        u16 query.Dns.Packet.header.Dns.Packet.id;
        u16 0x8180;
        u16 1;
        u16 1;
        u16 0;
        u16 0;
        Buffer.add_string buf (Dns.Name.encode lookup);
        u16 1;
        u16 1;
        Buffer.add_string buf garbage;
        Buffer.contents buf
      in
      classify_ok d (Dnsproxy.handle_response d wire))

let prop_daemon_random_label_streams =
  (* Arbitrary label streams (valid-shaped but arbitrary contents): the
     machine may crash, hang, or parse; the host must classify. *)
  QCheck.Test.make ~name:"daemon classifies random label streams" ~count:150
    QCheck.(make Gen.(list_size (int_range 0 80) (pair (int_range 1 63) (int_bound 255))))
    (fun labels ->
      let d = Dnsproxy.create Dnsproxy.default_config in
      let query = Dnsproxy.make_query d lookup in
      let raw_name =
        let buf = Buffer.create 256 in
        List.iter
          (fun (len, fill) ->
            Buffer.add_char buf (Char.chr len);
            Buffer.add_string buf (String.make len (Char.chr fill)))
          labels;
        Buffer.add_char buf '\x00';
        Buffer.contents buf
      in
      let wire = Dns.Craft.hostile_response ~query ~raw_name () in
      classify_ok d (Dnsproxy.handle_response d wire))

(* Truncated real responses at every length: a classic parser gauntlet. *)
let test_truncation_gauntlet () =
  let d0 = Dnsproxy.create Dnsproxy.default_config in
  let query = Dnsproxy.make_query d0 lookup in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query
         [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:0x01020304 ])
  in
  for len = 0 to String.length wire - 1 do
    let d = Dnsproxy.create Dnsproxy.default_config in
    ignore (Dnsproxy.make_query d lookup);
    let truncated = String.sub wire 0 len in
    match Dnsproxy.handle_response d truncated with
    | Dnsproxy.Cached _ | Dnsproxy.Dropped _ | Dnsproxy.Crashed _
    | Dnsproxy.Compromised _ | Dnsproxy.Blocked _ ->
        ()
  done

(* --- the mutation grammar --- *)

module Mutator = Fuzz.Mutator
module Engine = Fuzz.Engine

let benign_pool = lazy (Array.of_list (Engine.benign_seeds ()))

let pick_other_from rng =
  let pool = Lazy.force benign_pool in
  fun () -> pool.(Memsim.Rng.int rng (Array.length pool))

(* Totality over arbitrary inputs, including the tiny ones: a truncate
   can leave 1-3 bytes, after which the header-targeting operators used
   to index out of bounds (a fuzzer-found bug in the fuzzer). *)
let prop_mutator_total =
  QCheck.Test.make ~name:"mutate is total, bounded, non-empty" ~count:500
    QCheck.(pair small_nat (make (gen_bytes 80)))
    (fun (seed, input) ->
      let rng = Memsim.Rng.create seed in
      let pick_other = pick_other_from rng in
      let s = ref input in
      for _ = 1 to 40 do
        s := Mutator.mutate rng ~max_len:256 ~pick_other !s
      done;
      String.length !s > 0 && String.length !s <= 256)

let test_mutator_short_input_regression () =
  (* Drive every operator against 1..11-byte inputs: pre-fix this hit
     "index out of bounds" in op_flag_flip / op_count_lie (seed 5 of the
     smoke campaign found it via truncate-then-flag-flip). *)
  for seed = 0 to 50 do
    let rng = Memsim.Rng.create seed in
    let pick_other = pick_other_from rng in
    for len = 1 to 11 do
      let s = ref (String.make len 'x') in
      for _ = 1 to 30 do
        s := Mutator.mutate rng ~max_len:64 ~pick_other !s
      done
    done
  done

let prop_mutator_deterministic =
  QCheck.Test.make ~name:"mutation stream is a pure function of the seed"
    ~count:100 QCheck.small_nat
    (fun seed ->
      let stream seed =
        let rng = Memsim.Rng.create seed in
        let pick_other = pick_other_from rng in
        let s = ref (Lazy.force benign_pool).(0) in
        List.init 30 (fun _ ->
            s := Mutator.mutate rng ~max_len:512 ~pick_other !s;
            !s)
      in
      stream seed = stream seed)

let prop_wire_map_total =
  QCheck.Test.make ~name:"wire_map never raises, offsets in bounds" ~count:500
    (QCheck.make (gen_bytes 300))
    (fun bytes ->
      let wm = Mutator.wire_map bytes in
      let n = String.length bytes in
      List.for_all (fun o -> o >= 0 && o < n) wm.Mutator.label_offs
      && List.for_all (fun o -> o >= 0 && o + 2 <= n) wm.Mutator.rdlen_offs)

let test_wire_map_finds_structure () =
  (* On a well-formed compressed response the walker must locate real
     label-length bytes and the real rdlen field. *)
  let wire = List.hd (Engine.benign_seeds ()) in
  let wm = Mutator.wire_map wire in
  Alcotest.(check bool) "found labels" true (List.length wm.Mutator.label_offs > 0);
  List.iter
    (fun off ->
      let b = Char.code wire.[off] in
      Alcotest.(check bool)
        (Printf.sprintf "offset %d is a plausible length byte" off)
        true
        (b > 0 && b < 64);
      Alcotest.(check bool)
        (Printf.sprintf "label at %d fits the message" off)
        true
        (off + 1 + b <= String.length wire))
    wm.Mutator.label_offs;
  match wm.Mutator.rdlen_offs with
  | [ off ] ->
      let rdlen = (Char.code wire.[off] lsl 8) lor Char.code wire.[off + 1] in
      Alcotest.(check int) "A-record rdlen" 4 rdlen;
      Alcotest.(check int) "rdata ends the message" (String.length wire) (off + 2 + 4)
  | offs -> Alcotest.failf "expected one rdlen field, found %d" (List.length offs)

(* Encode/decode round-trip over the mutation grammar: wherever a mutant
   still decodes, re-encoding the decoded message and decoding again is
   the identity.  This leans on all three codec fixes at once — decoded
   labels are always encodable (<= 63), CNAME rdata is stored
   uncompressed so it survives re-encoding out of context, and rcodes
   6..15 are preserved rather than collapsed. *)
let prop_mutated_roundtrip =
  QCheck.Test.make ~name:"decode o encode = id on decodable mutants" ~count:300
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, which) ->
      let rng = Memsim.Rng.create (succ seed) in
      let pick_other = pick_other_from rng in
      let s = ref (Lazy.force benign_pool).(which) in
      let ok = ref true in
      for _ = 1 to 25 do
        s := Mutator.mutate rng ~max_len:512 ~pick_other !s;
        match Dns.Packet.decode !s with
        | Error _ -> ()
        | Ok m -> (
            match Dns.Packet.decode (Dns.Packet.encode ~compress:false m) with
            | Ok m' -> if m' <> m then ok := false
            | Error _ -> ok := false)
      done;
      !ok)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex_of_string/string_of_hex inverse" ~count:300
    (QCheck.make (gen_bytes 100))
    (fun s -> Engine.string_of_hex (Engine.hex_of_string s) = s)

(* --- engine runs --- *)

let test_engine_executes () =
  List.iter
    (fun arch ->
      let a =
        Engine.run { Engine.default_config with Engine.arch; max_execs = 120 }
      in
      Alcotest.(check bool)
        (Loader.Arch.name arch ^ ": executions happened")
        true
        (a.Engine.execs = 120 && a.Engine.edges > 0 && a.Engine.total_steps > 0))
    [ Loader.Arch.X86; Loader.Arch.Arm ]

(* Seed 3's campaigns, pinned as the engine reported them when every
   triage ran its crash to the end: a triage halted at its first report
   and credited with the coverage run's steps must leave these numbers
   where they were. *)
let test_engine_pinned () =
  List.iter
    (fun (arch, edges, total_steps, crash) ->
      let st =
        Engine.run { Engine.default_config with Engine.arch; seed = 3; max_execs = 1000 }
      in
      let tag = Loader.Arch.name arch in
      Alcotest.(check int) (tag ^ ": edges") edges st.Engine.edges;
      Alcotest.(check int) (tag ^ ": total_steps") total_steps st.Engine.total_steps;
      Alcotest.(check (list (triple int int (option int))))
        (tag ^ ": crashes (exec, steps, wire offset)")
        [ crash ]
        (List.map
           (fun c -> (c.Engine.exec, c.Engine.steps, c.Engine.wire_offset))
           st.Engine.crashes))
    [
      (Loader.Arch.X86, 132, 1_421_136, (581, 191_989, Some 34));
      (Loader.Arch.Arm, 106, 1_248_328, (581, 151_657, Some 34));
    ]

(* --- the engine's harness, rebuilt from public calls ---

   One boot per ISA at the engine's default profile, restored before
   every run, with the two instrumented runs the engine makes:
   coverage (edge map on the pc stream) and sanitizer triage (every wire
   byte tainted, the overflow frame protected). *)

type harness = {
  arch : Loader.Arch.t;
  proc : Loader.Process.t;
  snap : Memsim.Memory.snapshot;
  entry : int;
  buf : int;
}

let harness ?(seed = 99) arch =
  let profile = Engine.default_config.Engine.profile in
  let spec =
    match arch with
    | Loader.Arch.X86 ->
        Connman.Program_x86.spec ~version:Connman.Version.v1_34 ~profile ()
    | Loader.Arch.Arm ->
        Connman.Program_arm.spec ~version:Connman.Version.v1_34 ~profile ()
  in
  let proc = Loader.Process.boot spec ~profile ~seed in
  {
    arch;
    proc;
    snap = Loader.Process.snapshot proc;
    entry = Loader.Process.symbol proc "parse_response";
    buf = proc.Loader.Process.layout.Loader.Layout.heap_base;
  }

let parse ?on_step ?sanitizer ?profile h input =
  Loader.Process.restore h.proc h.snap;
  Memsim.Memory.write_bytes h.proc.Loader.Process.mem h.buf input;
  Loader.Process.call h.proc ~fuel:400_000 ?on_step ?sanitizer ?profile
    ~entry:h.entry ~args:[ h.buf; String.length input ]

(* A triage under a fresh oracle: the run and the oracle's first report. *)
let triage ?halt_on_report h input =
  let oracle = Sanitizer.Oracle.create ?halt_on_report () in
  let src =
    Sanitizer.Oracle.new_source oracle ~origin:"fuzz"
      ~length:(String.length input)
  in
  Sanitizer.Oracle.taint oracle ~src h.buf ~len:(String.length input);
  Sanitizer.Oracle.protect_frame oracle
    ~buffer:(Connman.Frame.buffer_addr h.proc)
    (Connman.Frame.geometry h.arch);
  let r = parse ~sanitizer:oracle h input in
  (r, Sanitizer.Oracle.first_report oracle)

(* --- regression corpus replay ---

   Every committed fuzzer-found input must still overflow the Listing-1
   buffer and be triaged as a redzone write with wire-byte provenance,
   on both ISAs.  The replay dogfoods the snapshot layer the fuzzer
   uses: one boot per ISA, restore between inputs. *)

let replay_corpus_on arch =
  let h = harness arch in
  List.iter
    (fun (name, hex) ->
      let input = Engine.string_of_hex hex in
      let r, first = triage h input in
      let tag = Printf.sprintf "%s/%s" (Loader.Arch.name arch) name in
      Alcotest.(check bool)
        (tag ^ ": still crashes the guest")
        true
        (r.Loader.Process.outcome <> O.Halted);
      match first with
      | None -> Alcotest.fail (tag ^ ": oracle fired no report")
      | Some rp ->
          Alcotest.(check string)
            (tag ^ ": triaged as redzone write")
            "redzone-write"
            (Sanitizer.Oracle.kind_name rp.Sanitizer.Oracle.kind);
          Alcotest.(check bool)
            (tag ^ ": wire provenance intact")
            true
            (Sanitizer.Oracle.wire_offset rp >= 0
            && Sanitizer.Oracle.wire_offset rp < String.length input))
    Corpus_data.entries

let test_corpus_replay_x86 () = replay_corpus_on Loader.Arch.X86
let test_corpus_replay_arm () = replay_corpus_on Loader.Arch.Arm

(* --- what the engine keeps of its two runs ---

   The engine stops its triage at the first report and credits it with
   the coverage run's steps.  Both are sound only if a halting triage
   names the same first report as a full one, and a full triage retires
   exactly the coverage run's instructions.  The inputs are the crashes
   of the [fuzz --smoke] configuration (run without the early stop, so
   every distinct (outcome, rule) it meets is kept) and the regression
   corpus. *)

let smoke_crash_inputs arch =
  let st =
    Engine.run
      {
        Engine.default_config with
        Engine.arch;
        max_execs = 4_000;
        stop_on_find = false;
      }
  in
  List.map (fun c -> (c.Engine.input, Some c.Engine.steps)) st.Engine.crashes
  @ List.map (fun (_, hex) -> (Engine.string_of_hex hex, None)) Corpus_data.entries

let test_halting_triage arch () =
  let h = harness ~seed:Engine.default_config.Engine.seed arch in
  let symbolize = Exploit.Debugger.symbolize h.proc in
  let inputs = smoke_crash_inputs arch in
  Alcotest.(check bool) "several crash inputs" true (List.length inputs > 2);
  let stopped_early = ref 0 in
  List.iteri
    (fun i (input, campaign_steps) ->
      let tag = Printf.sprintf "%s input %d" (Loader.Arch.name arch) i in
      let cov = parse ~on_step:(Machine.Hook.observer ignore) h input in
      let full, full_first = triage h input in
      let halted, halted_first = triage ~halt_on_report:true h input in
      Alcotest.(check int) (tag ^ ": full triage steps = coverage steps")
        cov.Loader.Process.steps full.Loader.Process.steps;
      Option.iter
        (Alcotest.(check int) (tag ^ ": the campaign recorded these steps")
           cov.Loader.Process.steps)
        campaign_steps;
      let show =
        Option.map (fun rp ->
            ( Sanitizer.Oracle.kind_name rp.Sanitizer.Oracle.kind,
              Sanitizer.Oracle.wire_offset rp,
              Sanitizer.Oracle.render ~symbolize rp ))
      in
      Alcotest.(check (option (triple string int string)))
        (tag ^ ": same first report") (show full_first) (show halted_first);
      Alcotest.(check bool) (tag ^ ": halting triage retires no more")
        true
        (halted.Loader.Process.steps <= full.Loader.Process.steps);
      if halted.Loader.Process.steps < full.Loader.Process.steps then
        incr stopped_early)
    inputs;
  Alcotest.(check bool) "some halting triage stopped early" true (!stopped_early > 0)

(* The edge map fed from its folding [on_step] observer, which lets the
   copy loops run as bulk steps, and pc by pc from the profiler's sink,
   which does not: the same fresh-edge counts input by input, and the
   same map at the end. *)
let test_coverage_paths arch () =
  let h = harness arch in
  let crash = Engine.string_of_hex (snd (List.hd Corpus_data.entries)) in
  let direct = Fuzz.Coverage.create () and sunk = Fuzz.Coverage.create () in
  let profile = Telemetry.Profile.create () in
  Telemetry.Profile.set_sink profile (Some (Fuzz.Coverage.touch sunk));
  let summarised = ref 0 in
  List.iteri
    (fun i input ->
      Fuzz.Coverage.begin_exec direct;
      let a = parse ~on_step:(Fuzz.Coverage.observer direct) h input in
      summarised := !summarised + a.Loader.Process.icache_summarised;
      Fuzz.Coverage.begin_exec sunk;
      Telemetry.Profile.clear profile;
      let b = parse ~profile h input in
      let tag = Printf.sprintf "%s input %d" (Loader.Arch.name arch) i in
      Alcotest.(check int) (tag ^ ": same steps") a.Loader.Process.steps
        b.Loader.Process.steps;
      Alcotest.(check int) (tag ^ ": a sink sees every pc") 0
        b.Loader.Process.icache_summarised;
      Alcotest.(check int) (tag ^ ": same fresh edges")
        (Fuzz.Coverage.commit direct) (Fuzz.Coverage.commit sunk);
      Alcotest.(check int) (tag ^ ": same edge count") (Fuzz.Coverage.edges direct)
        (Fuzz.Coverage.edges sunk))
    (Engine.benign_seeds () @ [ crash ]);
  Alcotest.(check bool) "the folding map let copy loops summarise" true (!summarised > 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "codecs",
        [
          qt prop_packet_decode_total;
          qt prop_name_labels_total;
          qt prop_vulnerable_expand_total;
          qt prop_decoders_total_on_random_words;
        ] );
      ( "daemon",
        [
          qt prop_daemon_total_on_garbage;
          qt prop_daemon_total_on_hostile_answers;
          qt prop_daemon_random_label_streams;
          Alcotest.test_case "truncation gauntlet" `Quick test_truncation_gauntlet;
        ] );
      ( "mutator",
        [
          qt prop_mutator_total;
          Alcotest.test_case "short inputs (regression)" `Quick
            test_mutator_short_input_regression;
          qt prop_mutator_deterministic;
          qt prop_wire_map_total;
          Alcotest.test_case "wire_map finds real structure" `Quick
            test_wire_map_finds_structure;
          qt prop_mutated_roundtrip;
          qt prop_hex_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "executions happen" `Slow test_engine_executes;
          Alcotest.test_case "seed-3 stats pinned" `Quick test_engine_pinned;
        ] );
      ( "regression corpus",
        [
          Alcotest.test_case "replay on x86" `Quick test_corpus_replay_x86;
          Alcotest.test_case "replay on arm" `Quick test_corpus_replay_arm;
        ] );
      ( "triage",
        List.concat_map
          (fun arch ->
            let a = Loader.Arch.name arch in
            [
              Alcotest.test_case ("halting = full first report, " ^ a) `Quick
                (test_halting_triage arch);
              Alcotest.test_case ("coverage via on_step = via sink, " ^ a) `Quick
                (test_coverage_paths arch);
            ])
          Loader.Arch.all );
    ]
