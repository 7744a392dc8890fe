(* Sanitizer tests: shadow-label encoding, oracle detection rules
   (redzones, return slots, tainted pc/syscall, per-parse dedup), the
   register file of a sanitized call (the exploit matrix under every
   observer is test_observers.ml's), the detection matrix itself (its
   JSON is pinned in test/golden and replayed in test_replay.ml), zero
   false positives on benign traffic, and the wire-offset provenance
   round-trip on both ISAs. *)

module Shadow = Memsim.Shadow
module Oracle = Sanitizer.Oracle
module E = Core.Experiments
module Dnsproxy = Connman.Dnsproxy
module Autogen = Exploit.Autogen
module Profile = Defense.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let lookup = Dns.Name.of_string "ipv4.connman.net"

let mk_config ?(version = Connman.Version.v1_34) arch profile seed =
  { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed = None }

let benign_wire d =
  let query = Dnsproxy.make_query d lookup in
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup ~ttl:300 ~ipv4:0x5DB8_D822 ])

(* --- shadow labels --- *)

let test_label_roundtrip () =
  let l = Shadow.make ~src:3 ~offset:1057 in
  check_bool "non-clean" true (l <> Shadow.clean);
  check_int "source" 3 (Shadow.source_of l);
  check_int "offset" 1057 (Shadow.offset_of l);
  let l0 = Shadow.make ~src:0 ~offset:0 in
  check_bool "source 0 offset 0 is still tainted" true (l0 <> Shadow.clean);
  check_int "source 0" 0 (Shadow.source_of l0);
  check_int "offset 0" 0 (Shadow.offset_of l0);
  let top = Shadow.make ~src:5 ~offset:0xFFFE in
  check_int "max offset survives the source bits" 5 (Shadow.source_of top);
  check_int "max offset" 0xFFFE (Shadow.offset_of top);
  Alcotest.check_raises "offset out of range"
    (Invalid_argument "Shadow.make: offset 65535 out of range") (fun () ->
      ignore (Shadow.make ~src:0 ~offset:0xFFFF))

let test_label_join () =
  let a = Shadow.make ~src:1 ~offset:4 in
  let b = Shadow.make ~src:2 ~offset:9 in
  check_int "join clean x" a (Shadow.join Shadow.clean a);
  check_int "join x clean" a (Shadow.join a Shadow.clean);
  check_int "join keeps the first operand" a (Shadow.join a b);
  check_int "join clean clean" Shadow.clean (Shadow.join Shadow.clean Shadow.clean)

let test_shadow_map () =
  let s = Shadow.create () in
  check_int "unset is clean" 0 (Shadow.get s 0x8048_1234);
  let l = Shadow.make ~src:0 ~offset:7 in
  Shadow.set s 0xBFFF_0000 l;
  Shadow.set s 0xBFFF_1000 l;
  (* a different page *)
  check_int "set/get" l (Shadow.get s 0xBFFF_0000);
  check_int "two tainted bytes" 2 (Shadow.tainted s);
  Shadow.clear_range s 0xBFFF_0000 ~len:16;
  check_int "cleared byte" 0 (Shadow.get s 0xBFFF_0000);
  check_int "one left" 1 (Shadow.tainted s);
  Shadow.clear s;
  check_int "all cleared" 0 (Shadow.tainted s)

(* --- oracle detection rules (synthetic stores) --- *)

let tainted_label o = ignore o; Shadow.make ~src:0 ~offset:42

let test_redzone_rule () =
  let o = Oracle.create () in
  let src = Oracle.new_source o ~origin:"test" ~length:64 in
  check_int "first source id" 0 src;
  Oracle.add_redzone o ~base:0x1000 ~len:8;
  (* Clean stores into the redzone never report (prologue spills). *)
  Oracle.store o ~pc:0x10 ~step:1 ~addr:0x1000 ~len:4 ~value:0 ~label:Shadow.clean;
  check_int "clean store is free" 0 (Oracle.report_count o);
  Oracle.store o ~pc:0x14 ~step:2 ~addr:0x1004 ~len:1 ~value:0x41
    ~label:(tainted_label o);
  check_int "tainted store fires" 1 (Oracle.report_count o);
  check_int "kind count" 1 (Oracle.count o Oracle.Redzone_write);
  (* The same zone reports once per parse. *)
  Oracle.store o ~pc:0x18 ~step:3 ~addr:0x1005 ~len:1 ~value:0x42
    ~label:(tainted_label o);
  check_int "deduped within the parse" 1 (Oracle.report_count o);
  Oracle.begin_parse o;
  check_int "reports survive begin_parse" 1 (Oracle.report_count o)

let test_ret_slot_rule () =
  let o = Oracle.create () in
  ignore (Oracle.new_source o ~origin:"test" ~length:64);
  Oracle.note_ret_slot o 0x2000;
  check_int "one slot" 1 (Oracle.ret_slot_count o);
  (* A 1-byte tainted store into the middle of the slot still hits it. *)
  Oracle.store o ~pc:0x10 ~step:1 ~addr:0x2002 ~len:1 ~value:0x41
    ~label:(tainted_label o);
  check_int "slot overwrite" 1 (Oracle.count o Oracle.Ret_slot_overwrite);
  Oracle.store o ~pc:0x14 ~step:2 ~addr:0x2000 ~len:4 ~value:0x4141_4141
    ~label:(tainted_label o);
  check_int "once per slot per parse" 1 (Oracle.count o Oracle.Ret_slot_overwrite);
  (* A legitimately consumed slot stops being one. *)
  let o2 = Oracle.create () in
  ignore (Oracle.new_source o2 ~origin:"test" ~length:64);
  Oracle.note_ret_slot o2 0x2000;
  Oracle.clear_ret_slot o2 0x2000;
  Oracle.store o2 ~pc:0x10 ~step:1 ~addr:0x2000 ~len:4 ~value:0
    ~label:(tainted_label o2);
  check_int "cleared slot is silent" 0 (Oracle.count o2 Oracle.Ret_slot_overwrite)

let test_pc_and_syscall_rules () =
  let o = Oracle.create () in
  ignore (Oracle.new_source o ~origin:"udp" ~length:64);
  Oracle.check_pc o ~pc:0x20 ~step:5 ~target:0xdead ~slot:0x3000
    ~label:Shadow.clean ~detail:"clean ret";
  check_int "clean pc is silent" 0 (Oracle.report_count o);
  Oracle.check_pc o ~pc:0x20 ~step:6 ~target:0xdead ~slot:0x3000
    ~label:(Shadow.make ~src:0 ~offset:9) ~detail:"tainted ret";
  Oracle.check_syscall o ~pc:0x24 ~step:7 ~number:11 ~addr:0x4000
    ~label:(Shadow.make ~src:0 ~offset:12) ~detail:"execve";
  check_int "both fired" 2 (Oracle.report_count o);
  let r = Option.get (Oracle.first_report o) in
  check_string "kind name" "tainted-pc" (Oracle.kind_name r.Oracle.kind);
  check_int "wire offset" 9 (Oracle.wire_offset r);
  check_int "source id" 0 (Oracle.source_id r);
  check_string "origin" "udp" r.Oracle.origin;
  (* Severity is the detection-point ordering. *)
  check_bool "severity ascending" true
    (Oracle.severity Oracle.Redzone_write
       < Oracle.severity Oracle.Ret_slot_overwrite
    && Oracle.severity Oracle.Ret_slot_overwrite
       < Oracle.severity Oracle.Tainted_pc
    && Oracle.severity Oracle.Tainted_pc
       < Oracle.severity Oracle.Tainted_syscall)

(* --- strict observer: a sanitized call is bit-identical to a plain one --- *)

(* Direct [Process.call]: outcome, step count, return value, and the
   whole register file must match with the oracle attached. *)
let test_differential_registers () =
  List.iter
    (fun arch ->
      let run ~sanitizer () =
        let d = Dnsproxy.create (mk_config arch Profile.wx 7) in
        let proc = Dnsproxy.process d in
        let wire = benign_wire d in
        let buf = proc.Loader.Process.layout.Loader.Layout.heap_base in
        Memsim.Memory.write_bytes proc.Loader.Process.mem buf wire;
        Loader.Process.call_named proc ?sanitizer ~fuel:400_000
          ~entry:"parse_response"
          ~args:[ buf; String.length wire ]
      in
      let p = run ~sanitizer:None () in
      let s = run ~sanitizer:(Some (Oracle.create ())) () in
      let a = Loader.Arch.name arch in
      check_bool (a ^ " outcome") true
        (p.Loader.Process.outcome = s.Loader.Process.outcome);
      check_int (a ^ " steps") p.Loader.Process.steps s.Loader.Process.steps;
      check_int (a ^ " ret") p.Loader.Process.ret s.Loader.Process.ret;
      Alcotest.(check (array int))
        (a ^ " register file") p.Loader.Process.regs s.Loader.Process.regs)
    Loader.Arch.all

(* --- the detection matrix --- *)

let test_detection_matrix () =
  let rows = E.detection_matrix ~seed:1 () in
  check_int "nine cells" 9 (List.length rows);
  List.iter
    (fun (r : E.detection_row) ->
      check_bool (r.E.det_cell ^ " ok") true r.E.det_ok;
      if String.length r.E.det_cell >= 6
         && String.sub r.E.det_cell 0 6 = "benign"
      then check_int (r.E.det_cell ^ " zero reports") 0 r.E.det_reports
      else begin
        check_bool (r.E.det_cell ^ " detected") true (r.E.det_reports > 0);
        let first = Option.get r.E.det_first in
        check_bool (r.E.det_cell ^ " caught before the hijack completes") true
          (Oracle.severity first.Oracle.kind
          <= Oracle.severity Oracle.Tainted_pc)
      end)
    rows

(* --- zero false positives over consecutive benign datagrams --- *)

let test_benign_stream_zero_fp () =
  List.iter
    (fun arch ->
      let d = Dnsproxy.create (mk_config arch Profile.wx 11) in
      let oracle = Oracle.create () in
      Dnsproxy.set_sanitizer d (Some oracle);
      for _ = 1 to 5 do
        match Dnsproxy.handle_response d (benign_wire d) with
        | Dnsproxy.Cached _ -> ()
        | other ->
            Alcotest.failf "%s: benign parse was %s" (Loader.Arch.name arch)
              (E.disposition_word other)
      done;
      check_int (Loader.Arch.name arch ^ " zero reports") 0
        (Oracle.report_count oracle))
    Loader.Arch.all

(* --- provenance round-trip: report bytes = wire bytes --- *)

(* A report's label was captured at detection time (the slot's shadow may
   be legitimately overwritten later — x86 stack shellcode pushes over
   its own return slot).  The label points at the wire byte that became
   the low byte of the reported value: follow it back into the exact
   datagram the daemon parsed. *)
let check_report_bytes arch wire (r : Oracle.report) =
  let a = Loader.Arch.name arch in
  let what = Oracle.kind_name r.Oracle.kind in
  check_string (Printf.sprintf "%s %s origin" a what) "udp" r.Oracle.origin;
  check_int (Printf.sprintf "%s %s source" a what) 0 (Oracle.source_id r);
  let off = Oracle.wire_offset r in
  check_bool
    (Printf.sprintf "%s %s offset within the datagram" a what)
    true
    (off >= 0 && off < String.length wire);
  check_int
    (Printf.sprintf "%s %s wire[%d] = low byte of 0x%x" a what off
       r.Oracle.target)
    (r.Oracle.target land 0xFF)
    (Char.code wire.[off])

(* Fire one exploit cell with the oracle attached, keeping the wire bytes
   the daemon saw, then check that both the return-slot overwrite and the
   control-flow hijack chain back to bytes of that datagram. *)
let provenance_roundtrip arch profile strategy =
  let config = mk_config arch profile 1 in
  let d = Dnsproxy.create config in
  let oracle = Oracle.create () in
  Dnsproxy.set_sanitizer d (Some oracle);
  let analysis =
    Dnsproxy.process
      (Dnsproxy.create { config with Dnsproxy.boot_seed = config.Dnsproxy.boot_seed + 5000 })
  in
  match Autogen.generate ~analysis:(Exploit.Target.connman analysis) ~strategy () with
  | Error e -> Alcotest.fail e
  | Ok (_, raw_name) -> (
      let query = Dnsproxy.make_query d lookup in
      let wire = Autogen.response_for ~query ~raw_name in
      (match Dnsproxy.handle_response d wire with
      | Dnsproxy.Compromised _ -> ()
      | other ->
          Alcotest.failf "%s: exploit was %s" (Loader.Arch.name arch)
            (E.disposition_word other));
      let find kind =
        match
          List.find_opt
            (fun (r : Oracle.report) -> r.Oracle.kind = kind)
            (Oracle.reports oracle)
        with
        | Some r -> r
        | None ->
            Alcotest.failf "%s: no %s report" (Loader.Arch.name arch)
              (Oracle.kind_name kind)
      in
      check_report_bytes arch wire (find Oracle.Ret_slot_overwrite);
      check_report_bytes arch wire (find Oracle.Tainted_pc))

let test_provenance_x86 () =
  (* E1: the 1-byte-NOP-sled code-injection path. *)
  provenance_roundtrip Loader.Arch.X86 Profile.none Autogen.Code_injection

let test_provenance_arm () =
  (* E4: the pop {…, pc} gadget-chain path under W^X. *)
  provenance_roundtrip Loader.Arch.Arm Profile.wx Autogen.Rop_wx

let () =
  Alcotest.run "sanitizer"
    [
      ( "shadow",
        [
          Alcotest.test_case "label roundtrip" `Quick test_label_roundtrip;
          Alcotest.test_case "join keeps first provenance" `Quick
            test_label_join;
          Alcotest.test_case "sparse map set/get/clear" `Quick test_shadow_map;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "redzone rule + dedup" `Quick test_redzone_rule;
          Alcotest.test_case "return-slot rule + lifecycle" `Quick
            test_ret_slot_rule;
          Alcotest.test_case "tainted pc / syscall rules" `Quick
            test_pc_and_syscall_rules;
        ] );
      ( "observer",
        [
          Alcotest.test_case "register-file identical on a direct call" `Quick
            test_differential_registers;
        ] );
      ( "detection",
        [
          Alcotest.test_case "all cells detected, benign clean" `Slow
            test_detection_matrix;
          Alcotest.test_case "benign stream has zero reports" `Quick
            test_benign_stream_zero_fp;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "x86 nop-sled wire round-trip" `Quick
            test_provenance_x86;
          Alcotest.test_case "arm pop-pc wire round-trip" `Quick
            test_provenance_arm;
        ] );
    ]
