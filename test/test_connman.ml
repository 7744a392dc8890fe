(* Tests for the Connman simulation: versions, the vulnerable machine-code
   parse path on both architectures, and the daemon model. *)

module Mem = Memsim.Memory
module O = Machine.Outcome
open Connman

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let lookup_name = Dns.Name.of_string "ipv4.connman.net"

let mk ?(version = Version.v1_34) ?(arch = Loader.Arch.X86)
    ?(profile = Defense.Profile.wx) ?(seed = 1) ?diversity_seed () =
  Dnsproxy.create
    { Dnsproxy.version; arch; profile; boot_seed = seed; diversity_seed }

let benign_response query =
  Dns.Packet.encode
    (Dns.Packet.response ~query
       [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:0x5DB8D822 ])

(* --- version catalogue --- *)

let test_versions () =
  check_bool "1.34 vulnerable" true (Version.vulnerable Version.v1_34);
  check_bool "1.30 vulnerable" true (Version.vulnerable Version.v1_30);
  check_bool "1.35 fixed" false (Version.vulnerable Version.v1_35);
  check_string "to_string" "1.34" (Version.to_string Version.v1_34);
  check_bool "of_string" true (Version.of_string "1.31" = Some Version.v1_31);
  check_bool "of_string bad" true (Version.of_string "nope" = None);
  check_int "catalogue size" 6 (List.length Version.all)

(* --- benign flow --- *)

let benign_roundtrip arch =
  let d = mk ~arch () in
  let query = Dnsproxy.make_query d lookup_name in
  match Dnsproxy.handle_response d (benign_response query) with
  | Dnsproxy.Cached n ->
      check_int "one record" 1 n;
      check_bool "cache hit" true
        (Dnsproxy.cache_lookup d lookup_name = Some 0x5DB8D822);
      check_bool "daemon alive" true (Dnsproxy.alive d);
      check_bool "machine actually ran" true (Dnsproxy.last_steps d > 50)
  | other -> Alcotest.failf "expected Cached, got %a" Dnsproxy.pp_disposition other

let test_benign_x86 () = benign_roundtrip Loader.Arch.X86
let test_benign_arm () = benign_roundtrip Loader.Arch.Arm

let test_benign_compressed_answer_name () =
  (* Answer name given as a compression pointer back to the question —
     the normal real-world shape; exercises the pointer-following branch
     of the machine-code get_name. *)
  let d = mk () in
  let query = Dnsproxy.make_query d lookup_name in
  let wire =
    Dns.Packet.encode ~compress:true
      (Dns.Packet.response ~query
         [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:0x01020304 ])
  in
  (* sanity: compression actually produced a pointer *)
  check_bool "has pointer" true (String.contains wire '\xC0');
  match Dnsproxy.handle_response d wire with
  | Dnsproxy.Cached _ -> ()
  | other -> Alcotest.failf "expected Cached, got %a" Dnsproxy.pp_disposition other

let test_aaaa_response_also_reaches_vulnerable_path () =
  (* The paper selects Type A "for its universality" but notes AAAA also
     triggers: the owner-name expansion runs before the record type
     matters. *)
  let d = mk () in
  let query = Dnsproxy.make_query d lookup_name in
  let wire =
    Dns.Craft.hostile_response ~query
      ~raw_name:(Dns.Craft.dos_name ~size:8192)
      ~rdata:(String.make 16 '\x00') ()
  in
  (* Patch the answer type to AAAA (28): answer rtype sits right after the
     raw name within the answer record — rebuild via a manual response
     instead. *)
  ignore wire;
  let aaaa_wire =
    let buf = Buffer.create 256 in
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
    Buffer.add_string buf (Dns.Name.encode lookup_name);
    u16 (Dns.Packet.qtype_code Dns.Packet.A);
    u16 1;
    Buffer.add_string buf (Dns.Craft.dos_name ~size:8192);
    u16 (Dns.Packet.qtype_code Dns.Packet.AAAA);
    u16 1;
    u16 0;
    u16 300;
    u16 16;
    Buffer.add_string buf (String.make 16 '\x00');
    Buffer.contents buf
  in
  match Dnsproxy.handle_response d aaaa_wire with
  | Dnsproxy.Crashed _ -> ()
  | other -> Alcotest.failf "expected crash via AAAA, got %a" Dnsproxy.pp_disposition other

(* --- pre-validation (the paper's "must appear legitimate") --- *)

let test_prevalidation_drops () =
  let d = mk () in
  let query = Dnsproxy.make_query d lookup_name in
  let benign = benign_response query in
  (* Wrong transaction id. *)
  let wrong_id = Bytes.of_string benign in
  Bytes.set wrong_id 0 '\xDE';
  Bytes.set wrong_id 1 '\xAD';
  (match Dnsproxy.handle_response d (Bytes.to_string wrong_id) with
  | Dnsproxy.Dropped _ -> ()
  | other -> Alcotest.failf "id: expected Dropped, got %a" Dnsproxy.pp_disposition other);
  (* Not a response (QR clear). *)
  let not_resp = Bytes.of_string benign in
  Bytes.set not_resp 2 (Char.chr (Char.code benign.[2] land 0x7F));
  (match Dnsproxy.handle_response d (Bytes.to_string not_resp) with
  | Dnsproxy.Dropped _ -> ()
  | other -> Alcotest.failf "qr: expected Dropped, got %a" Dnsproxy.pp_disposition other);
  (* Unsolicited (no pending query recorded). *)
  let other_q = Dns.Packet.query ~id:0xBEEF lookup_name Dns.Packet.A in
  (match Dnsproxy.handle_response d (benign_response other_q) with
  | Dnsproxy.Dropped _ -> ()
  | other ->
      Alcotest.failf "pending: expected Dropped, got %a" Dnsproxy.pp_disposition
        other);
  check_bool "daemon survives all drops" true (Dnsproxy.alive d)

let test_question_mismatch_dropped () =
  let d = mk () in
  let query = Dnsproxy.make_query d lookup_name in
  let evil_q =
    Dns.Packet.query
      ~id:query.Dns.Packet.header.Dns.Packet.id
      (Dns.Name.of_string "evil.example") Dns.Packet.A
  in
  match Dnsproxy.handle_response d (benign_response evil_q) with
  | Dnsproxy.Dropped _ -> ()
  | other -> Alcotest.failf "expected Dropped, got %a" Dnsproxy.pp_disposition other

(* --- the CVE: DoS --- *)

let dos_response d =
  let query = Dnsproxy.make_query d lookup_name in
  Dns.Craft.hostile_response ~query ~raw_name:(Dns.Craft.dos_name ~size:8192) ()

let dos_crashes arch =
  let d = mk ~arch () in
  match Dnsproxy.handle_response d (dos_response d) with
  | Dnsproxy.Crashed (O.Fault f) ->
      check_bool "fault above the stack" true
        (f.Mem.addr >= (Dnsproxy.process d).Loader.Process.layout.Loader.Layout.stack_top);
      check_bool "daemon dead" false (Dnsproxy.alive d);
      (* Subsequent traffic is dropped: the DoS persists. *)
      let q2 = Dns.Packet.query ~id:1 lookup_name Dns.Packet.A in
      (match Dnsproxy.handle_response d (benign_response q2) with
      | Dnsproxy.Dropped _ -> ()
      | other ->
          Alcotest.failf "post-crash: expected Dropped, got %a"
            Dnsproxy.pp_disposition other)
  | other -> Alcotest.failf "expected Crashed, got %a" Dnsproxy.pp_disposition other

let test_dos_x86 () = dos_crashes Loader.Arch.X86
let test_dos_arm () = dos_crashes Loader.Arch.Arm

let test_dos_all_vulnerable_versions () =
  List.iter
    (fun version ->
      let d = mk ~version () in
      let got = Dnsproxy.handle_response d (dos_response d) in
      let crashed = match got with Dnsproxy.Crashed _ -> true | _ -> false in
      check_bool
        (Printf.sprintf "connman %s: %s" (Version.to_string version)
           (if Version.vulnerable version then "crashes" else "survives"))
        (Version.vulnerable version) crashed)
    Version.all

let test_patched_survives_dos () =
  let d = mk ~version:Version.v1_35 () in
  match Dnsproxy.handle_response d (dos_response d) with
  | Dnsproxy.Cached _ ->
      (* get_name bails out with -1; parse_response skips caching the
         machine-side record but returns cleanly.  Host-side cache update
         still runs off the (lenient) wire decode. *)
      check_bool "alive" true (Dnsproxy.alive d)
  | other -> Alcotest.failf "expected survival, got %a" Dnsproxy.pp_disposition other

let test_patched_survives_dos_arm () =
  let d = mk ~version:Version.v1_35 ~arch:Loader.Arch.Arm () in
  ignore (Dnsproxy.handle_response d (dos_response d));
  check_bool "alive" true (Dnsproxy.alive d)

let test_pointer_loop_hangs_vulnerable () =
  let d = mk () in
  let query = Dnsproxy.make_query d lookup_name in
  let wire =
    Dns.Craft.hostile_response ~query ~raw_name:(Dns.Craft.pointer_loop_name ()) ()
  in
  match Dnsproxy.handle_response d wire with
  | Dnsproxy.Crashed O.Fuel_exhausted -> ()
  | other -> Alcotest.failf "expected hang, got %a" Dnsproxy.pp_disposition other

let test_restart_recovers () =
  let d = mk () in
  ignore (Dnsproxy.handle_response d (dos_response d));
  check_bool "dead" false (Dnsproxy.alive d);
  Dnsproxy.restart d;
  check_bool "alive again" true (Dnsproxy.alive d);
  let query = Dnsproxy.make_query d lookup_name in
  match Dnsproxy.handle_response d (benign_response query) with
  | Dnsproxy.Cached _ -> ()
  | other -> Alcotest.failf "expected Cached, got %a" Dnsproxy.pp_disposition other

(* --- frame geometry: the "gdb analysis" must match the machine --- *)

let overflow_spec spec d =
  (* Send a crafted response whose expansion satisfies [spec]; returns the
     disposition and the planned wire name. *)
  let query = Dnsproxy.make_query d lookup_name in
  match Dns.Craft.plan_labels spec with
  | Error e -> Alcotest.fail ("planning: " ^ e)
  | Ok raw_name ->
      ( Dnsproxy.handle_response d (Dns.Craft.hostile_response ~query ~raw_name ()),
        raw_name )

let test_buffer_address_prediction () =
  List.iter
    (fun arch ->
      let d = mk ~arch () in
      let proc = Dnsproxy.process d in
      let predicted = Frame.buffer_addr proc in
      (* A short in-bounds payload; compare the guest buffer at the
         predicted address against the reference expansion. *)
      let disp, raw_name = overflow_spec (Dns.Craft.spec_any 32) d in
      (match disp with
      | Dnsproxy.Cached _ -> ()
      | other ->
          Alcotest.failf "marker parse: %a" Dnsproxy.pp_disposition other);
      let expected =
        match Dns.Name.expand_like_connman raw_name 0 with
        | Ok (stream, _) -> stream
        | Error e -> Alcotest.fail e
      in
      let got =
        Mem.peek_bytes proc.Loader.Process.mem predicted (String.length expected)
      in
      check_string
        (Loader.Arch.name arch ^ ": buffer where gdb said")
        expected got)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

(* Payload skeleton: don't-care filler, NULL words in the parse_rr pointer
   slots, and a fixed word in the return slot. *)
let ret_spec fr ret_bytes =
  Dns.Craft.spec_concat
    [
      Dns.Craft.spec_any fr.Frame.off_null1;
      Dns.Craft.spec_fixed (String.make 8 '\x00');
      Dns.Craft.spec_any (fr.Frame.off_ret - fr.Frame.off_null1 - 8);
      Dns.Craft.spec_fixed ret_bytes;
    ]

let test_overflow_reaches_ret_exactly () =
  (* Put a recognizable address in the return slot: control must transfer
     there (and fault, since it's unmapped). *)
  List.iter
    (fun arch ->
      let d = mk ~arch () in
      let fr = Frame.geometry arch in
      (* 0x0D0A0D0A: unmapped, recognizable, 4-byte aligned... 0x0D0A0D0A
         is not 4-aligned; use 0x0D0A0D0C for ARM pc alignment. *)
      let planted = if arch = Loader.Arch.Arm then 0x0D0A0D0C else 0x0D0A0D0A in
      let ret_bytes =
        String.init 4 (fun i -> Char.chr ((planted lsr (8 * i)) land 0xFF))
      in
      match fst (overflow_spec (ret_spec fr ret_bytes) d) with
      | Dnsproxy.Crashed (O.Fault f) ->
          check_int
            (Loader.Arch.name arch ^ ": pc landed on planted address")
            planted f.Mem.addr
      | other ->
          Alcotest.failf "%s: expected fault at planted pc, got %a"
            (Loader.Arch.name arch) Dnsproxy.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_arm_nonnull_ptr_slot_faults_in_parse_rr () =
  (* The §III-A2 obstacle: garbage in the pointer slots makes parse_rr
     dereference it and fault before any hijack.  0xCC can never be a
     label-length byte (>= 0xC0), so the fixed run survives planning
     as-is. *)
  let d = mk ~arch:Loader.Arch.Arm () in
  let fr = Frame.geometry Loader.Arch.Arm in
  let spec =
    Dns.Craft.spec_concat
      [
        Dns.Craft.spec_any fr.Frame.off_null1;
        Dns.Craft.spec_fixed (String.make 8 '\xCC');
        Dns.Craft.spec_any (fr.Frame.off_ret + 4 - fr.Frame.off_null1 - 8);
      ]
  in
  match fst (overflow_spec spec d) with
  | Dnsproxy.Crashed (O.Fault f) ->
      check_int "faulting deref of 0xCCCCCCCC" 0xCCCCCCCC f.Mem.addr
  | other -> Alcotest.failf "expected parse_rr fault, got %a" Dnsproxy.pp_disposition other

let test_guest_buffer_matches_reference_expansion () =
  (* Differential test: the machine-code get_name and the OCaml reference
     expander must agree byte-for-byte on a benign compressed name. *)
  let d = mk () in
  let proc = Dnsproxy.process d in
  let query = Dnsproxy.make_query d lookup_name in
  let wire =
    Dns.Packet.encode ~compress:true
      (Dns.Packet.response ~query
         [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:0x7F000001 ])
  in
  (match Dnsproxy.handle_response d wire with
  | Dnsproxy.Cached _ -> ()
  | other -> Alcotest.failf "parse: %a" Dnsproxy.pp_disposition other);
  let qlen = String.length (Dns.Name.encode lookup_name) in
  let answer_off = 12 + qlen + 4 in
  match Dns.Name.expand_like_connman wire answer_off with
  | Error e -> Alcotest.fail e
  | Ok (expected, _) ->
      let got =
        Mem.peek_bytes proc.Loader.Process.mem (Frame.buffer_addr proc)
          (String.length expected)
      in
      check_string "differential expansion" expected got

let test_guest_cache_store_syncs_bss () =
  (* A successful parse runs cache_store, which memcpy@plt's the first 16
     expanded bytes into the .bss cache slot — verify on both ISAs. *)
  List.iter
    (fun arch ->
      let d = mk ~arch () in
      let proc = Dnsproxy.process d in
      let query = Dnsproxy.make_query d lookup_name in
      let wire =
        Dns.Packet.encode ~compress:false
          (Dns.Packet.response ~query
             [ Dns.Packet.a_record lookup_name ~ttl:60 ~ipv4:1 ])
      in
      (match Dnsproxy.handle_response d wire with
      | Dnsproxy.Cached _ -> ()
      | other -> Alcotest.failf "parse: %a" Dnsproxy.pp_disposition other);
      let bss = Loader.Process.symbol proc "__bss_start" in
      let got = Mem.peek_bytes proc.Loader.Process.mem (bss + 0x200) 16 in
      (* Expansion of "ipv4.connman.net": 04 ipv4 07 connman … *)
      check_string
        (Loader.Arch.name arch ^ ": guest cache holds expansion prefix")
        "\x04ipv4\x07connman\x03ne" got)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

(* --- canary ablation (A3) --- *)

let test_canary_blocks_overflow () =
  List.iter
    (fun arch ->
      let profile = Defense.Profile.(with_canary wx) in
      let d = mk ~arch ~profile () in
      let fr = Frame.geometry arch in
      match fst (overflow_spec (ret_spec fr "\xAA\xAA\xAA\xAA") d) with
      | Dnsproxy.Blocked (O.Aborted _) -> ()
      | other ->
          Alcotest.failf "%s: expected canary abort, got %a"
            (Loader.Arch.name arch) Dnsproxy.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_canary_allows_benign () =
  let d = mk ~profile:Defense.Profile.(with_canary wx) () in
  let query = Dnsproxy.make_query d lookup_name in
  match Dnsproxy.handle_response d (benign_response query) with
  | Dnsproxy.Cached _ -> ()
  | other -> Alcotest.failf "expected Cached, got %a" Dnsproxy.pp_disposition other

(* --- defense cost on the hot path --- *)

(* What each defense costs a device per benign response, in guest
   instructions retired by the parse (seed 9, one A record).  The shadow
   stack, CFI and seccomp are host-enforced, as a hardware shadow stack
   or a kernel filter would be, so they cost none; canaries add the
   prologue/epilogue checks the compiler emits. *)
let test_defense_parse_cost () =
  let profiles =
    Defense.Profile.
      [
        ("none", none);
        ("wx", wx);
        ("wx+aslr", wx_aslr);
        ("wx+canary", with_canary wx);
        ("wx+aslr+shstk", with_shadow_stack wx_aslr);
        ("wx+seccomp", with_seccomp wx);
      ]
  in
  List.iter
    (fun (arch, plain, canary) ->
      List.iter
        (fun (label, profile) ->
          let d = mk ~arch ~profile ~seed:9 () in
          let query = Dnsproxy.make_query d lookup_name in
          let wire =
            Dns.Packet.encode
              (Dns.Packet.response ~query
                 [ Dns.Packet.a_record lookup_name ~ttl:300 ~ipv4:1 ])
          in
          let name = Printf.sprintf "%s %s" (Loader.Arch.name arch) label in
          (match Dnsproxy.handle_response d wire with
          | Dnsproxy.Cached _ -> ()
          | other ->
              Alcotest.failf "%s: expected Cached, got %a" name
                Dnsproxy.pp_disposition other);
          check_int name
            (if label = "wx+canary" then canary else plain)
            (Dnsproxy.last_steps d))
        profiles)
    [ (Loader.Arch.X86, 511, 519); (Loader.Arch.Arm, 451, 459) ]

(* --- diversity changes the image --- *)

let test_diversity_moves_symbols () =
  let base = mk () in
  let div = mk ~diversity_seed:99 () in
  let f = "get_name" in
  check_bool "symbol moved" true
    (Loader.Process.symbol (Dnsproxy.process base) f
    <> Loader.Process.symbol (Dnsproxy.process div) f);
  (* Both still work. *)
  let query = Dnsproxy.make_query div lookup_name in
  match Dnsproxy.handle_response div (benign_response query) with
  | Dnsproxy.Cached _ -> ()
  | other -> Alcotest.failf "diversified build broken: %a" Dnsproxy.pp_disposition other

let prop_benign_names_never_crash =
  QCheck.Test.make ~name:"benign responses never crash the daemon" ~count:60
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 5)
            (string_size ~gen:(char_range 'a' 'z') (int_range 1 30))))
    (fun labels ->
      let d = mk () in
      let qname = labels in
      let query = Dnsproxy.make_query d qname in
      let wire =
        Dns.Packet.encode
          (Dns.Packet.response ~query
             [ Dns.Packet.a_record qname ~ttl:60 ~ipv4:0x0A000001 ])
      in
      match Dnsproxy.handle_response d wire with
      | Dnsproxy.Cached _ -> Dnsproxy.alive d
      | _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "connman"
    [
      ("versions", [ Alcotest.test_case "catalogue" `Quick test_versions ]);
      ( "benign flow",
        [
          Alcotest.test_case "x86 round-trip" `Quick test_benign_x86;
          Alcotest.test_case "arm round-trip" `Quick test_benign_arm;
          Alcotest.test_case "compressed answer name" `Quick
            test_benign_compressed_answer_name;
          Alcotest.test_case "AAAA reaches the vulnerable path" `Quick
            test_aaaa_response_also_reaches_vulnerable_path;
          qt prop_benign_names_never_crash;
        ] );
      ( "pre-validation",
        [
          Alcotest.test_case "bad packets dropped" `Quick test_prevalidation_drops;
          Alcotest.test_case "question mismatch dropped" `Quick
            test_question_mismatch_dropped;
        ] );
      ( "denial of service",
        [
          Alcotest.test_case "x86 crash" `Quick test_dos_x86;
          Alcotest.test_case "arm crash" `Quick test_dos_arm;
          Alcotest.test_case "all versions" `Quick test_dos_all_vulnerable_versions;
          Alcotest.test_case "1.35 survives (x86)" `Quick test_patched_survives_dos;
          Alcotest.test_case "1.35 survives (arm)" `Quick
            test_patched_survives_dos_arm;
          Alcotest.test_case "pointer loop hangs" `Quick
            test_pointer_loop_hangs_vulnerable;
          Alcotest.test_case "restart recovers" `Quick test_restart_recovers;
        ] );
      ( "frame geometry",
        [
          Alcotest.test_case "buffer address prediction" `Quick
            test_buffer_address_prediction;
          Alcotest.test_case "overflow reaches ret exactly" `Quick
            test_overflow_reaches_ret_exactly;
          Alcotest.test_case "ARM ptr slots fault in parse_rr" `Quick
            test_arm_nonnull_ptr_slot_faults_in_parse_rr;
          Alcotest.test_case "guest/reference differential" `Quick
            test_guest_buffer_matches_reference_expansion;
          Alcotest.test_case "guest cache_store syncs .bss" `Quick
            test_guest_cache_store_syncs_bss;
        ] );
      ( "defenses",
        [
          Alcotest.test_case "canary blocks overflow" `Quick
            test_canary_blocks_overflow;
          Alcotest.test_case "canary allows benign" `Quick test_canary_allows_benign;
          Alcotest.test_case "guest instructions per benign parse" `Quick
            test_defense_parse_cost;
          Alcotest.test_case "diversity moves symbols" `Quick
            test_diversity_moves_symbols;
        ] );
    ]
