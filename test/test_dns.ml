(* Tests for the DNS wire codec and hostile crafting. *)

open Dns

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- names --- *)

let test_name_string_roundtrip () =
  check_string "dotted" "www.example.com"
    (Name.to_string (Name.of_string "www.example.com"));
  check_string "root" "." (Name.to_string (Name.of_string "."));
  check_bool "valid" true (Name.valid (Name.of_string "ipv4.connman.net"));
  check_bool "long label invalid" false (Name.valid [ String.make 64 'a' ])

let test_name_encode () =
  check_string "wire form" "\x03www\x07example\x03com\x00"
    (Name.encode (Name.of_string "www.example.com"))

let test_name_decode_simple () =
  let msg = "\x03www\x07example\x03com\x00rest" in
  match Wire.name_labels msg 0 with
  | Ok (labels, used) ->
      check_string "labels" "www.example.com" (Name.to_string labels);
      check_int "consumed" 17 used
  | Error e -> Alcotest.fail e

let test_name_decode_compressed () =
  (* "example.com" at 0; "www" + pointer-to-0 at 13. *)
  let msg = "\x07example\x03com\x00\x03www\xC0\x00" in
  match Wire.name_labels msg 13 with
  | Ok (labels, used) ->
      check_string "expanded" "www.example.com" (Name.to_string labels);
      check_int "pointer consumes 2 after label" 6 used
  | Error e -> Alcotest.fail e

let test_name_pointer_loop_rejected () =
  let msg = "\xC0\x00" in
  match Wire.name_labels msg 0 with
  | Ok _ -> Alcotest.fail "expected loop detection"
  | Error _ -> ()

let test_name_truncation_rejected () =
  (match Wire.name_labels "\x05ab" 0 with
  | Ok _ -> Alcotest.fail "expected truncation error"
  | Error _ -> ());
  match Wire.name_labels "\x03www" 0 with
  | Ok _ -> Alcotest.fail "expected missing terminator error"
  | Error _ -> ()

let test_expand_like_connman_is_raw_stream () =
  let msg = "\x03www\x07example\x03com\x00" in
  match Name.expand_like_connman msg 0 with
  | Ok (stream, used) ->
      check_string "stream = wire minus terminator" "\x03www\x07example\x03com"
        stream;
      check_int "consumed" 17 used
  | Error e -> Alcotest.fail e

let test_expand_like_connman_permissive () =
  (* A 100-byte label is invalid per RFC but accepted by the vulnerable
     parser. *)
  let msg = "\x64" ^ String.make 100 'A' ^ "\x00" in
  (match Wire.name_labels msg 0 with
  | Ok _ -> Alcotest.fail "strict decoder must reject length 100"
  | Error _ -> ());
  match Name.expand_like_connman msg 0 with
  | Ok (stream, _) -> check_int "copied verbatim" 101 (String.length stream)
  | Error e -> Alcotest.fail e

let prop_name_encode_decode =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 6)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 20)))
  in
  QCheck.Test.make ~name:"name encode/decode round-trip" ~count:300
    (QCheck.make ~print:(String.concat ".") gen)
    (fun labels ->
      match Wire.name_labels (Name.encode labels) 0 with
      | Ok (got, used) -> got = labels && used = String.length (Name.encode labels)
      | Error _ -> false)

(* --- packets --- *)

let q () = Packet.query ~id:0x1234 (Name.of_string "ipv4.connman.net") Packet.A

let test_packet_roundtrip () =
  let answers =
    [
      Packet.a_record (Name.of_string "ipv4.connman.net") ~ttl:60 ~ipv4:0x5DB8D822;
      Packet.a_record (Name.of_string "ipv4.connman.net") ~ttl:60 ~ipv4:0x01020304;
    ]
  in
  let m = Packet.response ~query:(q ()) answers in
  let wire = Packet.encode m in
  match Packet.decode wire with
  | Error e -> Alcotest.fail e
  | Ok got ->
      check_int "id" 0x1234 got.Packet.header.Packet.id;
      check_bool "qr" true got.Packet.header.Packet.qr;
      check_int "answers" 2 (List.length got.Packet.answers);
      let a = List.hd got.Packet.answers in
      check_string "qname echo" "ipv4.connman.net"
        (Name.to_string (List.hd got.Packet.questions).Packet.qname);
      check_bool "ipv4 round trip" true
        (Packet.ipv4_of_rdata a.Packet.rdata = Some 0x5DB8D822)

let test_packet_compression_smaller () =
  let answers =
    [ Packet.a_record (Name.of_string "ipv4.connman.net") ~ttl:60 ~ipv4:1 ]
  in
  let m = Packet.response ~query:(q ()) answers in
  let c = Packet.encode ~compress:true m in
  let u = Packet.encode ~compress:false m in
  check_bool "compression shrinks" true (String.length c < String.length u);
  (* Both decode to the same message. *)
  match (Packet.decode c, Packet.decode u) with
  | Ok a, Ok b ->
      check_string "same qname"
        (Name.to_string (List.hd a.Packet.questions).Packet.qname)
        (Name.to_string (List.hd b.Packet.questions).Packet.qname);
      check_string "same rname"
        (Name.to_string (List.hd a.Packet.answers).Packet.rname)
        (Name.to_string (List.hd b.Packet.answers).Packet.rname)
  | _ -> Alcotest.fail "decode failed"

let test_packet_rejects_short () =
  match Packet.decode "short" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let prop_packet_roundtrip =
  let gen =
    QCheck.Gen.(
      let name =
        list_size (int_range 1 4)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 10))
      in
      let* id = int_bound 0xFFFF in
      let* qname = name in
      let* n_answers = int_range 0 5 in
      let* ips = list_size (return n_answers) (int_bound 0x3FFFFFFF) in
      let query = Packet.query ~id qname Packet.A in
      return (Packet.response ~query (List.map (fun ip -> Packet.a_record qname ~ttl:60 ~ipv4:(ip land 0xFFFFFFFF)) ips)))
  in
  QCheck.Test.make ~name:"packet encode/decode round-trip" ~count:200
    (QCheck.make gen)
    (fun m ->
      match Packet.decode (Packet.encode m) with
      | Ok got ->
          got.Packet.header.Packet.id = m.Packet.header.Packet.id
          && List.length got.Packet.answers = List.length m.Packet.answers
          && List.map (fun (r : Packet.rr) -> r.Packet.rdata) got.Packet.answers
             = List.map (fun (r : Packet.rr) -> r.Packet.rdata) m.Packet.answers
      | Error _ -> false)

(* --- the label layout planner --- *)

let expand_ok wire =
  match Name.expand_like_connman wire 0 with
  | Ok (stream, _) -> stream
  | Error e -> Alcotest.fail ("expansion failed: " ^ e)

let test_plan_all_any () =
  match Craft.plan_labels (Craft.spec_any 500) with
  | Error e -> Alcotest.fail e
  | Ok wire ->
      let stream = expand_ok wire in
      check_int "expansion length" 500 (String.length stream)

let test_plan_fixed_payload_with_gaps () =
  (* 4 fixed bytes, a don't-care, 4 fixed bytes … — like a ROP chain with
     placeholder slots. *)
  let spec =
    Craft.spec_concat
      [
        Craft.spec_any 1;
        Craft.spec_fixed "\xB1\x12\x01\x00";
        Craft.spec_any 1;
        Craft.spec_fixed "\xE4\x53\xD8\x76";
        Craft.spec_any 1;
      ]
  in
  match Craft.plan_labels spec with
  | Error e -> Alcotest.fail e
  | Ok wire ->
      let stream = expand_ok wire in
      check_string "fixed bytes preserved" "\xB1\x12\x01\x00"
        (String.sub stream 1 4);
      check_string "second word preserved" "\xE4\x53\xD8\x76"
        (String.sub stream 6 4)

let test_plan_nop_sled_self_consistent () =
  (* A sled of 0x90 bytes is self-consistent (0x90 = 144 is a legal
     permissive label length) but *rigid*: every boundary inside it forces
     a 145-byte stride.  A feasible layout therefore sizes the sled as a
     whole number of 145-byte strides and follows the code with don't-care
     slack — exactly what the exploit builder does. *)
  let spec =
    Craft.spec_concat
      [
        Array.make 290 (Craft.Fixed '\x90');
        Craft.spec_fixed "\x31\xC0\x50";
        Craft.spec_any 60;
      ]
  in
  match Craft.plan_labels spec with
  | Error e -> Alcotest.fail e
  | Ok wire ->
      let stream = expand_ok wire in
      check_int "length" 353 (String.length stream);
      check_string "sled intact" (String.make 290 '\x90') (String.sub stream 0 290);
      check_string "code intact" "\x31\xC0\x50" (String.sub stream 290 3)

let test_plan_impossible_long_fixed_run () =
  (* 300 fixed non-length bytes cannot host a boundary. *)
  let spec = Array.make 300 (Craft.Fixed '\xFF') in
  match Craft.plan_labels spec with
  | Ok _ -> Alcotest.fail "expected planning failure"
  | Error _ -> ()

let test_plan_strict_rfc_mode () =
  match Craft.plan_labels ~label_max:63 (Craft.spec_any 200) with
  | Error e -> Alcotest.fail e
  | Ok wire ->
      (* Must also parse with the strict decoder. *)
      (match Wire.name_labels wire 0 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("strict decode: " ^ e));
      check_int "expansion" 200 (String.length (expand_ok wire))

let gen_spec : Craft.byte_spec array QCheck.Gen.t =
  QCheck.Gen.(
    let* n = int_range 1 1200 in
    let* density = int_range 2 12 in
    array_size (return n)
      (let* fixed = int_bound density in
       if fixed = 0 then return Craft.Any
       else
         let* c = char in
         return (Craft.Fixed c)))

let prop_planner_sound =
  QCheck.Test.make ~name:"planned layout expands to the spec" ~count:300
    (QCheck.make gen_spec)
    (fun spec ->
      match Craft.plan_labels spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok wire -> (
          match Name.expand_like_connman wire 0 with
          | Error _ -> false
          | Ok (stream, consumed) ->
              consumed = String.length wire
              && String.length stream = Array.length spec
              && Array.for_all
                   (fun x -> x)
                   (Array.mapi
                      (fun i b ->
                        match b with
                        | Craft.Fixed c -> stream.[i] = c
                        | Craft.Any -> true)
                      spec)))

let prop_planner_total_on_sparse_specs =
  (* With a don't-care at least every 100 bytes, planning must succeed. *)
  QCheck.Test.make ~name:"planner succeeds on sparse specs" ~count:200
    QCheck.(int_range 1 15)
    (fun blocks ->
      let spec =
        Craft.spec_concat
          (List.concat_map
             (fun _ -> [ Craft.spec_any 1; Craft.spec_fixed (String.make 90 '\xFE') ])
             (List.init blocks Fun.id))
      in
      Result.is_ok (Craft.plan_labels spec))

(* --- hostile responses --- *)

let test_hostile_response_passes_validation () =
  let query = q () in
  let raw_name = Result.get_ok (Craft.plan_labels (Craft.spec_any 64)) in
  let wire = Craft.hostile_response ~query ~raw_name () in
  (* The skeleton decodes as a legitimate-looking response (the answer name
     is RFC-invalid only in its label lengths when > 63; with Any it uses
     max-length labels, so strict decode fails; but header/question checks
     pass). *)
  check_int "id echoed" 0x1234
    ((Char.code wire.[0] lsl 8) lor Char.code wire.[1]);
  check_bool "qr set" true (Char.code wire.[2] land 0x80 <> 0);
  check_int "ancount" 1 ((Char.code wire.[6] lsl 8) lor Char.code wire.[7])

let test_hostile_response_name_at_answer () =
  let query = q () in
  (* Position 0 of the expansion is always a length byte, so payloads lead
     with a don't-care slot. *)
  let spec = Craft.spec_concat [ Craft.spec_any 1; Craft.spec_fixed "ABC" ] in
  let raw_name = Result.get_ok (Craft.plan_labels spec) in
  let wire = Craft.hostile_response ~query ~raw_name () in
  (* Answer offset: 12 header + question (18 for ipv4.connman.net + 4). *)
  let qlen = String.length (Name.encode (Name.of_string "ipv4.connman.net")) in
  let off = 12 + qlen + 4 in
  match Name.expand_like_connman wire off with
  | Ok (stream, _) -> check_string "payload recovered" "ABC" (String.sub stream 1 3)
  | Error e -> Alcotest.fail e

let test_dos_name_expands_big () =
  let wire = Craft.dos_name ~size:8192 in
  match Name.expand_like_connman wire 0 with
  | Ok (stream, _) -> check_bool "big" true (String.length stream > 8192)
  | Error e -> Alcotest.fail e

let test_pointer_loop_response () =
  let query = q () in
  let wire =
    Craft.hostile_response ~query ~raw_name:(Craft.pointer_loop_name ()) ()
  in
  let qlen = String.length (Name.encode (Name.of_string "ipv4.connman.net")) in
  let off = 12 + qlen + 4 in
  (* Both the strict and the permissive expander must detect/err: the
     vulnerable machine-code path is the one that hangs. *)
  check_bool "strict rejects" true (Result.is_error (Wire.name_labels wire off));
  check_bool "permissive detects loop" true
    (Result.is_error (Name.expand_like_connman wire off))

(* --- crafting against the pre-change construction (kept in
   [Reference]) --- *)

(* Any id, opcode and RD bit; question names with labels of 0-70 bytes,
   so some must raise as [Name.encode] does; any qtype; no question now
   and then; answer names of 0-9000 bytes and the pointer loop; any ttl
   and rdata. *)
let gen_craft =
  let open QCheck.Gen in
  let label =
    string_size ~gen:printable
      (frequency [ (20, int_range 1 63); (1, return 0); (1, int_range 64 70) ])
  in
  let qtype =
    frequency
      [
        (4, oneofl Packet.[ A; AAAA; CNAME; NS; PTR; MX; TXT ]);
        (1, map (fun n -> Packet.Unknown n) (int_bound 0x1FFFF));
      ]
  in
  let question = map2 (fun qname qtype -> { Packet.qname; qtype }) (list_size (int_bound 5) label) qtype in
  let query =
    map4
      (fun id opcode rd questions ->
        let q = Packet.query ~id ~rd [] Packet.A in
        { q with Packet.header = { q.Packet.header with Packet.opcode }; questions })
      (int_range (-5) 0x1FFFF) (int_bound 31) bool
      (frequency [ (12, map (fun q -> [ q ]) question); (1, return []); (1, list_size (return 2) question) ])
  in
  let raw_name =
    frequency
      [
        (6, string_size (int_bound 600));
        (2, string_size (int_bound 9000));
        (1, return (Craft.pointer_loop_name ()));
      ]
  in
  quad query raw_name (opt (int_range (-5) 0x1_FFFF_FFFF)) (opt (string_size (int_bound 300)))

let print_craft (query, raw_name, ttl, rdata) =
  Printf.sprintf "id %d, questions [%s], raw name %d bytes%s, ttl %s, rdata %s"
    query.Packet.header.Packet.id
    (String.concat "; "
       (List.map
          (fun q -> String.concat "." (List.map (fun l -> string_of_int (String.length l)) q.Packet.qname))
          query.Packet.questions))
    (String.length raw_name)
    (if raw_name == Craft.pointer_loop_name () then " (pointer loop)" else "")
    (Option.fold ~none:"default" ~some:string_of_int ttl)
    (Option.fold ~none:"default" ~some:(fun r -> string_of_int (String.length r) ^ " bytes") rdata)

let crafted f = match f () with w -> Ok w | exception Invalid_argument m -> Error m

let prop_hostile_response_as_before =
  QCheck.Test.make ~name:"hostile_response = the pre-change construction" ~count:500
    ~long_factor:20 (QCheck.make ~print:print_craft gen_craft)
    (fun (query, raw_name, ttl, rdata) ->
      crafted (fun () -> Craft.hostile_response ~query ?ttl ?rdata ~raw_name ())
      = crafted (fun () -> Reference.Craft.hostile_response ~query ?ttl ?rdata ~raw_name ()))

let dos_sizes = [ -1_000_000; -65; -64; -1; 0; 1; 62; 63; 64; 65; 127; 128; 8191; 8192; 8193 ]

let test_dos_name_as_before () =
  List.iter
    (fun size ->
      check_string (Printf.sprintf "size %d" size) (Reference.Craft.dos_name ~size)
        (Craft.dos_name ~size))
    dos_sizes

let prop_dos_name_as_before =
  QCheck.Test.make ~name:"dos_name = the pre-change construction" ~count:300 ~long_factor:20
    QCheck.(int_range (-300) 20_000)
    (fun size -> Craft.dos_name ~size = Reference.Craft.dos_name ~size)

(* Words [f] allocates straight on the major heap (promotions aside). *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* A DoS wire is its name and the wire, 8.3 KB each; an exploit cell's
   answer name (a few hundred bytes, 1 KB here) is small enough that its
   wire goes on the minor heap. *)
let test_craft_allocation () =
  let query = q () in
  let kib words = words *. float_of_int (Sys.word_size / 8) /. 1024. in
  let dos =
    direct_major_words (fun () ->
        Craft.hostile_response ~query ~raw_name:(Craft.dos_name ~size:8192) ())
  in
  check_bool (Printf.sprintf "a DoS craft allocates %.1f KiB on the major heap, at most 25" (kib dos))
    true
    (kib dos <= 25.);
  let raw_name = String.make 1024 '\x41' in
  let cell = direct_major_words (fun () -> Craft.hostile_response ~query ~raw_name ()) in
  Alcotest.(check (float 0.)) "an exploit cell's craft allocates nothing on the major heap" 0. cell

(* --- codec regressions ---

   Three bugs found while building the fuzzer, each with a test that
   fails on the pre-fix code. *)

(* Pre-fix, [Packet.encode] emitted any label length verbatim: 64..191
   collides with the reserved 0x40/0x80 bit patterns, >= 192 reads back
   as a compression pointer, and >= 256 crashed [Char.chr] with its own
   unhelpful message.  Now every bad length is rejected up front. *)
let test_encode_rejects_bad_labels () =
  let encode_with_label label =
    Packet.encode (Packet.query ~id:1 [ label; "example"; "com" ] Packet.A)
  in
  Alcotest.check_raises "64 rejected (reserved bits)"
    (Invalid_argument "Dns.Packet.encode: bad label length 64")
    (fun () -> ignore (encode_with_label (String.make 64 'a')));
  Alcotest.check_raises "192 rejected (pointer tag)"
    (Invalid_argument "Dns.Packet.encode: bad label length 192")
    (fun () -> ignore (encode_with_label (String.make 192 'a')));
  Alcotest.check_raises "300 rejected cleanly (was a Char.chr crash)"
    (Invalid_argument "Dns.Packet.encode: bad label length 300")
    (fun () -> ignore (encode_with_label (String.make 300 'a')));
  Alcotest.check_raises "empty label rejected"
    (Invalid_argument "Dns.Packet.encode: bad label length 0")
    (fun () -> ignore (encode_with_label ""));
  (* 63 is the RFC maximum and must still encode and round-trip. *)
  let wire = encode_with_label (String.make 63 'a') in
  match Packet.decode wire with
  | Ok m ->
      check_string "63-byte label round-trips"
        (String.make 63 'a')
        (List.hd (List.hd m.Packet.questions).Packet.qname)
  | Error e -> Alcotest.fail e

(* A CNAME/NS/PTR rdata is a domain name and may compress against the
   enclosing message.  Pre-fix, decode stored the raw rdata slice, so a
   compression pointer inside it indexed a message that was no longer
   there and [cname_of_rdata] returned [None] (or worse, wrong labels).
   The wire below answers "host.example.com A?" with a CNAME whose
   target is "alias" + pointer to "example.com" inside the question. *)
let compressed_cname_wire ~rtype_code ~rdlen =
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  in
  u16 0x0777;
  u16 0x8180;
  u16 1 (* qd *);
  u16 1 (* an *);
  u16 0;
  u16 0;
  (* question at 12: "host" at 12, "example" at 17, "com" at 25 *)
  Buffer.add_string buf "\x04host\x07example\x03com\x00";
  u16 1 (* A *);
  u16 1 (* IN *);
  (* answer: name = pointer to the qname at 12 *)
  u16 0xC00C;
  u16 rtype_code;
  u16 1;
  u16 0;
  u16 60 (* ttl *);
  u16 rdlen;
  Buffer.add_string buf "\x05alias\xC0\x11" (* "alias" + ptr to offset 17 *);
  Buffer.contents buf

let test_rdata_compressed_name_expanded () =
  List.iter
    (fun (rtype_code, rtype) ->
      match Packet.decode (compressed_cname_wire ~rtype_code ~rdlen:8) with
      | Error e -> Alcotest.fail e
      | Ok m ->
          let rr = List.hd m.Packet.answers in
          check_bool "rtype decoded" true (rr.Packet.rtype = rtype);
          (* The stored rdata is the *uncompressed* wire form... *)
          check_string "rdata expanded against the message"
            "\x05alias\x07example\x03com\x00" rr.Packet.rdata;
          (* ...so the slice decodes in isolation. *)
          match Packet.cname_of_rdata rr.Packet.rdata with
          | Some labels ->
              check_string "full target recovered" "alias.example.com"
                (Name.to_string labels)
          | None -> Alcotest.fail "cname_of_rdata lost the compressed target")
    [ (5, Packet.CNAME); (2, Packet.NS); (12, Packet.PTR) ]

let test_rdata_name_overrun_rejected () =
  (* An rdlen lying short (name needs 8 bytes, rdlen says 2) must be an
     error, not a silent mis-slice. *)
  check_bool "short rdlen rejected" true
    (Result.is_error (Packet.decode (compressed_cname_wire ~rtype_code:5 ~rdlen:2)))

(* Pre-fix, [rcode_of_code] collapsed every code >= 6 to [Refused]:
   YXDomain(6) ... BADVERS(16 truncated) all looked like policy refusals
   to the cache layer.  Now unknown codes are preserved verbatim. *)
let test_rcode_preserved () =
  for code = 0 to 15 do
    let wire =
      let buf = Buffer.create 12 in
      let u16 v =
        Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
        Buffer.add_char buf (Char.chr (v land 0xFF))
      in
      u16 0x0042;
      u16 (0x8000 lor code);
      u16 0; u16 0; u16 0; u16 0;
      Buffer.contents buf
    in
    match Packet.decode wire with
    | Error e -> Alcotest.fail e
    | Ok m ->
        check_int
          (Printf.sprintf "rcode %d survives decode" code)
          code
          (Packet.rcode_code m.Packet.header.Packet.rcode);
        (* And survives a full encode/decode round trip. *)
        (match Packet.decode (Packet.encode m) with
        | Ok m' ->
            check_int
              (Printf.sprintf "rcode %d survives re-encode" code)
              code
              (Packet.rcode_code m'.Packet.header.Packet.rcode)
        | Error e -> Alcotest.fail e)
  done;
  (* The known codes still map to their named constructors. *)
  check_bool "5 is still Refused" true (Packet.rcode_of_code 5 = Packet.Refused);
  check_bool "11 is preserved raw" true
    (Packet.rcode_of_code 11 = Packet.Unknown_rcode 11)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dns"
    [
      ( "names",
        [
          Alcotest.test_case "string round-trip" `Quick test_name_string_roundtrip;
          Alcotest.test_case "wire encode" `Quick test_name_encode;
          Alcotest.test_case "decode simple" `Quick test_name_decode_simple;
          Alcotest.test_case "decode compressed" `Quick test_name_decode_compressed;
          Alcotest.test_case "pointer loop rejected" `Quick
            test_name_pointer_loop_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_name_truncation_rejected;
          Alcotest.test_case "vulnerable expansion = raw stream" `Quick
            test_expand_like_connman_is_raw_stream;
          Alcotest.test_case "vulnerable expansion permissive" `Quick
            test_expand_like_connman_permissive;
          qt prop_name_encode_decode;
        ] );
      ( "packets",
        [
          Alcotest.test_case "response round-trip" `Quick test_packet_roundtrip;
          Alcotest.test_case "compression shrinks + agrees" `Quick
            test_packet_compression_smaller;
          Alcotest.test_case "short message rejected" `Quick test_packet_rejects_short;
          qt prop_packet_roundtrip;
        ] );
      ( "label planner",
        [
          Alcotest.test_case "all don't-care" `Quick test_plan_all_any;
          Alcotest.test_case "fixed payload with gaps" `Quick
            test_plan_fixed_payload_with_gaps;
          Alcotest.test_case "NOP sled self-consistent" `Quick
            test_plan_nop_sled_self_consistent;
          Alcotest.test_case "impossible fixed run" `Quick
            test_plan_impossible_long_fixed_run;
          Alcotest.test_case "strict RFC mode" `Quick test_plan_strict_rfc_mode;
          qt prop_planner_sound;
          qt prop_planner_total_on_sparse_specs;
        ] );
      ( "codec regressions",
        [
          Alcotest.test_case "encode rejects bad label lengths" `Quick
            test_encode_rejects_bad_labels;
          Alcotest.test_case "compressed rdata names expanded" `Quick
            test_rdata_compressed_name_expanded;
          Alcotest.test_case "rdata name overrun rejected" `Quick
            test_rdata_name_overrun_rejected;
          Alcotest.test_case "rcodes 6..15 preserved" `Quick test_rcode_preserved;
        ] );
      ( "hostile responses",
        [
          Alcotest.test_case "passes validation" `Quick
            test_hostile_response_passes_validation;
          Alcotest.test_case "payload at answer offset" `Quick
            test_hostile_response_name_at_answer;
          Alcotest.test_case "DoS name expands big" `Quick test_dos_name_expands_big;
          Alcotest.test_case "pointer-loop response" `Quick test_pointer_loop_response;
          Alcotest.test_case "dos_name sizes as before" `Quick test_dos_name_as_before;
          Alcotest.test_case "crafting allocation" `Quick test_craft_allocation;
          qt prop_hostile_response_as_before;
          qt prop_dos_name_as_before;
        ] );
    ]
