(* Tests for the zero-copy wire codec and the satellite codec fixes:
   view/arena behaviour, [Name.of_string] totality, count validation,
   the strictly-backward compression-pointer rule, round-trip
   properties, and the codec differential against [Dns.Legacy]. *)

module Name = Dns.Name
module Packet = Dns.Packet
module Wire = Dns.Wire
module Legacy = Dns.Legacy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let n = Name.of_string

let sample_response () =
  let query = Packet.query ~id:0x1A2B (n "www.example.com") Packet.A in
  Packet.response ~query
    [
      Packet.cname_record (n "www.example.com") ~ttl:600
        ~target:(n "web.example.com");
      Packet.a_record (n "web.example.com") ~ttl:300 ~ipv4:0x5DB8D822;
    ]

(* --- Name.of_string totality (regression) ---------------------------- *)

(* These all crashed or mis-parsed before the fix: "a..b" collapsed the
   empty label into ["a"; "b"], and labels longer than 63 bytes were
   accepted even though they cannot be wire-encoded. *)
let test_of_string_rejects_empty_labels () =
  Alcotest.check_raises "inner empty label"
    (Invalid_argument "Dns.Name.of_string: empty label in \"a..b\"")
    (fun () -> ignore (n "a..b"));
  Alcotest.check_raises "leading dot"
    (Invalid_argument "Dns.Name.of_string: empty label in \".a\"") (fun () ->
      ignore (n ".a"));
  Alcotest.(check (option (list string)))
    "of_string_opt mirrors" None
    (Name.of_string_opt "a..b")

let test_of_string_rejects_oversized_labels () =
  let big = String.make 64 'x' in
  Alcotest.check_raises "64-byte label"
    (Invalid_argument ("Dns.Name.of_string: label exceeds 63 bytes: "
                      ^ Printf.sprintf "%S" big))
    (fun () -> ignore (n (big ^ ".com")));
  (* 63 bytes is the wire maximum and must still work. *)
  let max = String.make 63 'x' in
  Alcotest.(check (list string)) "63-byte label ok" [ max; "com" ]
    (n (max ^ ".com"))

let test_of_string_trailing_dot () =
  Alcotest.(check (list string)) "FQDN dot stripped" [ "example"; "com" ]
    (n "example.com.");
  Alcotest.(check (list string)) "root" [] (n "");
  Alcotest.(check (list string)) "lone dot is root" [] (n ".")

(* --- count validation (regression) ----------------------------------- *)

(* Before the fix the u16 header fields silently wrapped: 65536 answers
   encoded as ancount 0 with 65536 RRs trailing. *)
let test_encode_rejects_wrapped_counts () =
  let rr = Packet.a_record (n "a.example") ~ttl:1 ~ipv4:1 in
  let q = Packet.query ~id:1 (n "a.example") Packet.A in
  let huge = List.init 65536 (fun _ -> rr) in
  Alcotest.check_raises "answers overflow"
    (Invalid_argument "Dns.Packet.encode: answers count exceeds 65535")
    (fun () -> ignore (Packet.encode { (Packet.response ~query:q []) with
                                       Packet.answers = huge }));
  Alcotest.check_raises "additionals overflow"
    (Invalid_argument "Dns.Packet.encode: additionals count exceeds 65535")
    (fun () ->
      ignore
        (Packet.encode
           { (Packet.response ~query:q []) with Packet.additionals = huge }))

(* --- strictly-backward pointers (regression) ------------------------- *)

let header12 = "\x00\x01\x81\x80\x00\x01\x00\x00\x00\x00\x00\x00"

let test_strict_rejects_forward_pointer () =
  (* name at 12 is a pointer to 15, which holds "foo": forward. *)
  let wire = header12 ^ "\xc0\x0f\x00\x03foo\x00" in
  (match Wire.name_labels wire 12 with
  | Error e -> check_string "forward rejected" "forward compression pointer" e
  | Ok _ -> Alcotest.fail "forward pointer accepted");
  (* ... but the permissive Connman walk follows it happily. *)
  match Name.expand_like_connman wire 12 with
  | Ok (raw, used) ->
      check_string "permissive expansion" "\x03foo" raw;
      check_int "pointer consumes two bytes" 2 used
  | Error e -> Alcotest.failf "permissive walk must accept: %s" e

let test_strict_rejects_self_pointer () =
  let wire = header12 ^ "\xc0\x0c\x00" in
  (match Wire.name_labels wire 12 with
  | Error e -> check_string "self rejected" "forward compression pointer" e
  | Ok _ -> Alcotest.fail "self-referential pointer accepted");
  (* Backward pointers — the legitimate kind — still decode. *)
  let wire2 = header12 ^ "\x03foo\x00" ^ "\x03bar\xc0\x0c" in
  match Wire.name_labels wire2 17 with
  | Ok (labels, used) ->
      Alcotest.(check (list string)) "backward ok" [ "bar"; "foo" ] labels;
      check_int "consumed" 6 used
  | Error e -> Alcotest.failf "backward pointer must decode: %s" e

(* --- the zero-copy view ---------------------------------------------- *)

let test_view_accessors () =
  let p = sample_response () in
  let wire = Packet.encode p in
  let v = Wire.create_view () in
  (match Wire.parse v wire with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok () -> ());
  check_int "id" 0x1A2B (Wire.id v);
  check_bool "qr" true (Wire.qr v);
  check_int "qdcount" 1 (Wire.qdcount v);
  check_int "ancount" 2 (Wire.ancount v);
  check_string "question name" "www.example.com"
    (Wire.name_to_string wire (Wire.question_name v 0));
  check_int "qtype" 1 (Wire.question_qtype v 0);
  check_int "rr 0 is CNAME" 5 (Wire.rr_rtype v 0);
  check_int "rr 1 is A" 1 (Wire.rr_rtype v 1);
  check_int "rr 1 ttl" 300 (Wire.rr_ttl v 1);
  check_int "rr 1 rdlen" 4 (Wire.rr_rdlen v 1);
  check_int "rr 1 rdata u32" 0x5DB8D822 (Wire.get_u32 wire (Wire.rr_rdata v 1));
  check_string "rr 1 owner" "web.example.com"
    (Wire.name_to_string wire (Wire.rr_name v 1));
  (* The view is reusable: parsing a different message overwrites it. *)
  let q = Packet.query ~id:7 (n "other.example") Packet.AAAA in
  (match Wire.parse v (Packet.encode q) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok () -> ());
  check_int "reused view id" 7 (Wire.id v);
  check_int "reused view ancount" 0 (Wire.ancount v)

let test_view_matches_decode () =
  let p = sample_response () in
  let wire = Packet.encode p in
  match Packet.decode wire with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok d ->
      check_bool "materialized decode agrees with builder" true (d = p)

(* --- arena vs legacy byte identity ----------------------------------- *)

let test_arena_matches_legacy_buffer () =
  let p = sample_response () in
  List.iter
    (fun compress ->
      check_string
        (Printf.sprintf "compress=%b" compress)
        (Legacy.encode ~compress p)
        (Packet.encode ~compress p))
    [ true; false ];
  check_bool "compression shrinks" true
    (String.length (Packet.encode ~compress:true p)
    < String.length (Packet.encode ~compress:false p))

(* Regression: the arena's suffix matcher used to read bytes beyond the
   write position, so a name could spuriously point at its own
   half-written suffix (caught by the codec differential).  Names whose
   labels contain NUL bytes are the easiest trigger. *)
let test_arena_no_self_match () =
  let name = [ "\x00"; "\x00" ] in
  let p =
    {
      (Packet.query ~id:3 [] Packet.A) with
      Packet.answers = [ { Packet.rname = name; rtype = Packet.A; ttl = 1;
                           rdata = "\x7f\x00\x00\x01" } ];
    }
  in
  let wire = Packet.encode ~compress:true p in
  check_string "arena = legacy" (Legacy.encode ~compress:true p) wire;
  match Packet.decode wire with
  | Ok d -> Alcotest.(check (list string)) "round-trips" name
              (List.hd d.Packet.answers).Packet.rname
  | Error e -> Alcotest.failf "must decode: %s" e

let test_arena_reuse () =
  let a = Wire.arena ~capacity:16 () in
  let p = sample_response () in
  Packet.encode_into a p;
  let first = Wire.contents a in
  Packet.encode_into a (Packet.query ~id:1 (n "q.example") Packet.A);
  let second = Wire.contents a in
  Packet.encode_into a p;
  check_string "arena reset is complete" first (Wire.contents a);
  check_bool "different messages differ" true (first <> second);
  check_string "matches one-shot encode" (Packet.encode p) first

(* --- round-trip properties ------------------------------------------- *)

let label_gen =
  QCheck.Gen.(
    let* len = int_range 1 8 in
    (* Bytes chosen to stress the compression table: repeats, NULs,
       dots, and high bytes. *)
    string_size ~gen:(oneofl [ 'a'; 'b'; '\x00'; '.'; '\xC0'; 'z' ]) (pure len))

let name_gen = QCheck.Gen.(list_size (int_range 0 4) label_gen)

let rr_gen =
  QCheck.Gen.(
    let* rname = name_gen in
    let* rtype = oneofl [ Packet.A; Packet.CNAME; Packet.NS; Packet.TXT ] in
    let* ttl = int_bound 0xFFFF in
    let* rdata =
      if Packet.qtype_code rtype = 1 then
        string_size ~gen:(char_range '\x00' '\xff') (pure 4)
      else
        (* Name-typed rdata must hold a wire-form name to re-encode
           byte-identically; TXT rdata is free-form. *)
        match rtype with
        | Packet.CNAME | Packet.NS ->
            let* target = name_gen in
            pure (Name.encode target)
        | _ -> string_size ~gen:(char_range '\x00' '\xff') (int_range 0 16)
    in
    pure { Packet.rname; rtype; ttl; rdata })

let packet_gen =
  QCheck.Gen.(
    let* id = int_bound 0xFFFF in
    let* qname = name_gen in
    let* answers = list_size (int_range 0 4) rr_gen in
    let* additionals = list_size (int_range 0 2) rr_gen in
    let q = Packet.query ~id qname Packet.A in
    pure
      { (Packet.response ~query:q answers) with Packet.additionals })

let packet_arb =
  QCheck.make ~print:(fun p -> Format.asprintf "%a" Packet.pp p) packet_gen

let prop_roundtrip_compressed =
  QCheck.Test.make ~name:"packet encode/decode round-trip (compressed)"
    ~count:500 packet_arb (fun p ->
      match Packet.decode (Packet.encode ~compress:true p) with
      | Ok d -> d = p
      | Error _ -> false)

let prop_roundtrip_uncompressed =
  QCheck.Test.make ~name:"packet encode/decode round-trip (uncompressed)"
    ~count:500 packet_arb (fun p ->
      match Packet.decode (Packet.encode ~compress:false p) with
      | Ok d -> d = p
      | Error _ -> false)

let prop_encoders_agree =
  QCheck.Test.make ~name:"arena encode = legacy encode" ~count:500 packet_arb
    (fun p ->
      Legacy.encode ~compress:true p = Packet.encode ~compress:true p
      && Legacy.encode ~compress:false p = Packet.encode ~compress:false p)

let prop_name_roundtrip =
  QCheck.Test.make ~name:"name encode/decode round-trip" ~count:500
    (QCheck.make name_gen) (fun labels ->
      let wire = header12 ^ Name.encode labels in
      match Wire.name_labels wire 12 with
      | Ok (d, used) -> d = labels && used = String.length (Name.encode labels)
      | Error _ -> false)

(* Bytes biased towards short label lengths and compression pointers, so
   a random string walks a few labels and jumps before it ends or fails. *)
let walker_bytes_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (3, map Char.chr (int_range 0 5)); (1, return '\xc0'); (2, char) ])
      (int_range 0 48))

let prop_walkers_agree =
  QCheck.Test.make ~name:"name_labels = Legacy.name_decode at every offset"
    ~count:1000 ~long_factor:50
    (QCheck.make ~print:(Printf.sprintf "%S") walker_bytes_gen)
    (fun msg ->
      List.for_all
        (fun off -> Wire.name_labels msg off = Legacy.name_decode msg off)
        (List.init (String.length msg + 1) Fun.id))

(* --- codec differential ---------------------------------------------- *)

let test_differential_pool_clean () =
  List.iter
    (fun wire ->
      match Fuzz.Differential.check wire with
      | [], _ -> ()
      | d :: _, _ ->
          Alcotest.failf "pool divergence at stage %s: %s vs %s"
            d.Fuzz.Differential.stage d.Fuzz.Differential.legacy
            d.Fuzz.Differential.zero_copy)
    (Fuzz.Differential.seed_pool ())

let test_differential_run () =
  let r = Fuzz.Differential.run ~seed:1 ~execs:10_000 () in
  check_int "no divergences in 10k mutants" 0 r.Fuzz.Differential.divergent;
  check_bool "both outcomes exercised" true
    (r.Fuzz.Differential.decode_ok > 100
    && r.Fuzz.Differential.decode_err > 100)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wire"
    [
      ( "name totality",
        [
          Alcotest.test_case "empty labels rejected" `Quick
            test_of_string_rejects_empty_labels;
          Alcotest.test_case "oversized labels rejected" `Quick
            test_of_string_rejects_oversized_labels;
          Alcotest.test_case "trailing dot" `Quick test_of_string_trailing_dot;
        ] );
      ( "count validation",
        [
          Alcotest.test_case "wrapped counts rejected" `Quick
            test_encode_rejects_wrapped_counts;
        ] );
      ( "pointer discipline",
        [
          Alcotest.test_case "forward pointer rejected" `Quick
            test_strict_rejects_forward_pointer;
          Alcotest.test_case "self pointer rejected" `Quick
            test_strict_rejects_self_pointer;
        ] );
      ( "view",
        [
          Alcotest.test_case "accessors" `Quick test_view_accessors;
          Alcotest.test_case "matches materializing decode" `Quick
            test_view_matches_decode;
        ] );
      ( "arena",
        [
          Alcotest.test_case "matches legacy buffer" `Quick
            test_arena_matches_legacy_buffer;
          Alcotest.test_case "no self-match past write position" `Quick
            test_arena_no_self_match;
          Alcotest.test_case "reuse resets completely" `Quick test_arena_reuse;
        ] );
      ( "properties",
        [
          qt prop_roundtrip_compressed;
          qt prop_roundtrip_uncompressed;
          qt prop_encoders_agree;
          qt prop_name_roundtrip;
          qt prop_walkers_agree;
        ] );
      ( "differential",
        [
          Alcotest.test_case "seed pool clean" `Quick
            test_differential_pool_clean;
          Alcotest.test_case "10k mutants, zero divergences" `Quick
            test_differential_run;
        ] );
    ]
