(* §V adaptation tests: the Connman exploit tooling retargeted to the
   dnsmasq-sim daemon by swapping frame geometry — "minimal modification".
   Every §III strategy must carry over, and the 2.78-style bound must
   stop them all. *)

module O = Machine.Outcome
module D = Dnsmasq.Daemon
open Exploit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let lookup = Dns.Name.of_string "upstream.example"

let daemon ?(patched = false) ~arch ~profile ?(seed = 17) () =
  D.create { D.patched; arch; profile; boot_seed = seed }

(* The §V "minimal modification": same toolkit, dnsmasq frame. *)
let dnsmasq_target proc =
  Target.make
    ~frame:(Dnsmasq.Frame.geometry proc.Loader.Process.arch)
    ~buffer_addr:(Dnsmasq.Frame.buffer_addr proc)
    proc

let fire d strategy =
  let analysis_proc =
    (* a separate boot of the same build *)
    D.process (daemon ~arch:(D.process d).Loader.Process.arch
                 ~profile:(D.process d).Loader.Process.profile ~seed:4242 ())
  in
  match Autogen.generate ~analysis:(dnsmasq_target analysis_proc) ~strategy () with
  | Error e -> Alcotest.fail ("generation failed: " ^ e)
  | Ok (_, raw_name) ->
      let query = D.make_query d lookup in
      D.handle_response d (Dns.Craft.hostile_response ~query ~raw_name ())

let expect_shell name d strategy =
  match fire d strategy with
  | D.Compromised reason -> check_bool (name ^ ": shell") true (O.is_shell reason)
  | other -> Alcotest.failf "%s: expected shell, got %a" name D.pp_disposition other

(* --- benign flow --- *)

let test_benign_parse () =
  List.iter
    (fun arch ->
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      let query = D.make_query d lookup in
      let wire =
        Dns.Packet.encode
          (Dns.Packet.response ~query
             [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:0x0A0B0C0D ])
      in
      match D.handle_response d wire with
      | D.Cached 1 -> check_bool "alive" true (D.alive d)
      | other ->
          Alcotest.failf "%s: expected Cached, got %a" (Loader.Arch.name arch)
            D.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_benign_parse_fills_cache () =
  let d = daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx () in
  let query = D.make_query d lookup in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query
         [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:0x0A0B0C0D ])
  in
  (match D.handle_response d wire with
  | D.Cached 1 -> ()
  | other -> Alcotest.failf "expected Cached, got %a" D.pp_disposition other);
  Alcotest.(check (option int))
    "answer cached" (Some 0x0A0B0C0D) (D.cache_lookup d lookup);
  D.tick d 61;
  Alcotest.(check (option int))
    "entry expires with the daemon clock" None (D.cache_lookup d lookup);
  let s = D.cache_stats d in
  check_int "one insertion" 1 s.Dns.Cache.insertions;
  check_bool "hit and miss both recorded" true
    (s.Dns.Cache.hits >= 1 && s.Dns.Cache.misses >= 1)

let test_nxdomain_negatively_cached () =
  let d = daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx () in
  let absent = Dns.Name.of_string "void.example" in
  let q = D.make_query d absent in
  let wire =
    Dns.Packet.encode
      {
        Dns.Packet.header =
          {
            q.Dns.Packet.header with
            Dns.Packet.qr = true;
            Dns.Packet.ra = true;
            Dns.Packet.rcode = Dns.Packet.NXDomain;
          };
        questions = q.Dns.Packet.questions;
        answers = [];
        authorities = [];
        additionals = [];
      }
  in
  (match D.handle_response d wire with
  | D.Dropped _ -> check_bool "alive" true (D.alive d)
  | other -> Alcotest.failf "expected Dropped, got %a" D.pp_disposition other);
  check_bool "negative entry" true
    (Dns.Cache.find (D.cache d) ~now:0 (Dns.Name.to_string absent)
    = Dns.Cache.Negative_hit);
  D.tick d (D.negative_ttl + 1);
  check_bool "negative entry expires" true
    (Dns.Cache.find (D.cache d) ~now:(D.negative_ttl + 1)
       (Dns.Name.to_string absent)
    = Dns.Cache.Miss)

let test_dos_crashes_277 () =
  List.iter
    (fun arch ->
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      let query = D.make_query d lookup in
      let wire =
        Dns.Craft.hostile_response ~query
          ~raw_name:(Dns.Craft.dos_name ~size:16384)
          ()
      in
      match D.handle_response d wire with
      | D.Crashed _ -> check_bool "dead" false (D.alive d)
      | other ->
          Alcotest.failf "%s: expected crash, got %a" (Loader.Arch.name arch)
            D.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_dos_survived_by_278 () =
  List.iter
    (fun arch ->
      let d = daemon ~patched:true ~arch ~profile:Defense.Profile.wx () in
      let query = D.make_query d lookup in
      let wire =
        Dns.Craft.hostile_response ~query
          ~raw_name:(Dns.Craft.dos_name ~size:16384)
          ()
      in
      match D.handle_response d wire with
      | D.Cached _ -> check_bool "alive" true (D.alive d)
      | other ->
          Alcotest.failf "%s: expected survival, got %a" (Loader.Arch.name arch)
            D.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

(* A CNAME + A response caches one record, and says so. *)
let test_cname_chain_counts_records () =
  let d = daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx () in
  let edge = Dns.Name.of_string "edge.example" in
  let query = D.make_query d lookup in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query
         [
           Dns.Packet.cname_record lookup ~ttl:60 ~target:edge;
           Dns.Packet.a_record edge ~ttl:60 ~ipv4:0x0A0B0C0D;
         ])
  in
  (match D.handle_response d wire with
  | D.Cached 1 -> ()
  | other -> Alcotest.failf "expected Cached 1, got %a" D.pp_disposition other);
  check_int "one insertion" 1 (D.cache_stats d).Dns.Cache.insertions;
  Alcotest.(check (option int))
    "the A record is cached under its owner" (Some 0x0A0B0C0D)
    (D.cache_lookup d edge)

(* --- one forwarder host: the same policy in both DNS daemons --- *)

(* The slice of a DNS daemon the host-policy table drives. *)
module type FORWARDER = sig
  type t

  val name : string
  val create : unit -> t
  val make_query : t -> Dns.Name.t -> Dns.Packet.t
  val handle_response : t -> string -> Connman.Forwarder.disposition
  val restart : t -> unit
  val alive : t -> bool
  val process : t -> Loader.Process.t
  val cache : t -> Dns.Cache.t
end

let forwarders : (module FORWARDER) list =
  [
    (module struct
      include Connman.Dnsproxy

      let name = "connmand"

      let create () = create { default_config with boot_seed = 17 }

      let handle_response t wire = handle_response t wire
    end);
    (module struct
      include D

      let name = "dnsmasq"
      let create () = daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx ()
    end);
  ]

let with_rcode rcode (p : Dns.Packet.t) =
  { p with Dns.Packet.header = { p.Dns.Packet.header with Dns.Packet.rcode } }

let answer_for query =
  Dns.Packet.response ~query [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:1 ]

(* The same response, but its question names another host. *)
let answer_for_other query =
  let other =
    Dns.Packet.query ~id:query.Dns.Packet.header.Dns.Packet.id
      (Dns.Name.of_string "other.example") Dns.Packet.A
  in
  Dns.Packet.response ~query:other [ Dns.Packet.a_record lookup ~ttl:60 ~ipv4:1 ]

(* (case, the wire to send for an outstanding query to [lookup],
   whether to restart in between, the expected drop reason) *)
let host_policy =
  [
    ( "SERVFAIL carrying an answer",
      (fun _ q ->
        Dns.Packet.encode (with_rcode Dns.Packet.ServFail (answer_for q))),
      false,
      "error rcode" );
    ( "question mismatch",
      (fun _ q -> Dns.Packet.encode (answer_for_other q)),
      false,
      "question mismatch" );
    ( "restart forgets outstanding ids",
      (fun _ q -> Dns.Packet.encode (answer_for q)),
      true,
      "unknown transaction id" );
    ( "oversized datagram",
      (fun proc q ->
        Dns.Packet.encode (answer_for q)
        ^ String.make proc.Loader.Process.layout.Loader.Layout.heap_size '\000'),
      false,
      "oversized datagram" );
    ( "NXDOMAIN with a second question",
      (fun _ q ->
        let nx = with_rcode Dns.Packet.NXDomain (answer_for q) in
        let qs = nx.Dns.Packet.questions in
        Dns.Packet.encode { nx with Dns.Packet.questions = qs @ qs }),
      false,
      "error rcode" );
    ( "NXDOMAIN for another question",
      (fun _ q ->
        Dns.Packet.encode
          (with_rcode Dns.Packet.NXDomain (answer_for_other q))),
      false,
      "error rcode" );
  ]

let test_host_policy () =
  List.iter
    (fun (module F : FORWARDER) ->
      List.iter
        (fun (case, wire, restart, reason) ->
          let d = F.create () in
          let q = F.make_query d lookup in
          if restart then F.restart d;
          let label = F.name ^ ": " ^ case in
          (match F.handle_response d (wire (F.process d) q) with
          | Connman.Forwarder.Dropped why ->
              Alcotest.(check string) label reason why
          | other ->
              Alcotest.failf "%s: expected Dropped, got %a" label
                D.pp_disposition other);
          check_bool (label ^ ": alive") true (F.alive d);
          List.iter
            (fun name ->
              check_bool (label ^ ": nothing cached for " ^ name) true
                (Dns.Cache.find (F.cache d) ~now:0 name = Dns.Cache.Miss))
            [ "upstream.example"; "other.example" ])
        host_policy)
    forwarders

(* --- frame geometry transfer --- *)

let test_buffer_is_2048 () =
  List.iter
    (fun arch ->
      let fr = Dnsmasq.Frame.geometry arch in
      check_int (Loader.Arch.name arch ^ ": buffer size") 2048
        fr.Machine.Stack_frame.buffer_size;
      check_bool "bigger frame than connman" true
        (fr.Machine.Stack_frame.off_ret
        > (Connman.Frame.geometry arch).Machine.Stack_frame.off_ret))
    [ Loader.Arch.X86; Loader.Arch.Arm ]

let test_overflow_reaches_ret () =
  List.iter
    (fun arch ->
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      let fr = Dnsmasq.Frame.geometry arch in
      let planted = 0x0D0A0D0C in
      let spec =
        Dns.Craft.spec_concat
          [
            Dns.Craft.spec_any fr.Machine.Stack_frame.off_ret;
            Dns.Craft.spec_fixed
              (String.init 4 (fun i -> Char.chr ((planted lsr (8 * i)) land 0xFF)));
          ]
      in
      let raw_name = Result.get_ok (Dns.Craft.plan_labels spec) in
      let query = D.make_query d lookup in
      match D.handle_response d (Dns.Craft.hostile_response ~query ~raw_name ()) with
      | D.Crashed (O.Fault f) ->
          check_int
            (Loader.Arch.name arch ^ ": planted pc reached")
            planted f.Memsim.Memory.addr
      | other ->
          Alcotest.failf "%s: expected planted fault, got %a"
            (Loader.Arch.name arch) D.pp_disposition other)
    [ Loader.Arch.X86; Loader.Arch.Arm ]

(* --- the full §III strategy matrix, retargeted --- *)

let test_adapted_code_injection () =
  expect_shell "x86 inject"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.none ())
    Autogen.Code_injection;
  expect_shell "arm inject"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.none ())
    Autogen.Code_injection

let test_adapted_ret2libc () =
  expect_shell "x86 ret2libc"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx ())
    Autogen.Ret2libc

let test_adapted_rop_wx_arm () =
  expect_shell "arm rop-wx"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx ())
    Autogen.Rop_wx

let test_adapted_rop_aslr () =
  expect_shell "x86 rop-aslr"
    (daemon ~arch:Loader.Arch.X86 ~profile:Defense.Profile.wx_aslr ())
    Autogen.Rop_aslr;
  expect_shell "arm rop-aslr"
    (daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.wx_aslr ())
    Autogen.Rop_aslr

let test_patched_resists_adapted_exploits () =
  List.iter
    (fun (arch, profile, strategy) ->
      let d = daemon ~patched:true ~arch ~profile () in
      match fire d strategy with
      | D.Compromised _ -> Alcotest.fail "2.78 compromised!"
      | D.Crashed r -> Alcotest.failf "2.78 crashed: %s" (O.to_string r)
      | D.Cached _ | D.Dropped _ | D.Blocked _ -> ())
    [
      (Loader.Arch.X86, Defense.Profile.wx, Autogen.Ret2libc);
      (Loader.Arch.Arm, Defense.Profile.wx, Autogen.Rop_wx);
      (Loader.Arch.Arm, Defense.Profile.wx_aslr, Autogen.Rop_aslr);
    ]

let test_connman_payload_does_not_transfer_as_is () =
  (* The point of §V's "minimal modification": a payload built for
     Connman's 1024-byte frame does *not* pop a shell on dnsmasq-sim —
     the geometry swap is necessary. *)
  let arch = Loader.Arch.Arm in
  let connman_analysis =
    Connman.Dnsproxy.process
      (Connman.Dnsproxy.create
         {
           Connman.Dnsproxy.version = Connman.Version.v1_34;
           arch;
           profile = Defense.Profile.wx;
           boot_seed = 3;
           diversity_seed = None;
         })
  in
  match
    Autogen.generate ~analysis:(Target.connman connman_analysis)
      ~strategy:Autogen.Rop_wx ()
  with
  | Error e -> Alcotest.fail e
  | Ok (_, raw_name) -> (
      let d = daemon ~arch ~profile:Defense.Profile.wx () in
      let query = D.make_query d lookup in
      match D.handle_response d (Dns.Craft.hostile_response ~query ~raw_name ()) with
      | D.Compromised _ ->
          Alcotest.fail "unadapted payload should not transfer verbatim"
      | D.Cached _ | D.Crashed _ | D.Dropped _ | D.Blocked _ -> ())

let test_canary_still_blocks () =
  let d =
    daemon ~arch:Loader.Arch.Arm ~profile:Defense.Profile.(with_canary wx) ()
  in
  match fire d Autogen.Rop_wx with
  | D.Blocked (O.Aborted _) -> ()
  | other -> Alcotest.failf "expected canary abort, got %a" D.pp_disposition other

let () =
  Alcotest.run "dnsmasq"
    [
      ( "daemon",
        [
          Alcotest.test_case "benign parse" `Quick test_benign_parse;
          Alcotest.test_case "benign parse fills cache" `Quick
            test_benign_parse_fills_cache;
          Alcotest.test_case "nxdomain negatively cached" `Quick
            test_nxdomain_negatively_cached;
          Alcotest.test_case "CNAME + A caches one record" `Quick
            test_cname_chain_counts_records;
          Alcotest.test_case "2.77 DoS" `Quick test_dos_crashes_277;
          Alcotest.test_case "2.78 survives" `Quick test_dos_survived_by_278;
        ] );
      ( "one forwarder host",
        [
          Alcotest.test_case "host policy, both daemons" `Quick
            test_host_policy;
        ] );
      ( "frame transfer",
        [
          Alcotest.test_case "2048-byte geometry" `Quick test_buffer_is_2048;
          Alcotest.test_case "overflow reaches ret" `Quick test_overflow_reaches_ret;
          Alcotest.test_case "connman payload needs adapting" `Quick
            test_connman_payload_does_not_transfer_as_is;
        ] );
      ( "adapted §III matrix",
        [
          Alcotest.test_case "code injection" `Quick test_adapted_code_injection;
          Alcotest.test_case "ret2libc" `Quick test_adapted_ret2libc;
          Alcotest.test_case "rop-wx (arm)" `Quick test_adapted_rop_wx_arm;
          Alcotest.test_case "rop-aslr" `Quick test_adapted_rop_aslr;
          Alcotest.test_case "2.78 resists all" `Quick
            test_patched_resists_adapted_exploits;
          Alcotest.test_case "canary blocks" `Quick test_canary_still_blocks;
        ] );
    ]
