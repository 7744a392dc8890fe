(* Defense laboratory: pit the automated exploit generator (§VII) against
   every protection configuration, including the §IV mitigations the
   paper proposes, on both architectures.

     dune exec examples/defense_lab.exe *)

module Dnsproxy = Connman.Dnsproxy
module Autogen = Exploit.Autogen
module Profile = Defense.Profile

let lookup = Dns.Name.of_string "ipv4.connman.net"

let attack arch profile =
  let config =
    {
      Dnsproxy.version = Connman.Version.v1_34;
      arch;
      profile;
      boot_seed = 3;
      diversity_seed = None;
    }
  in
  let victim = Dnsproxy.create config in
  let analysis =
    Dnsproxy.process (Dnsproxy.create { config with Dnsproxy.boot_seed = 10_003 })
  in
  match Autogen.generate ~analysis:(Exploit.Target.connman analysis) () with
  | Error e -> ("-", "generation failed: " ^ e)
  | Ok (payload, raw_name) ->
      let query = Dnsproxy.make_query victim lookup in
      let disposition =
        Dnsproxy.handle_response victim (Autogen.response_for ~query ~raw_name)
      in
      ( payload.Exploit.Payload.strategy,
        Format.asprintf "%a" Dnsproxy.pp_disposition disposition )

let () =
  Format.printf "== Defense lab: autogen vs every configuration ==@.@.";
  Format.printf "%-8s %-22s %-16s %s@." "arch" "protections" "strategy" "result";
  Format.printf "%s@." (String.make 96 '-');
  let profiles =
    [
      ("none", Profile.none);
      ("wx", Profile.wx);
      ("wx+aslr", Profile.wx_aslr);
      ("wx+canary", Profile.with_canary Profile.wx);
      ("wx+aslr+canary", Profile.with_canary Profile.wx_aslr);
      ("wx+aslr+shstk", Profile.with_shadow_stack Profile.wx_aslr);
      ("wx+aslr+canary+shstk", Profile.(with_shadow_stack (with_canary wx_aslr)));
    ]
  in
  List.iter
    (fun arch ->
      List.iter
        (fun (label, profile) ->
          let strategy, result = attack arch profile in
          Format.printf "%-8s %-22s %-16s %s@." (Loader.Arch.name arch) label
            strategy result)
        profiles)
    Loader.Arch.all;
  Format.printf "@.Takeaway: the paper's three levels (none, wx, wx+aslr) all fall;@.";
  Format.printf "the §IV mitigations (canary, CFI) stop every strategy.@."
