(* The §III-D remote experiment: a Wi-Fi Pineapple impersonates the home
   SSID at higher power, hands the victim a rogue DNS server over DHCP,
   and the next Connman connectivity check delivers the exploit.

     dune exec examples/pineapple.exe *)

let say fmt = Format.printf (fmt ^^ "@.")

let run ~label ~profile =
  say "---- %s ----" label;
  let config =
    {
      Connman.Dnsproxy.version = Connman.Version.v1_34;
      arch = Loader.Arch.Arm;
      profile;
      boot_seed = 77;
      diversity_seed = None;
    }
  in
  (match Core.Scenario.pineapple_attack ~seed:5 ~config () with
  | Error e -> say "payload generation failed: %s" e
  | Ok r ->
      List.iter (fun l -> say "  %s" l) (Core.Device.events r.Core.Scenario.device);
      say "  => device is %s"
        (match Core.Device.state r.Core.Scenario.device with
        | `Online -> "still online"
        | `Crashed -> "crashed (DoS)"
        | `Compromised -> "COMPROMISED (root shell)"
        | `Blocked -> "protected (defense fired)"));
  say ""

let () =
  say "== Wi-Fi Pineapple man-in-the-middle (§III-D) ==";
  say "";
  run ~label:"vulnerable device, W⊕X + ASLR" ~profile:Defense.Profile.wx_aslr;
  run ~label:"same device with CFI (§IV mitigation)"
    ~profile:Defense.Profile.(with_shadow_stack wx_aslr);
  say "Patched firmware for comparison:";
  let config =
    {
      Connman.Dnsproxy.version = Connman.Version.v1_35;
      arch = Loader.Arch.Arm;
      profile = Defense.Profile.wx_aslr;
      boot_seed = 77;
      diversity_seed = None;
    }
  in
  match Core.Scenario.pineapple_attack ~seed:5 ~config () with
  | Error e -> say "generation failed: %s" e
  | Ok r -> Format.printf "%a@." Core.Scenario.pp_result r
