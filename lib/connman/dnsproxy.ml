type disposition = Forwarder.disposition =
  | Cached of int
  | Dropped of string
  | Crashed of Machine.Outcome.stop_reason
  | Compromised of Machine.Outcome.stop_reason
  | Blocked of Machine.Outcome.stop_reason

let pp_disposition = Forwarder.pp_disposition

type config = {
  version : Version.t;
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;
  diversity_seed : int option;
}

let default_config =
  {
    version = Version.v1_34;
    arch = Loader.Arch.X86;
    profile = Defense.Profile.wx;
    boot_seed = 1;
    diversity_seed = None;
  }

include Forwarder.Make (struct
  type nonrec config = config

  let daemon =
    {
      Loader.Service.track = "connmand";
      entry = Program_x86.entry;
      frame = Frame.geometry;
      buffer_addr = Frame.buffer_addr;
    }

  let id_base = 0x1000

  let spec c =
    let version = c.version and profile = c.profile in
    match (c.arch, c.diversity_seed) with
    | Loader.Arch.X86, None -> (Program_x86.spec ~version ~profile (), None)
    | Loader.Arch.Arm, None -> (Program_arm.spec ~version ~profile (), None)
    | Loader.Arch.X86, Some seed ->
        let spec, plan = Program_x86.variant ~version ~profile ~seed in
        (spec, Some plan)
    | Loader.Arch.Arm, Some seed ->
        let spec, plan = Program_arm.variant ~version ~profile ~seed in
        (spec, Some plan)

  let profile c = c.profile
  let boot_seed c = c.boot_seed
end)

(* Diversified spawning: fork copy-on-write from the template, then
   re-assemble the variant into the already-mapped text region.  The
   clone keeps the template's boot-time randomness (same ASLR draw, same
   canary): only the code layout differs, which is exactly the variable
   the survival matrix isolates. *)
let fork_diversified t ~diversity_seed =
  fork_variant t
    { (config t) with diversity_seed = Some diversity_seed }
