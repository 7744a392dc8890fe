type disposition = Connman.Forwarder.disposition =
  | Cached of int
  | Dropped of string
  | Crashed of Machine.Outcome.stop_reason
  | Compromised of Machine.Outcome.stop_reason
  | Blocked of Machine.Outcome.stop_reason

let pp_disposition = Connman.Forwarder.pp_disposition

type config = {
  patched : bool;
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;
}

include Connman.Forwarder.Make (struct
  type nonrec config = config

  let daemon =
    {
      Loader.Service.track = "dnsmasq";
      entry = Program_x86.entry;
      frame = Frame.geometry;
      buffer_addr = Frame.buffer_addr;
    }

  let id_base = 0x2000

  let spec c =
    match c.arch with
    | Loader.Arch.X86 -> (Program_x86.spec ~patched:c.patched ~profile:c.profile, None)
    | Loader.Arch.Arm -> (Program_arm.spec ~patched:c.patched ~profile:c.profile, None)

  let profile c = c.profile
  let boot_seed c = c.boot_seed
end)

(* Datagrams reach dnsmasq-sim only from its upstream: no origin label. *)
let handle_response t wire = handle_response t wire
