module Service = Loader.Service
module O = Machine.Outcome

type disposition =
  | Handled
  | Rejected of string
  | Crashed of O.stop_reason
  | Compromised of O.stop_reason
  | Blocked of O.stop_reason

let pp_disposition ppf = function
  | Handled -> Format.pp_print_string ppf "handled"
  | Rejected why -> Format.fprintf ppf "rejected (%s)" why
  | Crashed r -> Format.fprintf ppf "CRASHED: %a" O.pp r
  | Compromised r -> Format.fprintf ppf "COMPROMISED: %a" O.pp r
  | Blocked r -> Format.fprintf ppf "blocked by defense: %a" O.pp r

type config = {
  patched : bool;
  arch : Loader.Arch.t;
  profile : Defense.Profile.t;
  boot_seed : int;
}

type t = Service.t

let daemon =
  {
    Service.track = "tcpsvc";
    entry = Program_x86.entry;
    frame = Frame.geometry;
    buffer_addr = Frame.buffer_addr;
  }

let create c =
  let spec =
    match c.arch with
    | Loader.Arch.X86 -> Program_x86.spec ~patched:c.patched ~profile:c.profile
    | Loader.Arch.Arm -> Program_arm.spec ~patched:c.patched ~profile:c.profile
  in
  Service.boot daemon spec ~profile:c.profile ~boot_seed:c.boot_seed

let restart = Service.restart
let process = Service.process
let alive = Service.alive

let frame ~tag =
  let n = String.length tag in
  if n > 0xFFFF then invalid_arg "Tcpsvc.frame: tag too long";
  Printf.sprintf "ZZ%c%c%s" (Char.chr ((n lsr 8) land 0xFF)) (Char.chr (n land 0xFF)) tag

let handle_frame t wire =
  if not (alive t) then Rejected "daemon not running"
  else if String.length wire < 4 || wire.[0] <> 'Z' || wire.[1] <> 'Z' then
    Rejected "bad magic"
  else
    match Service.call t ~origin:"tcp" wire with
    | Service.Returned 0 -> Handled
    | Service.Returned _ -> Rejected "length check (patched build)"
    | Service.Oversized -> Rejected "oversized frame"
    | Service.Compromised r -> Compromised r
    | Service.Crashed r -> Crashed r
    | Service.Blocked r -> Blocked r
