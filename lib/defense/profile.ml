type t = {
  wxorx : bool;
  aslr : bool;
  aslr_entropy_bits : int;
  canary : bool;
  shadow_stack : bool;
  forward_cfi : bool;
  seccomp : bool;
}

let none =
  {
    wxorx = false;
    aslr = false;
    aslr_entropy_bits = 0;
    canary = false;
    shadow_stack = false;
    forward_cfi = false;
    seccomp = false;
  }

let wx = { none with wxorx = true }
let wx_aslr = { wx with aslr = true; aslr_entropy_bits = 12 }
let with_canary t = { t with canary = true }
let with_shadow_stack t = { t with shadow_stack = true }
let with_forward_cfi t = { t with forward_cfi = true }
let with_mitigations t = { t with shadow_stack = true; forward_cfi = true }
let with_seccomp t = { t with seccomp = true }
let with_entropy bits t = { t with aslr = bits > 0; aslr_entropy_bits = bits }
let mitigated t = t.shadow_stack || t.forward_cfi

let name t =
  let parts =
    (if t.wxorx then [ "wx" ] else [])
    @ (if t.aslr then [ "aslr" ] else [])
    @ (if t.canary then [ "canary" ] else [])
    @ (if t.shadow_stack then [ "shstk" ] else [])
    @ (if t.forward_cfi then [ "fcfi" ] else [])
    @ if t.seccomp then [ "seccomp" ] else []
  in
  match parts with [] -> "none" | l -> String.concat "+" l

let pp ppf t =
  Format.fprintf ppf "%s%s" (name t)
    (if t.aslr then Printf.sprintf "(%d bits)" t.aslr_entropy_bits else "")
