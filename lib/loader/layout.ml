type t = {
  arch : Arch.t;
  text_base : int;
  text_size : int;
  plt_base : int;
  plt_size : int;
  got_base : int;
  got_size : int;
  bss_base : int;
  bss_size : int;
  tls_base : int;
  heap_base : int;
  heap_size : int;
  stack_base : int;
  stack_size : int;
  stack_top : int;
  env_size : int;
  libc_base : int;
  canary_value : int option;
}

let page = Memsim.Memory.page_size
let round_up v = (v + page - 1) land lnot (page - 1)

let text_base_of = function Arch.X86 -> 0x0804_8000 | Arch.Arm -> 0x0001_0000
let libc_base_static = function Arch.X86 -> 0xB750_0000 | Arch.Arm -> 0x76F0_0000
let stack_top_static = function Arch.X86 -> 0xBFFF_E000 | Arch.Arm -> 0x7EFF_E000

let compute ~arch ~profile ~rng ~text_size ~bss_size =
  let open Defense.Profile in
  let text_base = text_base_of arch in
  let text_size = round_up text_size in
  let plt_base = text_base + text_size in
  let plt_size = page in
  let got_base = plt_base + plt_size in
  let got_size = page in
  let bss_base = got_base + got_size in
  let bss_size = round_up bss_size in
  let tls_base = bss_base + bss_size in
  let heap_base = tls_base + page in
  let heap_size = 0x1_0000 in
  let entropy () =
    if profile.aslr then Memsim.Rng.bits rng (min 30 profile.aslr_entropy_bits)
    else 0
  in
  (* Randomization subtracts whole pages from the static base, as mmap ASLR
     does: the attacker-facing consequence is that hardcoded libc/stack
     addresses are wrong for all but 1 in 2^bits boots. *)
  let libc_base = libc_base_static arch - (entropy () * page) in
  let stack_top = stack_top_static arch - (entropy () * page) in
  let stack_size = 0x20000 in
  let env_size = page in
  let canary_value =
    if profile.canary then
      (* Terminator-style canary: NUL low byte, random upper bytes. *)
      Some (Memsim.Rng.bits rng 24 lsl 8)
    else None
  in
  {
    arch;
    text_base;
    text_size;
    plt_base;
    plt_size;
    got_base;
    got_size;
    bss_base;
    bss_size;
    tls_base;
    heap_base;
    heap_size;
    stack_base = stack_top - stack_size;
    stack_size;
    stack_top;
    env_size;
    libc_base;
    canary_value;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%a layout:@,\
     text  %a+0x%x@,\
     plt   %a@,\
     got   %a@,\
     bss   %a+0x%x@,\
     stack %a..%a (top %a)@,\
     libc  %a@]"
    Arch.pp t.arch Memsim.Word.pp t.text_base t.text_size Memsim.Word.pp
    t.plt_base Memsim.Word.pp t.got_base Memsim.Word.pp t.bss_base t.bss_size
    Memsim.Word.pp t.stack_base Memsim.Word.pp
    (t.stack_base + t.stack_size)
    Memsim.Word.pp t.stack_top Memsim.Word.pp t.libc_base
