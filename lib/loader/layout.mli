(** Address-space layout of a booted process.

    Mirrors a non-PIE Linux process, which is the exact asymmetry the
    paper's §III-C attack exploits: the main image (.text, .plt, .got,
    .bss) sits at a fixed, architecture-conventional base, while the libc
    image and the stack move under ASLR.

    Conventional bases: x86 text at 0x08048000, stack under 0xC0000000,
    libc around 0xB7xxxxxx; ARM text at 0x00010000, stack under
    0x7F000000, libc around 0x76xxxxxx (matching the addresses visible in
    the paper's listings). *)

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
  tls_base : int;  (** one page holding the stack-canary cookie *)
  heap_base : int;  (** rw scratch/heap; DNS datagrams are received here *)
  heap_size : int;
  stack_base : int;  (** lowest mapped stack address *)
  stack_size : int;
  stack_top : int;  (** initial stack pointer (grows down from here) *)
  env_size : int;  (** mapped bytes above [stack_top] (argv/env area) *)
  libc_base : int;
  canary_value : int option;  (** per-boot cookie when the profile asks for one *)
}

val compute :
  arch:Arch.t ->
  profile:Defense.Profile.t ->
  rng:Memsim.Rng.t ->
  text_size:int ->
  bss_size:int ->
  t
(** [text_size] and [bss_size] are rounded up to whole pages.  Under
    ASLR, the libc base and the stack position are drawn from [rng] with
    [profile.aslr_entropy_bits] pages of entropy; otherwise they are the
    fixed conventional values (what {!libc_base_static} reports). *)

val text_base_of : Arch.t -> int
(** Fixed (non-PIE) main-image base: 0x08048000 on x86, 0x00010000 on ARM. *)

val libc_base_static : Arch.t -> int
(** The ASLR-off libc base — the address an attacker hardcodes for a
    ret2libc payload (§III-B1). *)

val stack_top_static : Arch.t -> int

val pp : Format.formatter -> t -> unit
