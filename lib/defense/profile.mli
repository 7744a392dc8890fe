(** Memory-protection profiles.

    The paper evaluates three levels (§III): no protections, W⊕X, and
    W⊕X+ASLR — all with stack canaries disabled, as in the targeted
    Connman builds.  Canaries, CFI and software diversity are the
    additional mitigations of §IV, exposed here for the ablation
    experiments. *)

type t = {
  wxorx : bool;  (** non-executable stack (NX pages) *)
  aslr : bool;  (** randomize libc and stack bases per boot *)
  aslr_entropy_bits : int;  (** pages of entropy when [aslr] is on *)
  canary : bool;  (** stack-protector cookie in vulnerable frames *)
  shadow_stack : bool;
      (** enforced shadow return stack — return-edge CFI, the CFI CaRE
          analogue and the deeply-embedded mitigation of the DAEDALUS/µRAI
          line of work *)
  forward_cfi : bool;
      (** forward-edge CFI: indirect calls and jumps may only target
          symbol-table entry points (coarse-grained label checking, the
          embedded analogue of compiler CFI) *)
  seccomp : bool;
      (** syscall filter: the daemon may not exec — a shell spawn becomes
          a policy kill (a modern IoT hardening measure, complementary to
          the paper's §IV list) *)
}

val none : t
(** §III-A: everything off — code injection works. *)

val wx : t
(** §III-B: W⊕X only — code reuse (ret2libc / simple ROP) works. *)

val wx_aslr : t
(** §III-C: W⊕X + ASLR (default 12 bits) — PLT/.bss-based ROP works. *)

val with_canary : t -> t

val with_shadow_stack : t -> t
(** Enforced shadow return stack ({!t.shadow_stack}). *)

val with_forward_cfi : t -> t
(** Forward-edge CFI ({!t.forward_cfi}). *)

val with_mitigations : t -> t
(** Both embedded mitigations: shadow return stack + forward-edge CFI. *)

val with_seccomp : t -> t
val with_entropy : int -> t -> t

val mitigated : t -> bool
(** True when either embedded mitigation is on, i.e. every call of the
    process runs the interpreters' enforcement hook. *)

val name : t -> string
(** Short label, e.g. ["none"], ["wx"], ["wx+aslr"], ["wx+aslr+canary"]. *)

val pp : Format.formatter -> t -> unit
