(** Architecture-independent execution outcomes.

    Both simulated CPUs (x86-32 and ARMv7) report why execution stopped
    using this one vocabulary, so the attack harness can classify results
    uniformly: a {!Fault} or {!Decode_error} is the paper's denial-of-service
    outcome, {!Exec} of a shell is remote code execution, and
    {!Cfi_violation} is a defense win. *)

(** What a CFI check wanted where it vetoed a transfer. *)
type cfi_expected =
  | Return_to of int
      (** a return to the address on top of the shadow stack: the one
          the matching call pushed *)
  | Empty_shadow_stack
      (** no return at all: the shadow stack holds no call to return
          from *)
  | Valid_target
      (** an indirect call or jump to an address in the forward-edge
          policy set *)

type stop_reason =
  | Halted
      (** Control reached a designated trap address — the benign "function
          returned to its caller" completion. *)
  | Exited of int  (** [exit(n)] system call. *)
  | Exec of { path : string; args : string list }
      (** An [exec]-family system call replaced the process image.  When
          [path] resolves to a shell, the attacker has won. *)
  | Fault of Memsim.Memory.fault  (** SIGSEGV analogue. *)
  | Decode_error of { addr : int; byte : int }
      (** SIGILL analogue: fetch of an undecodable instruction. *)
  | Cfi_violation of { at : int; expected : cfi_expected; got : int }
      (** The CFI monitor vetoed the transfer at [at] to [got] (§IV
          mitigation): a return the shadow stack does not expect, or a
          forward edge outside the policy set. *)
  | Aborted of string
      (** Guest code invoked [abort] — e.g. [__stack_chk_fail] after stack
          canary corruption. *)
  | Fuel_exhausted  (** Instruction budget exceeded (hang / livelock). *)

val is_shell : stop_reason -> bool
(** [Exec] of something that resolves to a shell ("/bin/sh", "sh", …). *)

val pp : Format.formatter -> stop_reason -> unit
val to_string : stop_reason -> string

type syscall_result = Resume | Stop of stop_reason
(** What a system-call handler tells the interpreter to do next. *)
