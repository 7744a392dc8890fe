(** Architecture-independent execution outcomes.

    Both simulated CPUs (x86-32 and ARMv7) report why execution stopped
    using this one vocabulary, so the attack harness can classify results
    uniformly: a {!Fault} or {!Decode_error} is the paper's denial-of-service
    outcome, {!Exec} of a shell is remote code execution, and
    {!Cfi_violation} is a defense win. *)

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
  | Cfi_violation of { at : int; expected : int; got : int }
      (** The shadow-stack CFI monitor vetoed a return (§IV mitigation). *)
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
