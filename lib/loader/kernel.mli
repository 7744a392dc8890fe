(** The simulated kernel: system-call handlers for both CPUs.

    An [exec]-family call stops the run with {!Machine.Outcome.Exec} —
    when the path is a shell, that is the paper's "root shell spawned"
    success criterion (Connman runs as root, so no privilege boundary is
    crossed). *)

val x86 : no_exec:bool -> Isa_x86.Cpu.kernel
(** Linux i386 convention: [int 0x80], number in eax, args in ebx/ecx/edx.
    [no_exec] applies a seccomp-style filter: [exec]-family syscalls kill
    the process ([Aborted "seccomp: exec denied"]). *)

val arm : no_exec:bool -> Isa_arm.Cpu.kernel
(** ARM EABI convention: [svc 0], number in r7, args in r0–r2; [no_exec]
    as for {!x86}. *)
