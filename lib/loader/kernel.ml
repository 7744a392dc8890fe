module Mem = Memsim.Memory
module O = Machine.Outcome
module Sys = Machine.Sysno

let max_args = 16

(* argv array: NULL-terminated vector of char* (0 → empty). *)
let read_argv mem ptr =
  if ptr = 0 then []
  else
    let rec go i acc =
      if i >= max_args then List.rev acc
      else
        match Mem.read_u32 mem (ptr + (4 * i)) with
        | 0 -> List.rev acc
        | p -> go (i + 1) (Mem.read_cstring mem ~max:256 p :: acc)
    in
    go 0 []

let dispatch ~no_exec mem ~number ~arg0 ~arg1 ~varargs_style =
  match number with
  | _ when no_exec && (number = Sys.execve || number = Sys.exec_varargs) ->
      (* seccomp-style policy: exec is filtered; the violating process is
         killed (SECCOMP_RET_KILL). *)
      O.Stop (O.Aborted "seccomp: exec denied")
  | n when n = Sys.exit -> O.Stop (O.Exited arg0)
  | n when n = Sys.execve ->
      let path = Mem.read_cstring mem ~max:256 arg0 in
      O.Stop (O.Exec { path; args = read_argv mem arg1 })
  | n when n = Sys.exec_varargs ->
      let path = Mem.read_cstring mem ~max:256 arg0 in
      let args =
        if varargs_style = `Array then read_argv mem arg1
        else if arg1 = 0 then []
        else [ Mem.read_cstring mem ~max:256 arg1 ]
      in
      O.Stop (O.Exec { path; args })
  | n when n = Sys.write -> O.Resume
  | n when n = Sys.abort -> O.Stop (O.Aborted "abort() called")
  | n when n = Sys.stack_chk_fail ->
      O.Stop (O.Aborted "*** stack smashing detected ***")
  | n -> O.Stop (O.Aborted (Printf.sprintf "unknown syscall %d" n))

(* A syscall handed a wild pointer behaves like the access faulting in
   kernel space: the process dies with the fault. *)
let guard f = try f () with Mem.Fault fault -> O.Stop (O.Fault fault)

let x86 ~no_exec vector cpu =
  let open Isa_x86 in
  if vector <> 0x80 then O.Stop (O.Aborted (Printf.sprintf "int 0x%x" vector))
  else
    guard (fun () ->
        dispatch ~no_exec cpu.Cpu.mem
          ~number:(Cpu.get cpu Insn.EAX)
          ~arg0:(Cpu.get cpu Insn.EBX)
          ~arg1:(Cpu.get cpu Insn.ECX)
          ~varargs_style:`Array)

let arm ~no_exec svc_imm cpu =
  let open Isa_arm in
  if svc_imm <> 0 then O.Stop (O.Aborted (Printf.sprintf "svc 0x%x" svc_imm))
  else
    guard (fun () ->
        dispatch ~no_exec cpu.Cpu.mem
          ~number:(Cpu.get cpu Insn.R7)
          ~arg0:(Cpu.get cpu Insn.R0)
          ~arg1:(Cpu.get cpu Insn.R1)
          ~varargs_style:`Single)
