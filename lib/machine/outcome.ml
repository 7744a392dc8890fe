type cfi_expected = Return_to of int | Empty_shadow_stack | Valid_target

type stop_reason =
  | Halted
  | Exited of int
  | Exec of { path : string; args : string list }
  | Fault of Memsim.Memory.fault
  | Decode_error of { addr : int; byte : int }
  | Cfi_violation of { at : int; expected : cfi_expected; got : int }
  | Aborted of string
  | Fuel_exhausted

let shell_names = [ "/bin/sh"; "sh"; "/bin/bash"; "bash" ]

let is_shell = function
  | Exec { path; _ } -> List.mem path shell_names
  | Halted | Exited _ | Fault _ | Decode_error _ | Cfi_violation _ | Aborted _
  | Fuel_exhausted ->
      false

let pp ppf = function
  | Halted -> Format.fprintf ppf "halted (normal return)"
  | Exited n -> Format.fprintf ppf "exited(%d)" n
  | Exec { path; args } ->
      Format.fprintf ppf "exec(%s%s)" path
        (match args with [] -> "" | l -> ", [" ^ String.concat "; " l ^ "]")
  | Fault f -> Memsim.Memory.pp_fault ppf f
  | Decode_error { addr; byte } ->
      Format.fprintf ppf "illegal instruction at %a (byte 0x%02x)" Memsim.Word.pp
        addr byte
  | Cfi_violation { at; expected = Return_to expected; got } ->
      Format.fprintf ppf
        "CFI violation at %a: return to %a but shadow stack expected %a"
        Memsim.Word.pp at Memsim.Word.pp got Memsim.Word.pp expected
  | Cfi_violation { at; expected = Empty_shadow_stack; got } ->
      Format.fprintf ppf "CFI violation at %a: return to %a but shadow stack empty"
        Memsim.Word.pp at Memsim.Word.pp got
  | Cfi_violation { at; expected = Valid_target; got } ->
      Format.fprintf ppf "CFI violation at %a: indirect branch to %a, not a valid target"
        Memsim.Word.pp at Memsim.Word.pp got
  | Aborted why -> Format.fprintf ppf "aborted: %s" why
  | Fuel_exhausted -> Format.fprintf ppf "fuel exhausted (hang)"

let to_string r = Format.asprintf "%a" pp r

type syscall_result = Resume | Stop of stop_reason
