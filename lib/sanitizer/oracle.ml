module Shadow = Memsim.Shadow
module Tr = Telemetry.Trace

type kind =
  | Redzone_write
  | Ret_slot_overwrite
  | Tainted_pc
  | Tainted_syscall

let kind_name = function
  | Redzone_write -> "redzone-write"
  | Ret_slot_overwrite -> "ret-slot-overwrite"
  | Tainted_pc -> "tainted-pc"
  | Tainted_syscall -> "tainted-syscall"

let severity = function
  | Redzone_write -> 0
  | Ret_slot_overwrite -> 1
  | Tainted_pc -> 2
  | Tainted_syscall -> 3

type report = {
  kind : kind;
  step : int;
  pc : int;
  addr : int;
  target : int;
  label : Shadow.label;
  origin : string;
  detail : string;
}

let wire_offset r = Shadow.offset_of r.label
let source_id r = Shadow.source_of r.label

type source = { origin : string; length : int }

(* A redzone records whether it has already reported this parse, so an
   8 KiB smash yields one finding per zone rather than thousands. *)
type redzone = { base : int; len : int; mutable fired : bool }

type t = {
  shadow : Shadow.t;
  regs : int array;  (* 16 taint slots cover both ISAs; x86 uses 0..7 *)
  mutable sources : (int * source) list;  (* newest first *)
  mutable next_source : int;
  ret_slots : bool ref Memsim.Int_table.t;  (* slot base -> reported? *)
  mutable redzones : redzone list;
  mutable reports : report list;  (* newest first *)
  mutable n_reports : int;
  counts : int array;  (* indexed by severity *)
  mutable trace : Tr.t option;
  halt_on_report : bool;
}

let create ?(halt_on_report = false) () =
  {
    shadow = Shadow.create ();
    regs = Array.make 16 0;
    sources = [];
    next_source = 0;
    ret_slots = Memsim.Int_table.create 16;
    redzones = [];
    reports = [];
    n_reports = 0;
    counts = Array.make 4 0;
    trace = None;
    halt_on_report;
  }

let set_trace t tr = t.trace <- tr

let new_source t ~origin ~length =
  let id = t.next_source in
  t.next_source <- id + 1;
  t.sources <- (id, { origin; length }) :: t.sources;
  id

let origin_of t id =
  match List.assoc_opt id t.sources with Some s -> s.origin | None -> "?"

let begin_parse t =
  Shadow.clear t.shadow;
  Array.fill t.regs 0 16 0;
  Memsim.Int_table.reset t.ret_slots;
  t.redzones <- []

let taint t ~src addr ~len =
  for i = 0 to len - 1 do
    Shadow.set t.shadow
      (Memsim.Word.add addr i)
      (Shadow.make ~src ~offset:i)
  done

let mem_label t addr = Shadow.get t.shadow addr

let mem_label32 t addr =
  let l0 = Shadow.get t.shadow addr in
  let l1 = Shadow.get t.shadow (Memsim.Word.add addr 1) in
  let l2 = Shadow.get t.shadow (Memsim.Word.add addr 2) in
  let l3 = Shadow.get t.shadow (Memsim.Word.add addr 3) in
  Shadow.join l0 (Shadow.join l1 (Shadow.join l2 l3))

let reg_label t i = t.regs.(i)
let set_reg_label t i l = t.regs.(i) <- l
let tainted_bytes t = Shadow.tainted t.shadow

let note_ret_slot t addr =
  if not (Memsim.Int_table.mem t.ret_slots addr) then
    Memsim.Int_table.replace t.ret_slots addr (ref false)

let clear_ret_slot t addr = Memsim.Int_table.remove t.ret_slots addr
let ret_slot_count t = Memsim.Int_table.length t.ret_slots

let add_redzone t ~base ~len =
  if len > 0 then t.redzones <- { base; len; fired = false } :: t.redzones

let protect_frame t ~buffer (frame : Machine.Stack_frame.t) =
  note_ret_slot t (buffer + frame.off_ret);
  add_redzone t ~base:(buffer + frame.buffer_size)
    ~len:(frame.frame_end - frame.buffer_size)

let arm t ~origin ~rx ~len ~buffer frame =
  begin_parse t;
  let src = new_source t ~origin ~length:len in
  taint t ~src rx ~len;
  protect_frame t ~buffer frame

let record t ~kind ~step ~pc ~addr ~target ~label ~detail =
  let origin = origin_of t (Shadow.source_of label) in
  let r = { kind; step; pc; addr; target; label; origin; detail } in
  t.reports <- r :: t.reports;
  t.n_reports <- t.n_reports + 1;
  t.counts.(severity kind) <- t.counts.(severity kind) + 1;
  match t.trace with
  | None -> ()
  | Some tr ->
      Tr.emit tr ~cat:"sanitizer" ~track:"sanitizer"
        ~args:
          [
            ("step", Tr.I step);
            ("pc", Tr.I pc);
            ("addr", Tr.I addr);
            ("target", Tr.I target);
            ("src", Tr.I (Shadow.source_of label));
            ("wire_offset", Tr.I (Shadow.offset_of label));
            ("detail", Tr.S detail);
          ]
        (kind_name kind)

(* Is any byte of [addr, addr+len) inside a registered return slot?
   Slots are 4 bytes, so an overlapping slot starts in
   [addr-3, addr+len-1]: [len + 3] table probes per store, lowest slot
   first, independent of how many slots are live. *)
let hit_ret_slot t addr len =
  let rec probe s =
    if s >= addr + len then None
    else
      match Memsim.Int_table.find_opt t.ret_slots s with
      | Some fired -> Some (s, fired)
      | None -> probe (s + 1)
  in
  probe (addr - 3)

let hit_redzone t addr len =
  let rec find = function
    | [] -> None
    | z :: rest ->
        if addr < z.base + z.len && addr + len > z.base then Some z else find rest
  in
  find t.redzones

let store t ~pc ~step ~addr ~len ~value ~label =
  for i = 0 to len - 1 do
    Shadow.set t.shadow (Memsim.Word.add addr i) label
  done;
  if label <> 0 then begin
    match hit_ret_slot t addr len with
    | Some (slot, fired) ->
        if not !fired then begin
          fired := true;
          record t ~kind:Ret_slot_overwrite ~step ~pc ~addr:slot ~target:value
            ~label
            ~detail:
              (Printf.sprintf "tainted %d-byte store over return slot" len)
        end
    | None -> (
        match hit_redzone t addr len with
        | Some z when not z.fired ->
            z.fired <- true;
            record t ~kind:Redzone_write ~step ~pc ~addr ~target:value ~label
              ~detail:
                (Printf.sprintf "tainted write %d bytes past buffer end"
                   (addr - z.base))
        | _ -> ())
  end

let check_pc t ~pc ~step ~target ~slot ~label ~detail =
  if label <> 0 then
    record t ~kind:Tainted_pc ~step ~pc ~addr:slot ~target ~label ~detail

let check_syscall t ~pc ~step ~number ~addr ~label ~detail =
  if label <> 0 then
    record t ~kind:Tainted_syscall ~step ~pc ~addr ~target:number ~label
      ~detail

(* First tainted label along the NUL-terminated string at [addr] (at
   most 256 bytes) — the byte provenance of an exec path. *)
let cstring_label t mem addr =
  let rec go i =
    if i >= 256 then 0
    else
      let a = Memsim.Word.add addr i in
      match Memsim.Memory.read_u8 mem a with
      | exception Memsim.Memory.Fault _ -> 0
      | 0 -> 0
      | _ ->
          let l = mem_label t a in
          if l <> 0 then l else go (i + 1)
  in
  go 0

let check_kernel_entry t mem ~pc ~step ~number ~number_label ~path
    ~path_label ~argv_label =
  let exec =
    number = Machine.Sysno.execve || number = Machine.Sysno.exec_varargs
  in
  let label =
    if not exec then number_label
    else
      Shadow.join number_label
        (Shadow.join path_label
           (Shadow.join (cstring_label t mem path) argv_label))
  in
  check_syscall t ~pc ~step ~number
    ~addr:(if exec then path else 0)
    ~label
    ~detail:
      (if number_label <> 0 then "tainted syscall number"
       else "exec path/args from attacker bytes")

let reports t = List.rev t.reports

let first_report t =
  match t.reports with [] -> None | l -> Some (List.nth l (List.length l - 1))

let report_count t = t.n_reports
let halted t = t.halt_on_report && t.n_reports > 0
let count t kind = t.counts.(severity kind)

let clear_reports t =
  t.reports <- [];
  t.n_reports <- 0;
  Array.fill t.counts 0 4 0

let pp_report ppf r =
  Format.fprintf ppf
    "%s step=%d pc=0x%x addr=0x%x target=0x%x src=%d wire+%d origin=%s (%s)"
    (kind_name r.kind) r.step r.pc r.addr r.target (source_id r)
    (wire_offset r) r.origin r.detail

let render ?symbolize r =
  let sym =
    match symbolize with
    | None -> Printf.sprintf "0x%x" r.pc
    | Some f -> f r.pc
  in
  Printf.sprintf
    "%-19s wire[%d]@%s -> mem 0x%x -> pc %s  step=%d target=0x%x  %s"
    (kind_name r.kind) (wire_offset r) r.origin r.addr sym r.step r.target
    r.detail

let register_metrics t reg =
  List.iter
    (fun kind ->
      Telemetry.Metrics.probe reg
        ~help:"sanitizer findings by detection kind"
        ~labels:[ ("kind", kind_name kind) ]
        ~kind:`Counter "sanitizer_reports_total" (fun () ->
          float_of_int (count t kind)))
    [ Redzone_write; Ret_slot_overwrite; Tainted_pc; Tainted_syscall ];
  Telemetry.Metrics.probe reg ~help:"taint sources registered"
    ~kind:`Counter "sanitizer_sources_total" (fun () ->
      float_of_int t.next_source);
  Telemetry.Metrics.probe reg ~help:"guest bytes currently tainted"
    ~kind:`Gauge "sanitizer_tainted_bytes" (fun () ->
      float_of_int (tainted_bytes t));
  Telemetry.Metrics.probe reg ~help:"live return-address slots"
    ~kind:`Gauge "sanitizer_ret_slots" (fun () ->
      float_of_int (ret_slot_count t))

(* The pending effect of the current step, written by a [plan_*] call
   and applied by one of the planner's commits, which are made once per
   planner: planning an instruction allocates nothing. *)
type pending = {
  mutable reg : int;
  mutable lab : Shadow.label;  (* of the register, or of the store *)
  mutable pc : int;  (* the store: instruction, step, target, value *)
  mutable step : int;
  mutable addr : int;
  mutable len : int;
  mutable value : int;
}

type planner = {
  p : pending;
  reg_commit : Machine.Hook.verdict;
  store_commit : Machine.Hook.verdict;
  call_commit : Machine.Hook.verdict;
}

let planner t =
  let p = { reg = 0; lab = 0; pc = 0; step = 0; addr = 0; len = 0; value = 0 } in
  let store () =
    store t ~pc:p.pc ~step:p.step ~addr:p.addr ~len:p.len ~value:p.value ~label:p.lab
  in
  {
    p;
    reg_commit = Machine.Hook.Commit (fun () -> t.regs.(p.reg) <- p.lab);
    store_commit = Machine.Hook.Commit store;
    call_commit =
      Machine.Hook.Commit
        (fun () ->
          store ();
          note_ret_slot t p.addr);
  }

let plan_reg pl i l =
  pl.p.reg <- i;
  pl.p.lab <- l;
  pl.reg_commit

let pend_store p ~pc ~step ~addr ~len ~value ~label =
  p.pc <- pc;
  p.step <- step;
  p.addr <- addr;
  p.len <- len;
  p.value <- value;
  p.lab <- label

let plan_store pl ~pc ~step ~addr ~len ~value ~label =
  pend_store pl.p ~pc ~step ~addr ~len ~value ~label;
  pl.store_commit

let plan_call pl ~pc ~step ~slot ~ret =
  pend_store pl.p ~pc ~step ~addr:slot ~len:4 ~value:ret ~label:0;
  pl.call_commit

let halt_reason = Machine.Outcome.Aborted "sanitizer"
