module Tr = Telemetry.Trace

type verdict = Go | Commit of (unit -> unit) | Veto of Outcome.stop_reason

type ending =
  | Trapped
  | Out_of_fuel
  | Unfetchable of Outcome.stop_reason
  | Stopped of Outcome.stop_reason

type observer = { see : int -> unit; fold : (int array -> int -> unit) option }
type lowering = Observe of observer | Terminal | Step

type ('cpu, 'insn) t = {
  pre : 'cpu -> int -> 'insn -> int -> verdict;
  stop : 'cpu -> ending -> unit;
  lower : lowering;
}

type transfer =
  | Other
  | Call of int
  | Indirect_call of { target : int; ret : int }
  | Indirect of int
  | Return of int

type ('cpu, 'insn) isa = {
  track : string;
  pc : 'cpu -> int;
  steps : 'cpu -> int;
  transfer : 'cpu -> int -> 'insn -> int -> transfer;
  syscall : 'cpu -> 'insn -> (string * Tr.arg) list;
}

let observer ?fold see = { see; fold }

let observe isa o =
  {
    pre =
      (fun _ pc _ _ ->
        o.see pc;
        Go);
    stop =
      (fun cpu -> function Unfetchable _ -> o.see (isa.pc cpu) | _ -> ());
    lower = Observe o;
  }

let profile isa prof =
  observe isa
    (observer
       ?fold:(Telemetry.Profile.fold prof)
       (Telemetry.Profile.record prof))

(* The "bb" check runs on retire: the commit is allocated once per run
   and reads the pc/fall-through pair the last [pre] recorded. *)
let trace isa tr cpu =
  let base_ts = Tr.now tr in
  let emit name args =
    Tr.emit tr ~ts:(base_ts + isa.steps cpu) ~cat:"cpu" ~track:isa.track name
      ~args
  in
  emit "call" [ ("entry", Tr.I (isa.pc cpu)) ];
  let from = ref 0 and fall = ref 0 in
  let retire =
    Commit
      (fun () ->
        let pc = isa.pc cpu in
        if pc <> !fall then emit "bb" [ ("pc", Tr.I pc); ("from", Tr.I !from) ])
  in
  let pre cpu pc insn size =
    (match isa.syscall cpu insn with [] -> () | args -> emit "syscall" args);
    from := pc;
    fall := Memsim.Word.add pc size;
    retire
  in
  let stop cpu ending =
    (match ending with
    | Trapped -> emit "trap" [ ("pc", Tr.I (isa.pc cpu)) ]
    | Out_of_fuel -> ()
    | Unfetchable reason | Stopped reason ->
        emit "stop"
          [ ("reason", Tr.S (Outcome.to_string reason)); ("pc", Tr.I (isa.pc cpu)) ]);
    Tr.set_now tr (base_ts + isa.steps cpu)
  in
  { pre; stop; lower = Step }

let enforce isa ~shadow_stack ~forward_cfi ~valid_target ~shadow0 =
  let mirror = ref shadow0 in
  let pop = Commit (fun () -> mirror := List.tl !mirror) in
  let violation at expected got =
    Veto (Outcome.Cfi_violation { at; expected; got })
  in
  let push ret =
    if shadow_stack then Commit (fun () -> mirror := ret :: !mirror) else Go
  in
  let forward at target ok =
    if forward_cfi && not (valid_target target) then violation at Outcome.Valid_target target
    else ok
  in
  let pre cpu pc insn size =
    match isa.transfer cpu pc insn size with
    | Other -> Go
    | Call ret -> push ret
    | Indirect_call { target; ret } -> forward pc target (push ret)
    | Indirect target -> forward pc target Go
    | Return _ when not shadow_stack -> Go
    | Return target -> (
        match !mirror with
        | expected :: _ when expected = target -> pop
        | expected :: _ -> violation pc (Outcome.Return_to expected) target
        | [] -> violation pc Outcome.Empty_shadow_stack target)
  in
  { pre; stop = (fun _ _ -> ()); lower = Terminal }
