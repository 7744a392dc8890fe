module Tr = Telemetry.Trace

type verdict = Go | Commit of (unit -> unit) | Veto of Outcome.stop_reason

type ending =
  | Trapped
  | Out_of_fuel
  | Unfetchable of Outcome.stop_reason
  | Stopped of Outcome.stop_reason

type lowering = Observe of (int -> unit) | Terminal | Step

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

let observe isa f =
  {
    pre =
      (fun _ pc _ _ ->
        f pc;
        Go);
    stop =
      (fun cpu -> function Unfetchable _ -> f (isa.pc cpu) | _ -> ());
    lower = Observe f;
  }

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
    if forward_cfi && not (valid_target target) then violation at 0 target
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
        | expected :: _ -> violation pc expected target
        | [] -> violation pc 0 target)
  in
  { pre; stop = (fun _ _ -> ()); lower = Terminal }

(* Both commits, allocated only on steps where two hooks commit. *)
let both f g () =
  f ();
  g ()

let compose2 h1 h2 =
  {
    pre =
      (fun cpu pc insn size ->
        match h1.pre cpu pc insn size with
        | Veto _ as v -> v
        | Go -> h2.pre cpu pc insn size
        | Commit f as c -> (
            match h2.pre cpu pc insn size with
            | Go -> c
            | Veto _ as v -> v
            | Commit g -> Commit (both f g)));
    stop =
      (fun cpu ending ->
        h1.stop cpu ending;
        h2.stop cpu ending);
    lower = Step;
  }

let compose = function
  | [] -> invalid_arg "Hook.compose: no hooks"
  | h :: rest -> List.fold_left compose2 h rest

type ('cpu, 'insn) plan = {
  step : ('cpu, 'insn) t option;
  blocks : bool;
  observe : (int -> unit) option;
  terminal : ('cpu -> int -> 'insn -> int -> verdict) option;
}

(* Blocks are exact when every observer runs before every terminal hook:
   an observer then sees each pc in order whether or not a veto follows,
   and the terminal hooks see only the instructions their classifiers
   cannot wave through. *)
let plan hooks =
  let rec blockable seen_terminal = function
    | [] -> true
    | h :: rest -> (
        match h.lower with
        | Step -> false
        | Observe _ -> (not seen_terminal) && blockable false rest
        | Terminal -> blockable true rest)
  in
  let observers =
    List.filter_map (fun h -> match h.lower with Observe f -> Some f | _ -> None) hooks
  in
  let terminals =
    List.filter (fun h -> match h.lower with Terminal -> true | _ -> false) hooks
  in
  {
    step = (match hooks with [] -> None | hooks -> Some (compose hooks));
    blocks = blockable false hooks;
    observe =
      (match observers with
      | [] -> None
      | [ f ] -> Some f
      | fs -> Some (fun pc -> List.iter (fun f -> f pc) fs));
    terminal =
      (match terminals with [] -> None | hs -> Some (compose hs).pre);
  }

let outcome = function
  | Trapped -> Outcome.Halted
  | Out_of_fuel -> Outcome.Fuel_exhausted
  | Unfetchable reason | Stopped reason -> reason

let finish plan cpu ending =
  (match plan.step with Some h -> h.stop cpu ending | None -> ());
  outcome ending

let rec at_trap traps (pc : int) =
  match traps with [] -> false | a :: rest -> a = pc || at_trap rest pc

let follower_span pcs =
  let lo = ref max_int and hi = ref min_int in
  for i = 1 to Array.length pcs - 1 do
    lo := Int.min !lo pcs.(i);
    hi := Int.max !hi pcs.(i)
  done;
  (!lo, !hi)

let rec trap_within traps ~lo ~hi =
  match traps with
  | [] -> false
  | a :: rest -> (lo <= a && a <= hi) || trap_within rest ~lo ~hi
