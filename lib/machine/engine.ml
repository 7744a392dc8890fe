module Mem = Memsim.Memory
module Icache = Memsim.Icache

type 'cpu kernel = int -> 'cpu -> Outcome.syscall_result
type 'cpu thunk = 'cpu -> 'cpu kernel -> Outcome.stop_reason option

(* [compiled] is the icache payload: the decoded instruction, its size,
   the ISA's thunk specialized for its address, and, once built, the
   block that starts there. *)
type ('cpu, 'insn) compiled = {
  insn : 'insn;
  size : int;
  run : 'cpu thunk;
  mutable block : ('cpu, 'insn) block;
}

(* A head's block is built on its second execution. *)
and ('cpu, 'insn) block = Unseen | Seen | Built of ('cpu, 'insn) chain

(* A straight-line run from a head entry: [pcs.(i)] and [runs.(i)] are
   the i-th member's address and thunk, and [last_*] describe the final
   member (the only one that may transfer control). *)
and ('cpu, 'insn) chain = {
  pcs : int array;
  runs : 'cpu thunk array;
  last_insn : 'insn;
  last_size : int;
  lo : int;  (* the followers' lowest and highest pc (lo > hi: none) *)
  hi : int;
  refills : int;  (* the head page's {!Memsim.Icache.refills} when built *)
  copy : 'cpu copy_loop option;  (* the block is a counted byte copy *)
}

and 'cpu copy_loop = {
  src : 'cpu -> int;
  dst : 'cpu -> int;
  count : 'cpu -> int;
  retire : 'cpu -> int -> int -> unit;
}

exception Undecodable of { addr : int; byte : int }

type ('cpu, 'insn) isa = {
  pc : 'cpu -> int;
  fetch : Mem.t -> int -> 'insn * int;
  exec : 'cpu -> 'cpu kernel -> int -> 'insn -> int -> Outcome.stop_reason option;
  compile : int -> int -> 'insn -> 'cpu thunk;
  ends_block : 'insn -> bool;
  follower : int -> 'insn -> int -> int;
  copy_loop : (int * 'insn * int) list -> 'cpu copy_loop option;
}

type effect =
  | Load_byte of { reg : int; base : int; disp : int }
  | Store_byte of { reg : int; base : int; disp : int }
  | Add_imm of { reg : int; imm : int }
  | Cmp_zero of int
  | Jump
  | Other

(* The one iteration shape a summary runs, on effects: load a byte
   through [src], store it through [dst], step both up by one and the
   count down by one, compare the count with zero after every add (the
   adds may write flags; loads and stores do not), in any order that
   keeps each access ahead of its own pointer's step, with nothing else
   but direct jumps. *)
let copy_loop_of effects ~regs ~leave =
  let effects = Array.of_list effects in
  let positions p =
    List.filter (fun i -> p effects.(i)) (List.init (Array.length effects) Fun.id)
  in
  let unique p = match positions p with [ i ] -> Some i | _ -> None in
  let load = unique (function Load_byte _ -> true | _ -> false)
  and store = unique (function Store_byte _ -> true | _ -> false)
  and cmp = unique (function Cmp_zero _ -> true | _ -> false)
  and adds = positions (function Add_imm _ -> true | _ -> false)
  and others = positions (function Other -> true | _ -> false) in
  match (load, store, cmp, others) with
  | Some l, Some st, Some cmp, [] -> (
      match (effects.(l), effects.(st), effects.(cmp)) with
      | ( Load_byte { reg = loaded; base = src; disp = src_disp },
          Store_byte { reg; base = dst; disp = dst_disp },
          Cmp_zero count ) -> (
          let step r imm =
            unique (function Add_imm a -> a.reg = r && a.imm = imm | _ -> false)
          in
          match (step src 1, step dst 1, step count (-1)) with
          | Some si, Some di, Some _
            when reg = loaded
                 && List.length (List.sort_uniq compare [ loaded; src; dst; count ]) = 4
                 && List.length adds = 3
                 && l < st && l < si && st < di
                 && List.for_all (fun a -> a < cmp) adds ->
              Some
                {
                  src = (fun cpu -> Memsim.Word.add (regs cpu).(src) src_disp);
                  dst = (fun cpu -> Memsim.Word.add (regs cpu).(dst) dst_disp);
                  count = (fun cpu -> (regs cpu).(count));
                  retire =
                    (fun cpu k last ->
                      let r = regs cpu in
                      r.(src) <- Memsim.Word.add r.(src) k;
                      r.(dst) <- Memsim.Word.add r.(dst) k;
                      r.(count) <- Memsim.Word.sub r.(count) k;
                      r.(loaded) <- last;
                      leave cpu r.(count) k);
                }
          | _ -> None)
      | _ -> None)
  | _ -> None

let new_icache ~dummy =
  Icache.table
    ~dummy:{ insn = dummy; size = 0; run = (fun _ _ -> None); block = Unseen }

(* How a hook list runs (see {!Hook.lowering}). *)
type ('cpu, 'insn) plan = {
  step : ('cpu, 'insn) Hook.t option;
      (* the whole list composed, for an instruction run on its own *)
  blocks : bool;  (* the list may run block-at-a-time *)
  observe : (int -> unit) option;  (* the [Observe] functions, in order *)
  summarise : (int array -> int -> unit) option;
      (* copy loops may run as one step, and what such a step tells the
         observers: every [Observe] hook's fold, in order (nothing
         without observers); [None] when one has no fold *)
  terminal : ('cpu -> int -> 'insn -> int -> Hook.verdict) option;
      (* the [Terminal] hooks' [pre], composed *)
}

(* Both commits, allocated only on steps where two hooks commit. *)
let both f g () =
  f ();
  g ()

(* [pre] runs the hooks in order, stops at the first veto (later hooks
   do not see that instruction) and joins the commits; every [stop]
   runs. *)
let compose2 (h1 : _ Hook.t) (h2 : _ Hook.t) =
  {
    Hook.pre =
      (fun cpu pc insn size ->
        match h1.pre cpu pc insn size with
        | Hook.Veto _ as v -> v
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
  | [] -> invalid_arg "Engine.compose: no hooks"
  | h :: rest -> List.fold_left compose2 h rest

(* Blocks are exact when every observer runs before every terminal hook:
   an observer then sees each pc in order whether or not a veto follows,
   and the terminal hooks see only the instructions their classifiers
   cannot wave through. *)
let plan (hooks : _ Hook.t list) =
  let rec blockable seen_terminal = function
    | [] -> true
    | (h : _ Hook.t) :: rest -> (
        match h.lower with
        | Step -> false
        | Observe _ -> (not seen_terminal) && blockable false rest
        | Terminal -> blockable true rest)
  in
  let observers =
    List.filter_map
      (fun (h : _ Hook.t) -> match h.lower with Observe o -> Some o | _ -> None)
      hooks
  in
  let terminals =
    List.filter
      (fun (h : _ Hook.t) -> match h.lower with Terminal -> true | _ -> false)
      hooks
  in
  {
    step = (match hooks with [] -> None | hooks -> Some (compose hooks));
    blocks = blockable false hooks;
    observe =
      (match observers with
      | [] -> None
      | [ o ] -> Some o.see
      | os -> Some (fun pc -> List.iter (fun (o : Hook.observer) -> o.see pc) os));
    summarise =
      (if List.exists (fun (o : Hook.observer) -> Option.is_none o.fold) observers then None
       else
         match List.filter_map (fun (o : Hook.observer) -> o.fold) observers with
         | [] -> Some (fun _ _ -> ())
         | [ f ] -> Some f
         | fs -> Some (fun pcs k -> List.iter (fun f -> f pcs k) fs));
    terminal =
      (match terminals with [] -> None | hs -> Some (compose hs).pre);
  }

(* End a run: every hook's [stop], then the run's result. *)
let finish plan cpu (ending : Hook.ending) =
  (match plan.step with Some h -> h.stop cpu ending | None -> ());
  match ending with
  | Trapped -> Outcome.Halted
  | Out_of_fuel -> Outcome.Fuel_exhausted
  | Unfetchable reason | Stopped reason -> reason

let rec at_trap traps (pc : int) =
  match traps with [] -> false | a :: rest -> a = pc || at_trap rest pc

(* The lowest and highest of a block's follower pcs ([pcs.(1)] on; the
   head is checked on its own), or [(max_int, min_int)] for none. *)
let follower_span pcs =
  let lo = ref max_int and hi = ref min_int in
  for i = 1 to Array.length pcs - 1 do
    lo := Int.min !lo pcs.(i);
    hi := Int.max !hi pcs.(i)
  done;
  (!lo, !hi)

(* Some trap address lies in [lo, hi]: a block whose followers span that
   range may run past it. *)
let rec trap_within traps ~lo ~(hi : int) =
  match traps with
  | [] -> false
  | a :: rest -> (lo <= a && a <= hi) || trap_within rest ~lo ~hi

let block_cap = 32

(* The block from the valid head entry [e] at [head]: its followers are
   chained from entries the table already holds at the head's generation
   (so building never decodes or counts), and the block stops at the
   first instruction that ends one, at a successor off the head's page,
   at an entry that is missing or straddles a page, or at [block_cap]
   members. *)
let build isa c (e : _ compiled Icache.entry) head =
  let follower pc (f : _ compiled) =
    if isa.ends_block f.insn then None
    else
      let next = isa.follower pc f.insn f.size in
      if next lsr Mem.page_bits <> head lsr Mem.page_bits then None
      else
        let e' = Icache.peek c next in
        if e'.lo_gen = e.lo_gen && e'.hi_gen = 0 then Some (next, e'.v) else None
  in
  let rec count n pc f =
    if n = block_cap then n
    else match follower pc f with Some (pc, f) -> count (n + 1) pc f | None -> n
  in
  let n = if e.hi_gen <> 0 then 1 else count 1 head e.v in
  let pcs = Array.make n head and runs = Array.make n e.v.run in
  let members = ref [] in
  let rec fill i pc (f : _ compiled) =
    pcs.(i) <- pc;
    runs.(i) <- f.run;
    members := (pc, f.insn, f.size) :: !members;
    match follower pc f with
    | Some (pc', f') when i + 1 < n -> fill (i + 1) pc' f'
    | _ -> f
  in
  let last = fill 0 head e.v in
  let lo, hi = follower_span pcs in
  let copy =
    if n > 1 && Memsim.Word.add pcs.(n - 1) last.size = head then
      isa.copy_loop (List.rev !members)
    else None
  in
  Built
    {
      pcs;
      runs;
      last_insn = last.insn;
      last_size = last.size;
      lo;
      hi;
      refills = Icache.refills c;
      copy;
    }

(* The reference loop: fetch every step and run it through the ISA's
   generic [exec], with every hook's [pre] per instruction. *)
let run_exec isa ~fuel ~traps ~kernel p mem cpu =
  let finish = finish p cpu in
  let pre = match p.step with Some h -> h.pre | None -> fun _ _ _ _ -> Hook.Go in
  let rec loop budget =
    let pc = isa.pc cpu in
    if budget <= 0 then finish Out_of_fuel
    else if at_trap traps pc then finish Trapped
    else
      match isa.fetch mem pc with
      | exception Undecodable { addr; byte } ->
          finish (Unfetchable (Outcome.Decode_error { addr; byte }))
      | exception Mem.Fault f -> finish (Unfetchable (Outcome.Fault f))
      | insn, size -> (
          match pre cpu pc insn size with
          | Veto reason -> finish (Stopped reason)
          | verdict -> (
              match isa.exec cpu kernel pc insn size with
              | Some reason -> finish (Stopped reason)
              | None ->
                  (match verdict with Commit c -> c () | _ -> ());
                  loop (budget - 1)))
  in
  loop fuel

(* The icache loop.  Each turn checks fuel and traps, looks the pc up
   once, and runs the head's block — or just the head, when the hooks
   need every step, the block is not built yet, the remaining fuel is
   shorter than it, or a trap address lies inside it.  A member may stop
   the run exactly as it would alone (its thunk leaves the same steps,
   pc and registers).  A store into the block's page leaves the block
   right after the storing instruction, and the next turn re-decodes.
   Followers credit one icache hit each, so hit and miss counts are those
   of a one-lookup-per-step loop. *)
let run_cached isa ~fuel ~traps ~kernel p mem c cpu =
  let finish = finish p cpu in
  (* What [lookup]'s miss path fills entries with: fetch, then compile
     for the fetch address.  Made once per run, so a hit allocates
     nothing. *)
  let decode mem addr =
    let insn, size = isa.fetch mem addr in
    ({ insn; size; run = isa.compile addr size insn; block = Unseen }, size)
  in
  let rec loop budget =
    let pc = isa.pc cpu in
    if budget <= 0 then finish Out_of_fuel
    else if at_trap traps pc then finish Trapped
    else
      match Icache.lookup c pc ~decode with
      | exception Undecodable { addr; byte } ->
          finish (Unfetchable (Outcome.Decode_error { addr; byte }))
      | exception Mem.Fault f -> finish (Unfetchable (Outcome.Fault f))
      | e -> dispatch budget pc e
  and dispatch budget pc (e : _ compiled Icache.entry) =
    let f = e.v in
    match f.block with
    | Built b when p.blocks && b.refills = Icache.refills c ->
        let n = Array.length b.runs in
        if n > budget || trap_within traps ~lo:b.lo ~hi:b.hi then
          single budget pc f
        else begin
          let cell = Icache.cell c in
          match (b.copy, p.summarise) with
          | Some l, Some fold -> copy budget b n e.lo_gen cell l fold
          | _ -> walk budget b n e.lo_gen cell
        end
    | (Seen | Built _) when p.blocks ->
        f.block <- build isa c e pc;
        dispatch budget pc e
    | Unseen ->
        f.block <- Seen;
        single budget pc f
    | Seen | Built _ -> single budget pc f
  and single budget pc f =
    match p.step with
    | None -> (
        match f.run cpu kernel with
        | Some reason -> finish (Stopped reason)
        | None -> loop (budget - 1))
    | Some h -> (
        match h.pre cpu pc f.insn f.size with
        | Veto reason -> finish (Stopped reason)
        | verdict -> (
            match f.run cpu kernel with
            | Some reason -> finish (Stopped reason)
            | None ->
                (match verdict with Commit c -> c () | _ -> ());
                loop (budget - 1)))
  (* [k] iterations of a copy loop as one step, bounded by the count,
     the fuel and the src and dst pages' ends, the observers told
     through [fold] once the copy has succeeded; the block's own walk
     when that leaves none, the dst is on the block's page, or the first
     byte would fault.  The head's lookup counted the first iteration's
     first hit. *)
  and copy budget b n gen cell l fold =
    let src = l.src cpu and dst = l.dst cpu in
    let k = Int.min (l.count cpu) (budget / n) in
    let k = Int.min k (Mem.page_size - (src land (Mem.page_size - 1))) in
    let k = Int.min k (Mem.page_size - (dst land (Mem.page_size - 1))) in
    if k < 1 || dst lsr Mem.page_bits = Array.unsafe_get b.pcs 0 lsr Mem.page_bits then
      walk budget b n gen cell
    else
      let last = Mem.copy_forward mem ~src ~dst k in
      if last < 0 then walk budget b n gen cell
      else begin
        fold b.pcs k;
        Icache.credit_loop c ~iterations:k ~hits:((n * k) - 1);
        l.retire cpu k last;
        loop (budget - (n * k))
      end
  and walk budget b n gen cell =
    match p.observe with
    | None -> block budget b n gen cell 0
    | Some observe -> observed budget b n gen cell observe 0
  (* Members before the last, then the terminator.  [observed] is the
     same walk for runs with [Observe] hooks. *)
  and block budget b n gen cell i =
    if i < n - 1 then
      match (Array.unsafe_get b.runs i) cpu kernel with
      | None ->
          if !cell = gen then block budget b n gen cell (i + 1)
          else left budget i
      | Some reason ->
          Icache.credit c i;
          finish (Stopped reason)
    else terminator budget b n
  and observed budget b n gen cell observe i =
    observe (Array.unsafe_get b.pcs i);
    if i < n - 1 then
      match (Array.unsafe_get b.runs i) cpu kernel with
      | None ->
          if !cell = gen then observed budget b n gen cell observe (i + 1)
          else left budget i
      | Some reason ->
          Icache.credit c i;
          finish (Stopped reason)
    else terminator budget b n
  (* A store into the block's page after member [i]: the next turn
     fetches the next member afresh. *)
  and left budget i =
    Icache.credit c i;
    loop (budget - i - 1)
  and terminator budget b n =
    let i = n - 1 in
    Icache.credit c i;
    match p.terminal with
    | None -> (
        match (Array.unsafe_get b.runs i) cpu kernel with
        | Some reason -> finish (Stopped reason)
        | None -> loop (budget - n))
    | Some pre -> (
        match pre cpu (Array.unsafe_get b.pcs i) b.last_insn b.last_size with
        | Veto reason -> finish (Stopped reason)
        | verdict -> (
            match (Array.unsafe_get b.runs i) cpu kernel with
            | Some reason -> finish (Stopped reason)
            | None ->
                (match verdict with Commit c -> c () | _ -> ());
                loop (budget - n)))
  in
  loop fuel

let run isa ~fuel ~traps ~kernel ~hooks mem icache cpu =
  match icache with
  | None -> run_exec isa ~fuel ~traps ~kernel (plan hooks) mem cpu
  | Some c -> run_cached isa ~fuel ~traps ~kernel (plan hooks) mem c cpu
