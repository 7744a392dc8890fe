module Rng = Memsim.Rng

type plan = {
  seed : int;
  order : string list;
  moved : int;
  pad_bytes : int;
  rewrites : int;
}

(* Every item a variant may hold has an id: its index in [items], for
   the item list {!generate} gives, and in the template's assembler
   pool, for the text {!text} gives.

   A chunk as the pass sees it is cut at its swaps, the instructions
   Equiv has a substitute for, each carrying both encodings.  Between
   two swaps lies a run of items Equiv cannot change: each run of
   concrete items in it is one item of bytes encoded once, and labels,
   references and alignments are items of their own.  A run draws no
   coin, only skips the ones its instructions would draw. *)
type chunk = {
  name : string;
  runs : int array array;  (* one more than [swaps] *)
  skips : int array;  (* the coins each run skips *)
  swaps : (int array * int array) array;  (* keep, substitute *)
}

type 'item template = {
  names : string list;  (* chunk names in the program's order *)
  chunks : chunk array;  (* in the program's order *)
  pads : (int array * int) array;  (* padding of each draw: its items, its bytes *)
  coins : seed:int -> Rng.t;
  items : 'item array;  (* by id *)
  pool : Machine.Asm.pool;  (* every item's piece, prepared once *)
  longest : int;  (* the most items a variant can have *)
  stock : Machine.Asm.text;
}

let compile ~add ~site ~concrete ~bytes (name, items) =
  let runs = ref [] and skips = ref [] and swaps = ref [] in
  let run = ref [] and run_skips = ref 0 and concretes = Buffer.create 256 in
  let flush () =
    if Buffer.length concretes > 0 then run := add (bytes (Buffer.contents concretes)) :: !run;
    Buffer.clear concretes
  in
  let close () =
    flush ();
    runs := Array.of_list (List.rev !run) :: !runs;
    skips := !run_skips :: !skips;
    run := [];
    run_skips := 0
  in
  let coins_of = function Defense.Equiv.Inert -> 0 | Defense.Equiv.Coin _ -> 1 in
  (* Equiv substitutes instructions only, which are always concrete. *)
  let encoded item = [| add (bytes (Option.get (concrete item))) |] in
  List.iter
    (fun item ->
      match (site item, concrete item) with
      | Defense.Equiv.Coin (Some alt), _ ->
          close ();
          let keep = encoded item in
          swaps := (keep, encoded alt) :: !swaps
      | site, Some s ->
          Buffer.add_string concretes s;
          run_skips := !run_skips + coins_of site
      | site, None ->
          flush ();
          run := add item :: !run;
          run_skips := !run_skips + coins_of site)
    items;
  close ();
  let rev l = Array.of_list (List.rev l) in
  { name; runs = rev !runs; skips = rev !skips; swaps = rev !swaps }

(* The ids [walk] emits, as a program over [pool].  Every padding draw
   has as many items as the others, so a variant has exactly [longest]
   items and [seq] is its program as filled. *)
let collect pool ~longest walk =
  let seq = Array.make longest 0 and n = ref 0 in
  let r =
    walk (fun ids ->
        let k = !n in
        for i = 0 to Array.length ids - 1 do
          seq.(k + i) <- ids.(i)
        done;
        n := k + Array.length ids)
  in
  (Machine.Asm.text pool (if !n = longest then seq else Array.sub seq 0 !n), r)

let template ~site ~concrete ~bytes ~pool ~pads ~coins chunks =
  let items = ref [] and n = ref 0 in
  let add item =
    items := item :: !items;
    incr n;
    !n - 1
  in
  let chunks = Array.of_list (List.map (compile ~add ~site ~concrete ~bytes) chunks) in
  let pads = Array.map (fun (items, n) -> (Array.of_list (List.map add items), n)) pads in
  let widest = Array.fold_left (fun m (ids, _) -> max m (Array.length ids)) 0 pads in
  let size c = Array.fold_left (fun m run -> m + Array.length run) (Array.length c.swaps) c.runs in
  let longest = Array.fold_left (fun m c -> m + widest + size c) 0 chunks in
  let items = Array.of_list (List.rev !items) in
  let pool = pool items in
  (* The chunks in order, each swap keeping its instruction. *)
  let stock emit =
    Array.iter
      (fun c ->
        Array.iteri
          (fun i (keep, _) ->
            emit c.runs.(i);
            emit keep)
          c.swaps;
        emit c.runs.(Array.length c.swaps))
      chunks
  in
  {
    names = Array.to_list (Array.map (fun c -> c.name) chunks);
    chunks;
    pads;
    coins;
    items;
    pool;
    longest;
    stock = fst (collect pool ~longest stock);
  }

let x86_template chunks =
  let nops n = [ Isa_x86.Asm.Bytes (String.make n '\x90') ] in
  template ~site:Defense.Equiv.x86_site ~concrete:Isa_x86.Asm.concrete
    ~bytes:(fun s -> Isa_x86.Asm.Bytes s)
    ~pool:Isa_x86.Asm.pool
    ~pads:(Array.init 64 (fun n -> (nops n, n)))
    ~coins:Defense.Equiv.x86_rng chunks

let arm_template chunks =
  let nop = Isa_arm.Encode.encode Isa_arm.Insn.nop in
  let words n =
    [ Isa_arm.Asm.Align 4; Isa_arm.Asm.Bytes (String.concat "" (List.init n (fun _ -> nop))) ]
  in
  template ~site:Defense.Equiv.arm_site ~concrete:Isa_arm.Asm.concrete
    ~bytes:(fun s -> Isa_arm.Asm.Bytes s)
    ~pool:Isa_arm.Asm.pool
    ~pads:(Array.init 16 (fun n -> (words n, 4 * n)))
    ~coins:Defense.Equiv.arm_rng chunks

(* Chunks displaced from their original position.  Every moved chunk
   shifts the addresses of everything assembled after it, so [moved] is
   the cheap proxy for "how much of the gadget map survived". *)
let moved_count names order =
  List.fold_left2 (fun n a b -> if String.equal a b then n else n + 1) 0 names order

(* The one pass every form of a variant goes through.  Bit-for-bit the
   historical in-spec pipeline: the layout rng is created from
   [seed lxor 0x5EED], shuffles the chunks, then draws one padding per
   chunk in shuffled order; Equiv's coins are one stream over the padded
   list, one coin per site it draws at.  Committed experiment seeds and
   the version-transfer results depend on it.  A run's coins are
   skipped: only a swap reads its coin.  [emit] sees every item id of
   the variant in layout order, a run, a padding or a swap's choice at
   a time. *)
let draw ~seed t emit =
  let rng = Rng.create (seed lxor 0x5EED) in
  let arr = Array.copy t.chunks in
  Rng.shuffle rng arr;
  let coins = t.coins ~seed in
  let pending = ref 0 and pad_bytes = ref 0 and rewrites = ref 0 in
  Array.iter
    (fun c ->
      let pad, bytes = t.pads.(Rng.int rng (Array.length t.pads)) in
      pad_bytes := !pad_bytes + bytes;
      emit pad;
      Array.iteri
        (fun i (keep, alt) ->
          emit c.runs.(i);
          Rng.skip coins (!pending + c.skips.(i));
          pending := 0;
          if Rng.bool coins then begin
            incr rewrites;
            emit alt
          end
          else emit keep)
        c.swaps;
      let last = Array.length c.swaps in
      emit c.runs.(last);
      pending := !pending + c.skips.(last))
    arr;
  let order = Array.to_list (Array.map (fun c -> c.name) arr) in
  { seed; order; moved = moved_count t.names order; pad_bytes = !pad_bytes; rewrites = !rewrites }

let plan ~seed t = draw ~seed t ignore

let generate ~seed t =
  let out = ref [] in
  let plan = draw ~seed t (Array.iter (fun id -> out := t.items.(id) :: !out)) in
  (List.rev !out, plan)

let text ~seed t = collect t.pool ~longest:t.longest (draw ~seed t)
let stock t = t.stock
