module Rng = Memsim.Rng

type plan = {
  seed : int;
  order : string list;
  moved : int;
  pad_bytes : int;
  rewrites : int;
}

(* A chunk as the pass sees it: every run of concrete items that Equiv
   cannot change is one [Fixed] item of bytes encoded once, carrying the
   coins its instructions draw; labels, references and alignments are
   [Fixed] items of their own, drawing nothing; an instruction with a
   substitute is a [Swap] of its two encodings. *)
type 'item seg = Fixed of 'item * int | Swap of 'item * 'item

type 'item template = {
  chunks : (string * 'item seg list) array;  (* in the program's order *)
  pads : ('item list * int) array;  (* padding of each draw: its items, its bytes *)
  coins : seed:int -> Rng.t;
}

let compile ~site ~concrete ~bytes items =
  let segs = ref [] and run = Buffer.create 256 and coins = ref 0 in
  let flush () =
    if Buffer.length run > 0 then segs := Fixed (bytes (Buffer.contents run), !coins) :: !segs;
    Buffer.clear run;
    coins := 0
  in
  let coins_of = function Defense.Equiv.Inert -> 0 | Defense.Equiv.Coin _ -> 1 in
  (* Equiv substitutes instructions only, which are always concrete. *)
  let encoded item = bytes (Option.get (concrete item)) in
  List.iter
    (fun item ->
      match (site item, concrete item) with
      | Defense.Equiv.Coin (Some alt), _ ->
          flush ();
          segs := Swap (encoded item, encoded alt) :: !segs
      | site, Some s ->
          Buffer.add_string run s;
          coins := !coins + coins_of site
      | site, None ->
          flush ();
          segs := Fixed (item, coins_of site) :: !segs)
    items;
  flush ();
  List.rev !segs

let template ~site ~concrete ~bytes ~pads ~coins chunks =
  {
    chunks =
      Array.of_list (List.map (fun (name, items) -> (name, compile ~site ~concrete ~bytes items)) chunks);
    pads;
    coins;
  }

let x86_template chunks =
  let nops n = [ Isa_x86.Asm.Bytes (String.make n '\x90') ] in
  template ~site:Defense.Equiv.x86_site ~concrete:Isa_x86.Asm.concrete
    ~bytes:(fun s -> Isa_x86.Asm.Bytes s)
    ~pads:(Array.init 64 (fun n -> (nops n, n)))
    ~coins:Defense.Equiv.x86_rng chunks

let arm_template chunks =
  let nop = Isa_arm.Encode.encode Isa_arm.Insn.nop in
  let words n =
    [ Isa_arm.Asm.Align 4; Isa_arm.Asm.Bytes (String.concat "" (List.init n (fun _ -> nop))) ]
  in
  template ~site:Defense.Equiv.arm_site ~concrete:Isa_arm.Asm.concrete
    ~bytes:(fun s -> Isa_arm.Asm.Bytes s)
    ~pads:(Array.init 16 (fun n -> (words n, 4 * n)))
    ~coins:Defense.Equiv.arm_rng chunks

(* Chunks displaced from their original position.  Every moved chunk
   shifts the addresses of everything assembled after it, so [moved] is
   the cheap proxy for "how much of the gadget map survived". *)
let moved_count names order =
  List.length (List.filter (fun (a, b) -> a <> b) (List.combine names order))

(* Bit-for-bit the historical in-spec pipeline: the layout rng is
   created from [seed lxor 0x5EED], shuffles the chunks, then draws one
   padding per chunk in shuffled order; Equiv's coins are one stream
   over the padded list, one coin per site it draws at.  Committed
   experiment seeds and the version-transfer results depend on it.  A
   [Fixed] run's coins are skipped: only a [Swap] reads its coin. *)
let generate ~seed t =
  let rng = Rng.create (seed lxor 0x5EED) in
  let arr = Array.copy t.chunks in
  Rng.shuffle rng arr;
  let coins = t.coins ~seed in
  let pending = ref 0 and pad_bytes = ref 0 and rewrites = ref 0 and out = ref [] in
  Array.iter
    (fun (_, segs) ->
      let pad, bytes = t.pads.(Rng.int rng (Array.length t.pads)) in
      pad_bytes := !pad_bytes + bytes;
      out := List.rev_append pad !out;
      List.iter
        (function
          | Fixed (item, n) ->
              pending := !pending + n;
              out := item :: !out
          | Swap (keep, alt) ->
              Rng.skip coins !pending;
              pending := 0;
              if Rng.bool coins then begin
                incr rewrites;
                out := alt :: !out
              end
              else out := keep :: !out)
        segs)
    arr;
  let order = Array.to_list (Array.map fst arr) in
  ( List.rev !out,
    {
      seed;
      order;
      moved = moved_count (Array.to_list (Array.map fst t.chunks)) order;
      pad_bytes = !pad_bytes;
      rewrites = !rewrites;
    } )
