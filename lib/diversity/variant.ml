module Rng = Memsim.Rng

type plan = {
  seed : int;
  order : string list;
  moved : int;
  pad_bytes : int;
  rewrites : int;
}

(* Chunks displaced from their original position.  Every moved chunk
   shifts the addresses of everything assembled after it, so [moved] is
   the cheap proxy for "how much of the gadget map survived". *)
let moved_count names order =
  List.length (List.filter (fun (a, b) -> a <> b) (List.combine names order))

(* Both passes must stay bit-for-bit compatible with the historical
   in-spec pipeline (rng created from [seed lxor 0x5EED], shuffle first,
   then one padding draw per chunk in shuffled order, then the whole
   list through [Defense.Equiv]): committed experiment seeds and the
   version-transfer results depend on it. *)

let x86 ~seed chunks =
  let rng = Rng.create (seed lxor 0x5EED) in
  let arr = Array.of_list chunks in
  Rng.shuffle rng arr;
  let pad_bytes = ref 0 in
  let padded =
    Array.to_list arr
    |> List.concat_map (fun (_, items) ->
           let pad = String.make (Rng.int rng 64) '\x90' in
           pad_bytes := !pad_bytes + String.length pad;
           Isa_x86.Asm.Bytes pad :: items)
  in
  let rewritten, rewrites = Defense.Equiv.x86 ~seed padded in
  let order = Array.to_list (Array.map fst arr) in
  ( rewritten,
    {
      seed;
      order;
      moved = moved_count (List.map fst chunks) order;
      pad_bytes = !pad_bytes;
      rewrites;
    } )

let arm ~seed chunks =
  let rng = Rng.create (seed lxor 0x5EED) in
  let arr = Array.of_list chunks in
  Rng.shuffle rng arr;
  let nop = Isa_arm.Encode.encode Isa_arm.Insn.nop in
  let pad_bytes = ref 0 in
  let padded =
    Array.to_list arr
    |> List.concat_map (fun (_, items) ->
           let pad =
             String.concat ""
               (List.init (Rng.int rng 16) (fun _ -> nop))
           in
           pad_bytes := !pad_bytes + String.length pad;
           Isa_arm.Asm.Align 4 :: Isa_arm.Asm.Bytes pad :: items)
  in
  let rewritten, rewrites = Defense.Equiv.arm ~seed padded in
  let order = Array.to_list (Array.map fst arr) in
  ( rewritten,
    {
      seed;
      order;
      moved = moved_count (List.map fst chunks) order;
      pad_bytes = !pad_bytes;
      rewrites;
    } )
