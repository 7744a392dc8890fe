type piece =
  | Label of string
  | Bytes of string
  | Ref of { size : int; sym : string; emit : int -> int -> string }
  | Align of int * char

module Labels = Hashtbl.Make (String)

(* A reference's hole; [local] is its label's offset, [None] for an extern. *)
type fixup = { off : int; size : int; sym : string; local : int option; emit : int -> int -> string }

type layout = {
  image : string;  (* concrete bytes, zeros in each hole *)
  fixups : fixup list;  (* in program order *)
  labels : int Labels.t;
  sorted : (string * int) list;  (* label offsets, by name *)
  base_align : int;
}

let layout ?(base_align = 1) pieces =
  let labels = Labels.create 64 in
  let buf = Buffer.create 1024 in
  let refs = ref [] in
  List.iter
    (function
      | Label name ->
          if Labels.mem labels name then failwith ("Asm: duplicate symbol " ^ name);
          Labels.add labels name (Buffer.length buf)
      | Bytes s -> Buffer.add_string buf s
      | Ref { size; sym; emit } ->
          refs := (Buffer.length buf, size, sym, emit) :: !refs;
          Buffer.add_string buf (String.make size '\000')
      | Align (n, fill) ->
          if n <= 0 || n land (n - 1) <> 0 then
            failwith "Asm.Align: alignment must be a positive power of two";
          Buffer.add_string buf (String.make ((n - (Buffer.length buf land (n - 1))) land (n - 1)) fill))
    pieces;
  let fixups =
    List.rev_map
      (fun (off, size, sym, emit) -> { off; size; sym; local = Labels.find_opt labels sym; emit })
      !refs
  in
  let sorted = Labels.fold (fun name off acc -> (name, off) :: acc) labels [] in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) sorted in
  { image = Buffer.contents buf; fixups; labels; sorted; base_align }

let size l = String.length l.image

type result = { base : int; code : string; symbols : (string * int) list }

let link ?(extern = []) ~base l =
  if base mod l.base_align <> 0 then
    failwith (Printf.sprintf "Asm: base must be %d-byte aligned" l.base_align);
  List.iter
    (fun (name, _) -> if Labels.mem l.labels name then failwith ("Asm: duplicate symbol " ^ name))
    extern;
  let code = Bytes.of_string l.image in
  List.iter
    (fun f ->
      let target =
        match f.local with
        | Some off -> base + off
        | None -> (
            try List.assoc f.sym extern
            with Not_found -> failwith ("Asm: undefined symbol " ^ f.sym))
      in
      let s = f.emit (base + f.off) target in
      if String.length s <> f.size then invalid_arg "Asm.link: an emitter changed its size";
      Bytes.blit_string s 0 code f.off f.size)
    l.fixups;
  let symbols = List.map (fun (name, off) -> (name, base + off)) l.sorted in
  { base; code = Bytes.unsafe_to_string code; symbols }

let symbol result name = List.assoc name result.symbols
let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
