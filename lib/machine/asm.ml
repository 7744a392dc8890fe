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

let gap off n = (n - (off land (n - 1))) land (n - 1)

(* Two passes: the first sizes the image, so the second writes every
   piece straight into its final buffer. *)
let layout ?(base_align = 1) pieces =
  let size =
    List.fold_left
      (fun off -> function
        | Label _ -> off
        | Bytes s -> off + String.length s
        | Ref { size; _ } -> off + size
        | Align (n, _) ->
            if n <= 0 || n land (n - 1) <> 0 then
              failwith "Asm.Align: alignment must be a positive power of two";
            off + gap off n)
      0 pieces
  in
  let labels = Labels.create 64 in
  let image = Bytes.make size '\000' in
  let refs = ref [] in
  let (_ : int) =
    List.fold_left
      (fun off -> function
        | Label name ->
            if Labels.mem labels name then failwith ("Asm: duplicate symbol " ^ name);
            Labels.add labels name off;
            off
        | Bytes s ->
            Bytes.blit_string s 0 image off (String.length s);
            off + String.length s
        | Ref { size; sym; emit } ->
            refs := (off, size, sym, emit) :: !refs;
            off + size
        | Align (n, fill) ->
            let g = gap off n in
            Bytes.fill image off g fill;
            off + g)
      0 pieces
  in
  let fixups =
    List.rev_map
      (fun (off, size, sym, emit) -> { off; size; sym; local = Labels.find_opt labels sym; emit })
      !refs
  in
  let sorted = Labels.fold (fun name off acc -> (name, off) :: acc) labels [] in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) sorted in
  { image = Bytes.unsafe_to_string image; fixups; labels; sorted; base_align }

let size l = String.length l.image

type result = { base : int; code : string; symbols : (string * int) list }

let link ?(extern = []) ?pad_to ~base l =
  if base mod l.base_align <> 0 then
    failwith (Printf.sprintf "Asm: base must be %d-byte aligned" l.base_align);
  List.iter
    (fun (name, _) -> if Labels.mem l.labels name then failwith ("Asm: duplicate symbol " ^ name))
    extern;
  let code =
    match pad_to with
    | None -> Bytes.of_string l.image
    | Some n ->
        if n < size l then invalid_arg "Asm.link: pad_to is shorter than the image";
        let code = Bytes.make n '\000' in
        Bytes.blit_string l.image 0 code 0 (size l);
        code
  in
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
