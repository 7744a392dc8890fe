type piece =
  | Label of string
  | Bytes of string
  | Ref of { prefix : string; sym : string; field : int -> int -> int }
  | Align of int * char

(* A piece as a pool holds it: a label by its id, a reference by its
   site. *)
type placed = P_label of int | P_bytes of string | P_ref of int | P_align of int * char

(* A reference; [label] is the id of the label of that name the pool
   defines, or -1. *)
type site = { prefix : string; sym : string; label : int; field : int -> int -> int }

let site_size s = String.length s.prefix + 4

(* The pool's view of one extern list: the id of each extern that the
   pool also defines as a label, and each site's extern address, if
   any.  Every variant of a process links against the same list. *)
type externs = {
  list : (string * int) list;
  clashes : (string * int) list;  (* extern name, label id; in list order *)
  addrs : int option array;  (* by site *)
}

type pool = {
  placed : placed array;
  sites : site array;
  names : string array;  (* label id -> name *)
  sorted : int array;  (* label ids, by name *)
  ids : (string, int) Hashtbl.t;  (* name -> label id *)
  base_align : int;
  mutable externs : externs;  (* of the last list linked against *)
}

type text = { pool : pool; seq : int array }

let gap off n = (n - (off land (n - 1))) land (n - 1)

let pool ?(base_align = 1) pieces =
  let ids = Hashtbl.create 64 in
  let names = ref [] in
  Array.iter
    (function
      | Label name when not (Hashtbl.mem ids name) ->
          Hashtbl.add ids name (Hashtbl.length ids);
          names := name :: !names
      | Align (n, _) when n <= 0 || n land (n - 1) <> 0 ->
          failwith "Asm.Align: alignment must be a positive power of two"
      | _ -> ())
    pieces;
  let names = Array.of_list (List.rev !names) in
  let sites = ref [] and nsites = ref 0 in
  let placed =
    Array.map
      (function
        | Label name -> P_label (Hashtbl.find ids name)
        | Bytes s -> P_bytes s
        | Ref { prefix; sym; field } ->
            let label = Option.value (Hashtbl.find_opt ids sym) ~default:(-1) in
            sites := { prefix; sym; label; field } :: !sites;
            incr nsites;
            P_ref (!nsites - 1)
        | Align (n, fill) -> P_align (n, fill))
      pieces
  in
  let sorted = Array.init (Array.length names) Fun.id in
  Array.sort (fun a b -> String.compare names.(a) names.(b)) sorted;
  {
    placed;
    sites = Array.of_list (List.rev !sites);
    names;
    sorted;
    ids;
    base_align;
    externs = { list = []; clashes = []; addrs = Array.make !nsites None };
  }

let text pool seq = { pool; seq }
let whole pool = text pool (Array.init (Array.length pool.placed) Fun.id)

let text_size { pool; seq } =
  Array.fold_left
    (fun off i ->
      match pool.placed.(i) with
      | P_label _ -> off
      | P_bytes s -> off + String.length s
      | P_ref r -> off + site_size pool.sites.(r)
      | P_align (n, _) -> off + gap off n)
    0 seq

(* Where [place] put a text: each label's offset and each reference's,
   -1 for what the text does not place. *)
type placement = { labels : int array; refs : int array }

exception Too_long

(* The one layout pass, for a stored image and a variant alike: every
   piece of the text placed in order from [dst]'s [pos] — bytes copied,
   alignment filled, each reference's hole left as it is.  Raises
   [Too_long], having written part of the text, if it needs more than
   [room] bytes; returns where it ended. *)
let place { pool; seq } dst pos ~room =
  let labels = Array.make (Array.length pool.names) (-1) in
  let refs = Array.make (Array.length pool.sites) (-1) in
  let off = ref 0 in
  for k = 0 to Array.length seq - 1 do
    match pool.placed.(seq.(k)) with
    | P_label id ->
        if labels.(id) >= 0 then failwith ("Asm: duplicate symbol " ^ pool.names.(id));
        labels.(id) <- !off
    | P_bytes s ->
        let n = String.length s in
        if !off + n > room then raise_notrace Too_long;
        Bytes.blit_string s 0 dst (pos + !off) n;
        off := !off + n
    | P_ref r ->
        if refs.(r) >= 0 then invalid_arg "Asm.text: a reference placed twice";
        let n = site_size pool.sites.(r) in
        if !off + n > room then raise_notrace Too_long;
        refs.(r) <- !off;
        off := !off + n
    | P_align (n, fill) ->
        let g = gap !off n in
        if !off + g > room then raise_notrace Too_long;
        Bytes.fill dst (pos + !off) g fill;
        off := !off + g
  done;
  ({ labels; refs }, !off)

let check_base pool base =
  if base mod pool.base_align <> 0 then
    failwith (Printf.sprintf "Asm: base must be %d-byte aligned" pool.base_align)

let set_le32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let externs pool extern =
  if pool.externs.list != extern then
    pool.externs <-
      {
        list = extern;
        clashes =
          List.filter_map
            (fun (name, _) -> Option.map (fun id -> (name, id)) (Hashtbl.find_opt pool.ids name))
            extern;
        addrs = Array.map (fun f -> List.assoc_opt f.sym extern) pool.sites;
      };
  pool.externs

(* What [place] leaves to a base: the externs checked against the
   labels, each hole filled, the symbols. *)
let resolve pool { labels; refs } ~extern ~base dst pos =
  let ext = externs pool extern in
  List.iter
    (fun (name, id) -> if labels.(id) >= 0 then failwith ("Asm: duplicate symbol " ^ name))
    ext.clashes;
  for r = 0 to Array.length refs - 1 do
    let off = refs.(r) in
    if off >= 0 then begin
      let f = pool.sites.(r) in
      let target =
        if f.label >= 0 && labels.(f.label) >= 0 then base + labels.(f.label)
        else
          match ext.addrs.(r) with
          | Some a -> a
          | None -> failwith ("Asm: undefined symbol " ^ f.sym)
      in
      let n = String.length f.prefix in
      Bytes.blit_string f.prefix 0 dst (pos + off) n;
      set_le32 dst (pos + off + n) (f.field (base + off) target)
    end
  done;
  Array.fold_right
    (fun id acc -> if labels.(id) >= 0 then (pool.names.(id), base + labels.(id)) :: acc else acc)
    pool.sorted []

let write ?(extern = []) ~base text dst pos ~room =
  check_base text.pool base;
  match place text dst pos ~room with
  | placement, size -> Some (size, resolve text.pool placement ~extern ~base dst pos)
  | exception Too_long -> None

type layout = { pool : pool; image : string; placement : placement }

let layout text =
  let size = text_size text in
  let image = Bytes.make size '\000' in
  let placement, _ = place text image 0 ~room:size in
  { pool = text.pool; image = Bytes.unsafe_to_string image; placement }

let size l = String.length l.image

type result = { base : int; code : string; symbols : (string * int) list }

let link ?(extern = []) ~base l =
  check_base l.pool base;
  let code = Bytes.of_string l.image in
  let symbols = resolve l.pool l.placement ~extern ~base code 0 in
  { base; code = Bytes.unsafe_to_string code; symbols }

let symbol result name = List.assoc name result.symbols
let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
