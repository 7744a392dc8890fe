type label = int

let clean = 0

let make ~src ~offset =
  if offset < 0 || offset > 0xFFFE then
    invalid_arg (Printf.sprintf "Shadow.make: offset %d out of range" offset);
  if src < 0 then invalid_arg (Printf.sprintf "Shadow.make: negative src %d" src);
  (src lsl 16) lor (offset + 1)

let source_of label = label lsr 16
let offset_of label = (label land 0xFFFF) - 1
let join a b = if a <> 0 then a else b

(* Pages sit in an int-keyed table behind a one-entry cache of the last
   page looked up: the taint loops touch a byte or a word at a time, and
   consecutive accesses almost always fall in the same page.  The cache
   also remembers a miss ([absent]), so reads of never-tainted memory
   skip the table too. *)
type t = {
  pages : int array Int_table.t;
  mutable last_idx : int;  (* page index of [last_page]; -1: none *)
  mutable last_page : int array;  (* [absent] when that page has no labels *)
}

let absent = [||]
let create () = { pages = Int_table.create 64; last_idx = -1; last_page = absent }

let page_of addr = addr lsr Memory.page_bits
let offset_in_page addr = addr land (Memory.page_size - 1)

let page t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p = Int_table.find_or t.pages idx ~default:absent in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

let forget t =
  t.last_idx <- -1;
  t.last_page <- absent

let get t addr =
  let p = page t (page_of addr) in
  if p == absent then 0 else Array.unsafe_get p (offset_in_page addr)

let set t addr label =
  let idx = page_of addr in
  let p = page t idx in
  if p != absent then Array.unsafe_set p (offset_in_page addr) label
  else if label <> 0 then begin
    let p = Array.make Memory.page_size 0 in
    p.(offset_in_page addr) <- label;
    Int_table.replace t.pages idx p;
    t.last_page <- p
  end

let clear_range t addr ~len =
  for i = 0 to len - 1 do
    set t (Word.add addr i) 0
  done

let clear t =
  Int_table.reset t.pages;
  forget t

let tainted t =
  Int_table.fold
    (fun _ page acc ->
      Array.fold_left (fun n l -> if l <> 0 then n + 1 else n) acc page)
    t.pages 0
