(* Per-pc counts keyed by int with an inline multiplicative hash — not
   the polymorphic [caml_hash] — and probed with [find], so recording a
   pc already seen allocates nothing. *)
module Pcs = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash pc = (pc * 0x9E3779B1) lsr 16
end)

type t = {
  counts : int ref Pcs.t;
  mutable total : int;
  mutable sink : (int -> unit) option;
}

let create () = { counts = Pcs.create 1024; total = 0; sink = None }

let set_sink t sink = t.sink <- sink

let add t pc n =
  match Pcs.find t.counts pc with
  | r -> r := !r + n
  | exception Not_found -> Pcs.add t.counts pc (ref n)

let record t pc =
  add t pc 1;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f pc

(* [k] passes over [pcs] add [k] per member, in member order (so a pc
   first seen here enters the table where the passes would put it); a
   sink must see every pc, so with one there is no fold. *)
let fold t =
  match t.sink with
  | Some _ -> None
  | None ->
      Some
        (fun pcs k ->
          Array.iter (fun pc -> add t pc k) pcs;
          t.total <- t.total + (Array.length pcs * k))

let total t = t.total
let distinct_pcs t = Pcs.length t.counts

let clear t =
  Pcs.reset t.counts;
  t.total <- 0

(* "parse_response+0x4c" and "parse_response+0x50" both bucket under
   "parse_response"; bare hex addresses stay as-is. *)
let base_symbol s =
  match String.index_opt s '+' with
  | Some i -> String.sub s 0 i
  | None -> s

let report t ~symbolize =
  let by_sym = Hashtbl.create 64 in
  Pcs.iter
    (fun pc n ->
      let sym = base_symbol (symbolize pc) in
      match Hashtbl.find_opt by_sym sym with
      | Some r -> r := !r + !n
      | None -> Hashtbl.add by_sym sym (ref !n))
    t.counts;
  let rows = Hashtbl.fold (fun sym n acc -> (sym, !n) :: acc) by_sym [] in
  List.sort
    (fun (sa, na) (sb, nb) ->
      if na <> nb then compare nb na else compare sa sb)
    rows

let folded t ~symbolize ?(root = "all") () =
  let b = Buffer.create 256 in
  List.iter
    (fun (sym, n) -> Buffer.add_string b (Printf.sprintf "%s;%s %d\n" root sym n))
    (report t ~symbolize);
  Buffer.contents b

let pp_flat ?top ~symbolize ppf t =
  let rows = report t ~symbolize in
  let rows =
    match top with
    | Some n -> List.filteri (fun i _ -> i < n) rows
    | None -> rows
  in
  let tot = float_of_int (max t.total 1) in
  Format.fprintf ppf "%10s  %6s  %s@." "insns" "%" "symbol";
  List.iter
    (fun (sym, n) ->
      Format.fprintf ppf "%10d  %5.1f%%  %s@." n
        (100.0 *. float_of_int n /. tot)
        sym)
    rows;
  Format.fprintf ppf "%10d  total (%d distinct pcs)@." t.total
    (Pcs.length t.counts)
