type t = { major : int; minor : int }

let make major minor = { major; minor }
let v1_30 = make 1 30
let v1_31 = make 1 31
let v1_32 = make 1 32
let v1_33 = make 1 33
let v1_34 = make 1 34
let v1_35 = make 1 35
let all = [ v1_30; v1_31; v1_32; v1_33; v1_34; v1_35 ]
let compare a b = Stdlib.compare (a.major, a.minor) (b.major, b.minor)
let vulnerable t = compare t v1_35 < 0

let rotate t items =
  let n = List.length items in
  let k = t.minor mod n in
  let rec split i acc = function
    | rest when i = 0 -> rest @ List.rev acc
    | x :: rest -> split (i - 1) (x :: acc) rest
    | [] -> List.rev acc
  in
  split k [] items

let to_string t = Printf.sprintf "%d.%d" t.major t.minor

let of_string s =
  match String.split_on_char '.' s with
  | [ ma; mi ] -> (
      match (int_of_string_opt ma, int_of_string_opt mi) with
      | Some major, Some minor -> Some { major; minor }
      | _ -> None)
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)
