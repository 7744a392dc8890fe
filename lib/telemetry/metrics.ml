type sample = Value of float

type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_type : string;  (* "counter" | "gauge" *)
  s_seq : int;  (* registration order, for stable rendering within a name *)
  s_probe : unit -> float;
}

type t = { mutable series : series list; mutable next_seq : int }

let create () = { series = []; next_seq = 0 }

(* Same (name, labels) registered twice replaces the earlier series — a
   re-instrumented object (e.g. a restarted daemon) wins. *)
let probe t ?(help = "") ?(labels = []) ~kind name f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s =
    {
      s_name = name;
      s_help = help;
      s_labels = labels;
      s_type = (match kind with `Counter -> "counter" | `Gauge -> "gauge");
      s_seq = seq;
      s_probe = f;
    }
  in
  t.series <-
    s
    :: List.filter
         (fun x -> not (x.s_name = name && x.s_labels = labels))
         t.series

(* Exposition order: names alphabetical, registration order within a name. *)
let ordered t =
  List.sort (fun a b -> compare (a.s_name, a.s_seq) (b.s_name, b.s_seq)) t.series

(* --- scrape access ------------------------------------------------------ *)

let samples t =
  List.map
    (fun s -> (s.s_name, s.s_labels, s.s_type, Value (s.s_probe ())))
    (ordered t)

(* --- exposition --------------------------------------------------------- *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

(* Integral values print without a fraction (the common counter case);
   everything else gets a fixed precision — both deterministic. *)
let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let expose t =
  let b = Buffer.create 1024 in
  let last = ref None in
  List.iter
    (fun s ->
      (* The first series of each name carries the name's HELP and TYPE. *)
      if !last <> Some s.s_name then begin
        last := Some s.s_name;
        if s.s_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" s.s_name s.s_help);
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" s.s_name s.s_type)
      end;
      Buffer.add_string b
        (Printf.sprintf "%s%s %s\n" s.s_name (render_labels s.s_labels)
           (render_value (s.s_probe ()))))
    (ordered t);
  Buffer.contents b
