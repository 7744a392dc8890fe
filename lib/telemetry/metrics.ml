type sample =
  | Value of float
  | Hist of { cumulative : (float * int) list; sum : float; count : int }

type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_type : string;  (* "counter" | "gauge" | "histogram" *)
  s_seq : int;  (* registration order, for stable rendering within a name *)
  s_sample : unit -> sample;
}

type t = { mutable series : series list; mutable next_seq : int }

let create () = { series = []; next_seq = 0 }

(* Same (name, labels) registered twice replaces the earlier series — a
   re-instrumented object (e.g. a restarted daemon) wins. *)
let add t ~name ~help ~labels ~typ sample =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let s =
    {
      s_name = name;
      s_help = help;
      s_labels = labels;
      s_type = typ;
      s_seq = seq;
      s_sample = sample;
    }
  in
  t.series <-
    s
    :: List.filter
         (fun x -> not (x.s_name = name && x.s_labels = labels))
         t.series

type counter = float ref

let counter t ?(help = "") ?(labels = []) name =
  let r = ref 0.0 in
  add t ~name ~help ~labels ~typ:"counter" (fun () -> Value !r);
  r

let inc ?(by = 1.0) c = c := !c +. by

type gauge = float ref

let gauge t ?(help = "") ?(labels = []) name =
  let r = ref 0.0 in
  add t ~name ~help ~labels ~typ:"gauge" (fun () -> Value !r);
  r

let set g v = g := v

type histogram = {
  h_bounds : float array;  (* ascending upper bounds, +Inf excluded *)
  h_counts : int array;  (* per-bucket (non-cumulative), last = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

let default_buckets = [ 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
  let bounds = Array.of_list (List.sort_uniq compare buckets) in
  let h =
    {
      h_bounds = bounds;
      h_counts = Array.make (Array.length bounds + 1) 0;
      h_sum = 0.0;
      h_count = 0;
    }
  in
  add t ~name ~help ~labels ~typ:"histogram" (fun () ->
      let acc = ref 0 in
      let cumulative =
        Array.to_list
          (Array.mapi
             (fun i le ->
               acc := !acc + h.h_counts.(i);
               (le, !acc))
             h.h_bounds)
      in
      Hist { cumulative; sum = h.h_sum; count = h.h_count });
  h

let observe h v =
  let n = Array.length h.h_bounds in
  let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
  h.h_counts.(slot 0) <- h.h_counts.(slot 0) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let probe t ?(help = "") ?(labels = []) ~kind name f =
  let typ = match kind with `Counter -> "counter" | `Gauge -> "gauge" in
  add t ~name ~help ~labels ~typ (fun () -> Value (f ()))

(* --- quantiles ---------------------------------------------------------- *)

(* Shared by [quantile] (live histogram) and [sample_quantile] (a scraped
   [Hist]): walk the cumulative bucket counts and linearly interpolate the
   rank inside the first bucket that reaches it.  Observations above the
   largest finite bound clamp to that bound — the overflow bucket has no
   upper edge to interpolate toward. *)
let quantile_of_cumulative cumulative count q =
  if count = 0 then Float.nan
  else
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = q *. float_of_int count in
    let rec walk lo lo_cum = function
      | [] -> lo (* rank lands in the overflow bucket: clamp to last bound *)
      | (le, cum) :: rest ->
          if cum > lo_cum && float_of_int cum >= rank then
            let span = float_of_int (cum - lo_cum) in
            let frac = (rank -. float_of_int lo_cum) /. span in
            lo +. ((le -. lo) *. frac)
          else walk le cum rest
    in
    walk 0.0 0 cumulative

let quantile h q =
  let acc = ref 0 in
  let cumulative =
    Array.to_list
      (Array.mapi
         (fun i le ->
           acc := !acc + h.h_counts.(i);
           (le, !acc))
         h.h_bounds)
  in
  quantile_of_cumulative cumulative h.h_count q

let sample_quantile s q =
  match s with
  | Value _ -> Float.nan
  | Hist { cumulative; count; _ } -> quantile_of_cumulative cumulative count q

(* --- scrape access ------------------------------------------------------ *)

let samples t =
  let names = List.sort_uniq compare (List.map (fun s -> s.s_name) t.series) in
  List.concat_map
    (fun name ->
      let group =
        List.sort
          (fun a b -> compare a.s_seq b.s_seq)
          (List.filter (fun s -> s.s_name = name) t.series)
      in
      List.map
        (fun s -> (s.s_name, s.s_labels, s.s_type, s.s_sample ()))
        group)
    names

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

let bound_label le =
  if Float.is_integer le && Float.abs le < 1e15 then Printf.sprintf "%.0f" le
  else Printf.sprintf "%g" le

let expose t =
  let names =
    List.sort_uniq compare (List.map (fun s -> s.s_name) t.series)
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      let group =
        List.sort
          (fun a b -> compare a.s_seq b.s_seq)
          (List.filter (fun s -> s.s_name = name) t.series)
      in
      let first = List.hd group in
      if first.s_help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name first.s_help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name first.s_type);
      List.iter
        (fun s ->
          match s.s_sample () with
          | Value v ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" name (render_labels s.s_labels)
                   (render_value v))
          | Hist { cumulative; sum; count } ->
              List.iter
                (fun (le, n) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" name
                       (render_labels (s.s_labels @ [ ("le", bound_label le) ]))
                       n))
                cumulative;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (render_labels (s.s_labels @ [ ("le", "+Inf") ]))
                   count);
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" name (render_labels s.s_labels)
                   (render_value sum));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" name
                   (render_labels s.s_labels) count))
        group)
    names;
  Buffer.contents b
