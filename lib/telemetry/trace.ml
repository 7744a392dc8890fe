type arg = I of int | S of string | B of bool

type event = {
  ts : int;
  cat : string;
  track : string;
  name : string;
  dur : int;
  args : (string * arg) list;
}

(* Fixed-size ring: [start] indexes the oldest retained event, the next
   write lands at [(start + len) mod capacity].  Overwriting (rather
   than refusing) keeps the most recent window of a long run, which is
   what a human debugging an exploit delivery wants to see. *)
type t = {
  cap : int;
  ring : event array;
  mutable start : int;
  mutable len : int;
  mutable total : int;  (* events ever emitted *)
  mutable clock : int;  (* shared timeline clock, µs *)
}

let dummy = { ts = 0; cat = ""; track = ""; name = ""; dur = 0; args = [] }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    cap = capacity;
    ring = Array.make capacity dummy;
    start = 0;
    len = 0;
    total = 0;
    clock = 0;
  }

let capacity t = t.cap
let length t = t.len
let emitted t = t.total
let dropped t = t.total - t.len
let now t = t.clock
let set_now t ts = if ts > t.clock then t.clock <- ts

let emit t ?ts ?(dur = 0) ?(args = []) ~cat ~track name =
  let ts = match ts with Some ts -> ts | None -> t.clock in
  let e = { ts; cat; track; name; dur; args } in
  if t.len < t.cap then begin
    t.ring.((t.start + t.len) mod t.cap) <- e;
    t.len <- t.len + 1
  end
  else begin
    t.ring.(t.start) <- e;
    t.start <- (t.start + 1) mod t.cap
  end;
  t.total <- t.total + 1

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.total <- 0;
  t.clock <- 0;
  Array.fill t.ring 0 t.cap dummy

let iter t f =
  for i = 0 to t.len - 1 do
    f t.ring.((t.start + i) mod t.cap)
  done

let events t = List.init t.len (fun i -> t.ring.((t.start + i) mod t.cap))

(* --- serialization ------------------------------------------------------ *)

let arg_json = function
  | I n -> Json.Int n
  | S s -> Json.Str s
  | B b -> Json.Bool b

(* Chrome trace-event format: one process (pid 1), one named thread per
   track, metadata events first.  Tracks get tids in first-appearance
   order over the retained events, so serialization depends only on the
   event sequence. *)
let to_chrome_json t =
  (* An overflowed ring silently lost its head; emit a synthetic marker at
     the truncation point so a consumer can tell a quiet window from a
     dropped one.  It rides on its own "ring" track and precedes the
     retained events both in tid assignment and in the stream. *)
  let marker =
    if dropped t > 0 then
      let ts = if t.len > 0 then t.ring.(t.start).ts else t.clock in
      [
        {
          ts;
          cat = "trace";
          track = "ring";
          name = "dropped_events";
          dur = 0;
          args = [ ("dropped", I (dropped t)); ("emitted", I t.total) ];
        };
      ]
    else []
  in
  let all = marker @ events t in
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun e ->
      if not (Hashtbl.mem tids e.track) then begin
        Hashtbl.add tids e.track (Hashtbl.length tids + 1);
        order := e.track :: !order
      end)
    all;
  let open Json in
  let meta ~tid name arg =
    Obj
      [
        ("name", Str name);
        ("ph", Str "M");
        ("pid", Int 1);
        ("tid", Int tid);
        ("args", Obj [ ("name", Str arg) ]);
      ]
  in
  let event e =
    let phase =
      if e.dur > 0 then [ ("ph", Str "X"); ("ts", Int e.ts); ("dur", Int e.dur) ]
      else [ ("ph", Str "i"); ("s", Str "t"); ("ts", Int e.ts) ]
    in
    Obj
      ([ ("name", Str e.name); ("cat", Str e.cat) ]
      @ phase
      @ [
          ("pid", Int 1);
          ("tid", Int (Hashtbl.find tids e.track));
          ("args", Obj (List.map (fun (k, v) -> (k, arg_json v)) e.args));
        ])
  in
  print
    (Obj
       [
         ( "traceEvents",
           Arr
             ((meta ~tid:0 "process_name" "connman-repro"
              :: List.rev_map
                   (fun track -> meta ~tid:(Hashtbl.find tids track) "thread_name" track)
                   !order)
             @ List.map event all) );
         ("displayTimeUnit", Str "ms");
         ( "otherData",
           Obj [ ("emitted", Int t.total); ("dropped", Int (dropped t)) ] );
       ])

let arg_string = function
  | I n -> string_of_int n
  | S s -> s
  | B b -> string_of_bool b

let pp_arg ppf (k, v) = Format.fprintf ppf "%s=%s" k (arg_string v)

let pp_event ppf e =
  Format.fprintf ppf "[%10d us] %-10s %-18s" e.ts e.track e.name;
  if e.dur > 0 then Format.fprintf ppf " dur=%dus" e.dur;
  List.iter (fun a -> Format.fprintf ppf " %a" pp_arg a) e.args

let pp ppf t =
  iter t (fun e -> Format.fprintf ppf "%a@." pp_event e);
  if dropped t > 0 then
    Format.fprintf ppf "(%d earlier events dropped by ring wrap-around)@."
      (dropped t)
