(* In-memory span recorder for the traced runs.

   A span is (name, start, end, parent, op id), kept in growable
   parallel arrays so recording one costs two clock reads and a few
   array stores.  The benchmark opens spans around its own calls into
   each library's public functions; nothing inside the program is
   instrumented.  Self time (a span's duration minus the part its
   children cover) is derived after the run, and the raw spans are
   written out as TSV at the end. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable names : string array;  (* name id -> name *)
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable next_op : int;  (* each top-level span starts a new op *)
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    names = [||];
    cur = -1;
    next_op = 0;
  }

let intern t s =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| s |];
      i
    end
    else if t.names.(i) = s then i
    else find (i + 1)
  in
  find 0

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.op <- ext t.op

let enter t id =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- id;
  t.parent.(i) <- t.cur;
  t.op.(i) <-
    (if t.cur < 0 then begin
       t.next_op <- t.next_op + 1;
       t.next_op - 1
     end
     else t.op.(t.cur));
  t.cur <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.cur <- t.parent.(i)

let span t id f =
  let i = enter t id in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

type total = { count : int; self_ns : int }

let totals t =
  let self = Array.init t.len (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let acc = Array.make (Array.length t.names) { count = 0; self_ns = 0 } in
  for i = 0 to t.len - 1 do
    let a = acc.(t.name.(i)) in
    acc.(t.name.(i)) <- { count = a.count + 1; self_ns = a.self_ns + self.(i) }
  done;
  fun name ->
    match Array.find_index (String.equal name) t.names with
    | Some i -> acc.(i)
    | None -> { count = 0; self_ns = 0 }

(* Mean self time per span of this name, in microseconds (0 if none). *)
let mean_self_us totals name =
  let a = totals name in
  if a.count = 0 then 0.0 else float_of_int a.self_ns /. float_of_int a.count /. 1e3

let write t path =
  let oc = open_out path in
  output_string oc "op\tspan\tname\tparent\tstart_ns\tend_ns\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" t.op.(i) i t.names.(t.name.(i))
      t.parent.(i) t.start.(i) t.stop.(i)
  done;
  close_out oc
