(* A binary heap keyed on (time, sequence) gives timestamp order with FIFO
   tie-breaking. *)

type event = { time : int; seq : int; action : t -> unit }

and t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable heap : event array;
  mutable size : int;
  rng : Memsim.Rng.t;
}

(* Inert filler for empty heap slots: vacated slots must not keep a
   popped event's [action] closure (and whatever it captures) alive. *)
let sentinel = { time = max_int; seq = max_int; action = (fun _ -> ()) }

let create ?(seed = 1) () =
  {
    clock = 0;
    next_seq = 0;
    heap = Array.make 64 sentinel;
    size = 0;
    rng = Memsim.Rng.create seed;
  }

let now t = t.clock
let rng t = t.rng

(* [a] fires before [b]: time, then FIFO sequence, compared as ints so a
   sift step allocates nothing. *)
let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let schedule t ~delay action =
  let delay = max 0 delay in
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) sentinel in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- { time = t.clock + delay; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size <= 0 then
    invalid_arg "Sim.pop: empty event heap (no events scheduled)";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  t.heap.(t.size) <- sentinel;
  top

let pending t = t.size

let run ?until t =
  let processed = ref 0 in
  let continue () =
    t.size > 0
    && match until with None -> true | Some limit -> t.heap.(0).time <= limit
  in
  while continue () do
    let e = pop t in
    t.clock <- max t.clock e.time;
    e.action t;
    incr processed
  done;
  (* [run ~until] means "simulate up to [until]": even when the heap
     drains early (or the next event lies beyond the horizon), that much
     simulated time has passed.  Leaving [clock] at the last event made a
     subsequent [schedule ~delay] fire in the logical past relative to
     the caller's wall time. *)
  (match until with
  | Some limit -> if t.clock < limit then t.clock <- limit
  | None -> ());
  !processed
