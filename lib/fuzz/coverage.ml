(* AFL-style edge coverage over the retired-instruction stream.

   The map does not hook the interpreters itself: {!observer} is the
   [on_step] observer of [Loader.Process.call], i.e. a
   [Machine.Hook.observe] hook, the same per-pc stream the profiler
   taps.  Going straight onto the step hook rather than through the
   profiler's sink skips the profiler's per-pc count update, which the
   fuzzer never reads, and carries [fold], so the engine may run a
   copy loop's iterations as one bulk step and tell the map once.

   An edge is the (previous pc, pc) pair, hashed into a fixed 64 Ki
   bucket map.  Two layers of state keep the common operations O(1):

   - [mark]/[stamp]: which buckets the {e current} execution has hit,
     without clearing a 64 Ki array per exec (generation-stamping, the
     same trick the memory pages use).  A stamp is one byte, 1 to 255,
     and the marks are cleared once every 255 execs, when it wraps;
   - [map]: which buckets {e any} execution has ever hit — the corpus'
     accumulated coverage.  {!commit} promotes the current exec's buckets
     into it and reports how many were globally new, which is the
     fuzzer's "interesting input" signal. *)

let buckets = 1 lsl 16

type t = {
  map : Bytes.t;  (* ever-hit, one byte per bucket *)
  mark : Bytes.t;  (* stamp of the last exec that hit the bucket *)
  mutable stamp : int;
  mutable prev : int;
  mutable this_exec : int list;  (* buckets first hit this exec *)
  mutable edges : int;  (* distinct buckets ever hit *)
}

let create () =
  {
    map = Bytes.make buckets '\000';
    mark = Bytes.make buckets '\000';
    stamp = 0;
    prev = 0;
    this_exec = [];
    edges = 0;
  }

let begin_exec t =
  if t.stamp = 255 then begin
    Bytes.fill t.mark 0 buckets '\000';
    t.stamp <- 1
  end
  else t.stamp <- t.stamp + 1;
  t.prev <- 0;
  t.this_exec <- []

(* Fibonacci-hash the edge into a bucket.  The multiply decorrelates the
   low bits of [prev] and [pc] (consecutive instructions differ only in
   their low bits), the mask keeps the result in range. *)
let touch t pc =
  let b = ((t.prev * 0x9E3779B1) lxor pc) land (buckets - 1) in
  if Bytes.unsafe_get t.mark b <> Char.unsafe_chr t.stamp then begin
    Bytes.unsafe_set t.mark b (Char.unsafe_chr t.stamp);
    t.this_exec <- b :: t.this_exec
  end;
  t.prev <- pc

(* Two passes mark every edge of the block, the back edge included, and
   leave [prev] at its last pc; a third touches only marked buckets and
   leaves [prev] where it was, so [mark], [this_exec] and [prev] are
   those of [k] passes. *)
let fold t pcs k =
  for _ = 1 to Int.min k 2 do
    Array.iter (touch t) pcs
  done

let observer t = Machine.Hook.observer ~fold:(fold t) (touch t)

let commit t =
  let fresh =
    List.fold_left
      (fun n b ->
        if Bytes.get t.map b = '\000' then begin
          Bytes.set t.map b '\001';
          n + 1
        end
        else n)
      0 t.this_exec
  in
  t.edges <- t.edges + fresh;
  t.this_exec <- [];
  fresh

let edges t = t.edges
