(* TTL cache: one hashtable plus one min-expiry binary heap over
   (expires, seq), the same sift-up/sift-down shape as Netsim.Sim's event
   queue.  Heap nodes are invalidated lazily: the table holds the truth,
   and a node is live only if the table still maps its name to the same
   (expires, seq).  Stale nodes are discarded when they reach the root,
   and a compaction rebuilds the heap from the table when tombstones
   outnumber live entries. *)

type entry = {
  value : int;  (* ipv4 (host order); 0 for negative entries *)
  negative : bool;
  expires : int;
  seq : int;  (* store sequence number: FIFO tie-break and liveness tag *)
}

type hnode = { hexp : int; hseq : int; hname : string }

let hsentinel = { hexp = max_int; hseq = max_int; hname = "" }

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable heap : hnode array;
  mutable hsize : int;
  mutable next_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable negative_hits : int;
  mutable insertions : int;
  mutable replacements : int;
  mutable evictions : int;
  mutable expired_sweeps : int;
}

type outcome = Hit of int | Negative_hit | Miss

type stats = {
  hits : int;
  misses : int;
  negative_hits : int;
  insertions : int;
  replacements : int;
  evictions : int;
  expired_sweeps : int;
  occupancy : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 16;
    heap = Array.make 16 hsentinel;
    hsize = 0;
    next_seq = 0;
    hits = 0;
    misses = 0;
    negative_hits = 0;
    insertions = 0;
    replacements = 0;
    evictions = 0;
    expired_sweeps = 0;
  }

let capacity t = t.capacity

(* --- min-heap on (hexp, hseq) --- *)

let earlier a b = a.hexp < b.hexp || (a.hexp = b.hexp && a.hseq < b.hseq)

let hswap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      hswap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.hsize && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.hsize && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    hswap t i !smallest;
    sift_down t !smallest
  end

(* A node is live iff the table still maps its name to the same store. *)
let node_live t n =
  match Hashtbl.find_opt t.table n.hname with
  | Some e -> e.expires = n.hexp && e.seq = n.hseq
  | None -> false

let heap_pop t =
  let top = t.heap.(0) in
  t.hsize <- t.hsize - 1;
  if t.hsize > 0 then begin
    t.heap.(0) <- t.heap.(t.hsize);
    sift_down t 0
  end;
  (* vacated slot must not pin the node (and keeps stale scans honest) *)
  t.heap.(t.hsize) <- hsentinel;
  top

(* Rebuild the heap from the table: one node per live entry. *)
let compact t =
  let n = Hashtbl.length t.table in
  let arr = Array.make (max 16 n) hsentinel in
  let i = ref 0 in
  Hashtbl.iter
    (fun name e ->
      arr.(!i) <- { hexp = e.expires; hseq = e.seq; hname = name };
      incr i)
    t.table;
  t.heap <- arr;
  t.hsize <- n;
  for j = (n / 2) - 1 downto 0 do
    sift_down t j
  done

let heap_push t node =
  if t.hsize > (2 * Hashtbl.length t.table) + 8 then compact t;
  if t.hsize = Array.length t.heap then begin
    let bigger = Array.make (2 * t.hsize) hsentinel in
    Array.blit t.heap 0 bigger 0 t.hsize;
    t.heap <- bigger
  end;
  t.heap.(t.hsize) <- node;
  t.hsize <- t.hsize + 1;
  sift_up t (t.hsize - 1)

let rec drop_stale t =
  if t.hsize > 0 && not (node_live t t.heap.(0)) then begin
    ignore (heap_pop t);
    drop_stale t
  end

(* Reclaim every entry past its TTL before anything live is considered
   for eviction: expired entries must never hold capacity. *)
let rec sweep_expired t ~now =
  drop_stale t;
  if t.hsize > 0 && t.heap.(0).hexp <= now then begin
    let top = heap_pop t in
    Hashtbl.remove t.table top.hname;
    t.expired_sweeps <- t.expired_sweeps + 1;
    sweep_expired t ~now
  end

(* Evict the live entry with the earliest expiry (FIFO among equals).
   Only called after a sweep, so the root's live node is the victim. *)
let evict_one t =
  drop_stale t;
  if t.hsize > 0 then begin
    let top = heap_pop t in
    Hashtbl.remove t.table top.hname;
    t.evictions <- t.evictions + 1
  end

let store t ~now ~name ~ttl ~value ~negative =
  if ttl > 0 then begin
    sweep_expired t ~now;
    let expires = now + ttl in
    let add () =
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Hashtbl.replace t.table name { value; negative; expires; seq };
      heap_push t { hexp = expires; hseq = seq; hname = name }
    in
    if Hashtbl.mem t.table name then begin
      t.replacements <- t.replacements + 1;
      add ()
    end
    else begin
      if Hashtbl.length t.table >= t.capacity then evict_one t;
      t.insertions <- t.insertions + 1;
      add ()
    end
  end

let insert t ~now ~name ~ttl ~ipv4 =
  store t ~now ~name ~ttl ~value:ipv4 ~negative:false

let insert_negative t ~now ~name ~ttl =
  store t ~now ~name ~ttl ~value:0 ~negative:true

let find t ~now name =
  match Hashtbl.find_opt t.table name with
  | Some e when e.expires > now ->
      if e.negative then begin
        t.negative_hits <- t.negative_hits + 1;
        Negative_hit
      end
      else begin
        t.hits <- t.hits + 1;
        Hit e.value
      end
  | Some _ ->
      (* expired: prune the table now; the heap node goes stale *)
      Hashtbl.remove t.table name;
      t.misses <- t.misses + 1;
      Miss
  | None ->
      t.misses <- t.misses + 1;
      Miss

let lookup t ~now name =
  match find t ~now name with Hit ip -> Some ip | Negative_hit | Miss -> None

let remove t name = Hashtbl.remove t.table name

let size t ~now =
  Hashtbl.fold (fun _ e n -> if e.expires > now then n + 1 else n) t.table 0

let flush t =
  Hashtbl.reset t.table;
  Array.fill t.heap 0 t.hsize hsentinel;
  t.hsize <- 0

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    negative_hits = t.negative_hits;
    insertions = t.insertions;
    replacements = t.replacements;
    evictions = t.evictions;
    expired_sweeps = t.expired_sweeps;
    occupancy = Hashtbl.length t.table;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "hits %d  misses %d  neg-hits %d  ins %d  repl %d  evict %d  swept %d  \
     occ %d"
    s.hits s.misses s.negative_hits s.insertions s.replacements s.evictions
    s.expired_sweeps s.occupancy

let register_metrics t reg ~prefix =
  let labels = [ ("cache", prefix) ] in
  let c name help f =
    Telemetry.Metrics.probe reg ~help ~labels ~kind:`Counter name (fun () ->
        float_of_int (f (stats t)))
  in
  c "dns_cache_hits_total" "positive cache hits" (fun s -> s.hits);
  c "dns_cache_misses_total" "cache misses" (fun s -> s.misses);
  c "dns_cache_negative_hits_total" "negative (NXDOMAIN) cache hits"
    (fun s -> s.negative_hits);
  c "dns_cache_insertions_total" "entries stored under a new name" (fun s ->
      s.insertions);
  c "dns_cache_replacements_total" "entries stored over an existing name"
    (fun s -> s.replacements);
  c "dns_cache_evictions_total" "live entries evicted to make room" (fun s ->
      s.evictions);
  c "dns_cache_expired_sweeps_total" "expired entries reclaimed by the sweep"
    (fun s -> s.expired_sweeps);
  Telemetry.Metrics.probe reg ~help:"entries currently in the table" ~labels
    ~kind:`Gauge "dns_cache_occupancy" (fun () ->
      float_of_int (stats t).occupancy);
  Telemetry.Metrics.probe reg ~help:"configured entry capacity" ~labels
    ~kind:`Gauge "dns_cache_capacity" (fun () -> float_of_int (capacity t))
