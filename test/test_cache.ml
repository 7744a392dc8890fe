(* Tests for the TTL-aware DNS cache and its daemon integration. *)

module Cache = Dns.Cache
module Dnsproxy = Connman.Dnsproxy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let opt_int = Alcotest.(check (option int))

let test_insert_lookup () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:60 ~ipv4:0x01020304;
  opt_int "hit" (Some 0x01020304) (Cache.lookup c ~now:10 "a.example");
  opt_int "miss" None (Cache.lookup c ~now:10 "b.example")

let test_ttl_expiry () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:60 ~ipv4:1;
  opt_int "fresh at 59" (Some 1) (Cache.lookup c ~now:59 "a.example");
  opt_int "expired at 60" None (Cache.lookup c ~now:60 "a.example");
  (* Expired entries are pruned on lookup. *)
  check_int "size after prune" 0 (Cache.size c ~now:60)

let test_zero_ttl_never_cached () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:0 ~ipv4:1;
  opt_int "not cached" None (Cache.lookup c ~now:0 "a.example")

let test_replace_updates () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:60 ~ipv4:1;
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:60 ~ipv4:2;
  opt_int "latest wins" (Some 2) (Cache.lookup c ~now:1 "a.example");
  check_int "single entry" 1 (Cache.size c ~now:1)

(* Regression: re-inserting an existing key is a replacement, not an
   insertion — the seed counted both as insertions, so
   insertions - evictions no longer tracked table growth. *)
let test_replacement_counted_separately () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:60 ~ipv4:1;
  Cache.insert c ~now:0 ~name:"a.example" ~ttl:90 ~ipv4:2;
  Cache.insert c ~now:0 ~name:"b.example" ~ttl:60 ~ipv4:3;
  let s = Cache.stats c in
  check_int "insertions count new names only" 2 s.Cache.insertions;
  check_int "replacements counted apart" 1 s.Cache.replacements;
  check_int "growth = insertions - evictions" 2
    (s.Cache.insertions - s.Cache.evictions);
  check_int "two entries" 2 (Cache.size c ~now:0)

let test_capacity_eviction () =
  let c = Cache.create ~capacity:4 () in
  for i = 1 to 4 do
    (* Distinct expiries: entry 1 is closest to expiry. *)
    Cache.insert c ~now:0 ~name:(Printf.sprintf "h%d" i) ~ttl:(i * 10) ~ipv4:i
  done;
  Cache.insert c ~now:0 ~name:"h5" ~ttl:100 ~ipv4:5;
  check_int "capacity held" 4 (Cache.size c ~now:0);
  opt_int "soonest-expiry evicted" None (Cache.lookup c ~now:0 "h1");
  opt_int "newest present" (Some 5) (Cache.lookup c ~now:0 "h5");
  check_int "eviction counted" 1 (Cache.stats c).Cache.evictions

(* Capacity-boundary eviction order: victims leave in expiry order. *)
let test_eviction_order () =
  let c = Cache.create ~capacity:4 () in
  List.iter
    (fun (name, ttl) -> Cache.insert c ~now:0 ~name ~ttl ~ipv4:1)
    [ ("a", 40); ("b", 10); ("c", 30); ("d", 20) ];
  Cache.insert c ~now:0 ~name:"e" ~ttl:50 ~ipv4:1;
  opt_int "b evicted first" None (Cache.lookup c ~now:0 "b");
  Cache.insert c ~now:0 ~name:"f" ~ttl:60 ~ipv4:1;
  opt_int "d evicted second" None (Cache.lookup c ~now:0 "d");
  Cache.insert c ~now:0 ~name:"g" ~ttl:70 ~ipv4:1;
  opt_int "c evicted third" None (Cache.lookup c ~now:0 "c");
  opt_int "a survives" (Some 1) (Cache.lookup c ~now:0 "a");
  check_int "three evictions" 3 (Cache.stats c).Cache.evictions;
  check_int "capacity held" 4 (Cache.size c ~now:0)

(* Regression: a table full of expired entries must be swept, not
   evicted one-at-a-time — the seed charged capacity for dead entries
   and evicted a victim per insert. *)
let test_expired_swept_before_eviction () =
  let c = Cache.create ~capacity:4 () in
  for i = 1 to 4 do
    Cache.insert c ~now:0 ~name:(Printf.sprintf "dead%d" i) ~ttl:5 ~ipv4:i
  done;
  (* At t=10 every entry is past its TTL: the next insert reclaims all
     four in one sweep and evicts nothing live. *)
  Cache.insert c ~now:10 ~name:"fresh" ~ttl:60 ~ipv4:9;
  let s = Cache.stats c in
  check_int "all dead entries swept" 4 s.Cache.expired_sweeps;
  check_int "no live eviction" 0 s.Cache.evictions;
  check_int "occupancy reflects the sweep" 1 s.Cache.occupancy;
  opt_int "fresh entry present" (Some 9) (Cache.lookup c ~now:10 "fresh")

(* Lazy invalidation: stale heap nodes left by replacements must not
   confuse eviction (nor leak — compaction bounds them). *)
let test_replacement_churn_then_eviction () =
  let c = Cache.create ~capacity:4 () in
  Cache.insert c ~now:0 ~name:"a" ~ttl:100 ~ipv4:1;
  for i = 1 to 50 do
    Cache.insert c ~now:0 ~name:"a" ~ttl:(100 + i) ~ipv4:1
  done;
  List.iter
    (fun (name, ttl) -> Cache.insert c ~now:0 ~name ~ttl ~ipv4:2)
    [ ("b", 200); ("c", 300); ("d", 400) ];
  Cache.insert c ~now:0 ~name:"e" ~ttl:500 ~ipv4:3;
  (* a's live expiry is 150 — the minimum — despite 50 tombstones. *)
  opt_int "a evicted despite churn" None (Cache.lookup c ~now:0 "a");
  opt_int "b survives" (Some 2) (Cache.lookup c ~now:0 "b");
  let s = Cache.stats c in
  check_int "replacements" 50 s.Cache.replacements;
  check_int "one eviction" 1 s.Cache.evictions

let test_negative_cache () =
  let c = Cache.create () in
  Cache.insert_negative c ~now:0 ~name:"nope.example" ~ttl:30;
  check_bool "negative hit while fresh" true
    (Cache.find c ~now:29 "nope.example" = Cache.Negative_hit);
  opt_int "lookup answers None" None (Cache.lookup c ~now:29 "nope.example");
  check_bool "expired at ttl" true
    (Cache.find c ~now:30 "nope.example" = Cache.Miss);
  let s = Cache.stats c in
  check_int "negative hits counted" 2 s.Cache.negative_hits;
  check_int "not counted as positive hits" 0 s.Cache.hits;
  (* a positive insert over a negative entry replaces it *)
  Cache.insert_negative c ~now:40 ~name:"flap.example" ~ttl:30;
  Cache.insert c ~now:41 ~name:"flap.example" ~ttl:30 ~ipv4:7;
  opt_int "positive wins" (Some 7) (Cache.lookup c ~now:42 "flap.example")

let test_stats () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a" ~ttl:10 ~ipv4:1;
  ignore (Cache.lookup c ~now:1 "a");
  ignore (Cache.lookup c ~now:1 "b");
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "insertions" 1 s.Cache.insertions

let test_flush () =
  let c = Cache.create () in
  Cache.insert c ~now:0 ~name:"a" ~ttl:10 ~ipv4:1;
  Cache.flush c;
  check_int "empty" 0 (Cache.size c ~now:0);
  check_int "occupancy zero" 0 (Cache.stats c).Cache.occupancy;
  (* a flushed cache keeps working *)
  Cache.insert c ~now:0 ~name:"b" ~ttl:10 ~ipv4:2;
  opt_int "usable after flush" (Some 2) (Cache.lookup c ~now:1 "b")

(* Regression: the whole capacity is usable before anything live is
   evicted.  A cache split into hash shards evicted as soon as one
   shard's slice filled: a 256-entry cache (16 shards x 16) first
   evicted at insert 166 with 165 names held. *)
let test_full_capacity_before_eviction () =
  let capacity = 256 in
  let c = Cache.create ~capacity () in
  let name i = Printf.sprintf "host-%05d.sim.example" i in
  (* distinct TTLs, the earliest expiry in the middle of the run *)
  let ttl i = 1000 + (((i * 37) + 100) mod capacity) in
  let first_eviction = ref None in
  for i = 0 to capacity - 1 do
    Cache.insert c ~now:0 ~name:(name i) ~ttl:(ttl i) ~ipv4:i;
    if !first_eviction = None && (Cache.stats c).Cache.evictions > 0 then
      first_eviction := Some (i + 1)
  done;
  Alcotest.(check (option int)) "no eviction up to capacity" None !first_eviction;
  check_int "every name held" capacity (Cache.size c ~now:0);
  let victim = ref 0 in
  for i = 1 to capacity - 1 do
    if ttl i < ttl !victim then victim := i
  done;
  Cache.insert c ~now:0 ~name:(name capacity) ~ttl:5000 ~ipv4:capacity;
  check_int "one eviction at insert capacity + 1" 1 (Cache.stats c).Cache.evictions;
  check_int "capacity held" capacity (Cache.size c ~now:0);
  for i = 0 to capacity do
    opt_int (name i)
      (if i = !victim then None else Some i)
      (Cache.lookup c ~now:0 (name i))
  done

(* --- differential check against a naive reference model --- *)

(* The reference mirrors the documented semantics with whole-table
   scans: sweep-then-evict on insert, min (expires, seq) eviction,
   prune-on-expired-lookup. *)
module Ref_model = struct
  type rentry = {
    value : int;
    negative : bool;
    expires : int;
    seq : int;
  }

  type t = {
    capacity : int;
    table : (string, rentry) Hashtbl.t;
    mutable next_seq : int;
    mutable hits : int;
    mutable misses : int;
    mutable negative_hits : int;
    mutable insertions : int;
    mutable replacements : int;
    mutable evictions : int;
    mutable expired_sweeps : int;
  }

  let create ~capacity =
    {
      capacity;
      table = Hashtbl.create 16;
      next_seq = 0;
      hits = 0;
      misses = 0;
      negative_hits = 0;
      insertions = 0;
      replacements = 0;
      evictions = 0;
      expired_sweeps = 0;
    }

  let sweep m ~now =
    let dead =
      Hashtbl.fold
        (fun name e acc -> if e.expires <= now then name :: acc else acc)
        m.table []
    in
    List.iter (Hashtbl.remove m.table) dead;
    m.expired_sweeps <- m.expired_sweeps + List.length dead

  let evict_min m =
    let victim =
      Hashtbl.fold
        (fun name e best ->
          match best with
          | Some (_, b) when (b.expires, b.seq) <= (e.expires, e.seq) -> best
          | _ -> Some (name, e))
        m.table None
    in
    match victim with
    | Some (name, _) ->
        Hashtbl.remove m.table name;
        m.evictions <- m.evictions + 1
    | None -> ()

  let store m ~now ~name ~ttl ~value ~negative =
    if ttl > 0 then begin
      sweep m ~now;
      if Hashtbl.mem m.table name then
        m.replacements <- m.replacements + 1
      else begin
        if Hashtbl.length m.table >= m.capacity then evict_min m;
        m.insertions <- m.insertions + 1
      end;
      let seq = m.next_seq in
      m.next_seq <- seq + 1;
      Hashtbl.replace m.table name { value; negative; expires = now + ttl; seq }
    end

  let find m ~now name =
    match Hashtbl.find_opt m.table name with
    | Some e when e.expires > now ->
        if e.negative then begin
          m.negative_hits <- m.negative_hits + 1;
          Cache.Negative_hit
        end
        else begin
          m.hits <- m.hits + 1;
          Cache.Hit e.value
        end
    | Some _ ->
        Hashtbl.remove m.table name;
        m.misses <- m.misses + 1;
        Cache.Miss
    | None ->
        m.misses <- m.misses + 1;
        Cache.Miss

  let remove m name = Hashtbl.remove m.table name
  let flush m = Hashtbl.reset m.table

  let size m ~now =
    Hashtbl.fold (fun _ e n -> if e.expires > now then n + 1 else n) m.table 0

  let stats m : Cache.stats =
    {
      Cache.hits = m.hits;
      misses = m.misses;
      negative_hits = m.negative_hits;
      insertions = m.insertions;
      replacements = m.replacements;
      evictions = m.evictions;
      expired_sweeps = m.expired_sweeps;
      occupancy = Hashtbl.length m.table;
    }
end

let stats_fields (s : Cache.stats) =
  [
    ("hits", s.Cache.hits);
    ("misses", s.Cache.misses);
    ("negative hits", s.Cache.negative_hits);
    ("insertions", s.Cache.insertions);
    ("replacements", s.Cache.replacements);
    ("evictions", s.Cache.evictions);
    ("sweeps", s.Cache.expired_sweeps);
    ("occupancy", s.Cache.occupancy);
  ]

let test_differential_vs_reference () =
  let capacity = 32 in
  let c = Cache.create ~capacity () in
  let m = Ref_model.create ~capacity in
  let rng = Memsim.Rng.create 0xD1FF in
  let name_of i = Printf.sprintf "n%02d.example" i in
  let now = ref 0 in
  let mismatches = ref 0 in
  for step = 1 to 5_000 do
    if Memsim.Rng.int rng 10 = 0 then now := !now + Memsim.Rng.int rng 4;
    let name = name_of (Memsim.Rng.int rng 48) in
    (match Memsim.Rng.int rng 20 with
    | 0 | 1 ->
        let ttl = Memsim.Rng.int rng 25 in
        (* exercises the ttl=0 rejection too *)
        Cache.insert_negative c ~now:!now ~name ~ttl;
        Ref_model.store m ~now:!now ~name ~ttl ~value:0 ~negative:true
    | 2 ->
        Cache.remove c name;
        Ref_model.remove m name
    | n when n < 10 ->
        let ttl = Memsim.Rng.int rng 25 and v = step in
        Cache.insert c ~now:!now ~name ~ttl ~ipv4:v;
        Ref_model.store m ~now:!now ~name ~ttl ~value:v ~negative:false
    | _ ->
        let a = Cache.find c ~now:!now name in
        let b = Ref_model.find m ~now:!now name in
        if a <> b then incr mismatches);
    if Cache.size c ~now:!now <> Ref_model.size m ~now:!now then
      incr mismatches
  done;
  check_int "no lookup/size divergence over 5k ops" 0 !mismatches;
  List.iter2
    (fun (field, want) (_, got) -> check_int (field ^ " agree") want got)
    (stats_fields (Ref_model.stats m))
    (stats_fields (Cache.stats c))

(* --- model-based property: random op sequences, checked after every op --- *)

type op =
  | Insert of int * int  (* name, ttl *)
  | Insert_negative of int * int
  | Remove of int
  | Find of int
  | Flush
  | Advance of int

let pp_op = function
  | Insert (n, ttl) -> Printf.sprintf "insert n%d ttl %d" n ttl
  | Insert_negative (n, ttl) -> Printf.sprintf "insert_negative n%d ttl %d" n ttl
  | Remove n -> Printf.sprintf "remove n%d" n
  | Find n -> Printf.sprintf "find n%d" n
  | Flush -> "flush"
  | Advance dt -> Printf.sprintf "advance %d" dt

let gen_op =
  QCheck.Gen.(
    let name = int_range 0 59 and ttl = int_range 0 30 in
    frequency
      [
        (8, map2 (fun n t -> Insert (n, t)) name ttl);
        (2, map2 (fun n t -> Insert_negative (n, t)) name ttl);
        (1, map (fun n -> Remove n) name);
        (6, map (fun n -> Find n) name);
        (1, return Flush);
        (2, map (fun dt -> Advance dt) (int_range 1 10));
      ])

let prop_agrees_with_model =
  QCheck.Test.make ~name:"cache agrees with the naive model after every op"
    ~count:300 ~long_factor:20
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map pp_op ops)))
       QCheck.Gen.(pair (int_range 1 40) (list_size (int_range 1 200) gen_op)))
    (fun (capacity, ops) ->
      let c = Cache.create ~capacity () in
      let m = Ref_model.create ~capacity in
      let now = ref 0 in
      let name i = Printf.sprintf "n%02d.example" i in
      List.iteri
        (fun k op ->
          let fail fmt =
            QCheck.Test.fail_reportf ("after op %d (%s): " ^^ fmt) k (pp_op op)
          in
          (match op with
          | Insert (n, ttl) ->
              Cache.insert c ~now:!now ~name:(name n) ~ttl ~ipv4:k;
              Ref_model.store m ~now:!now ~name:(name n) ~ttl ~value:k
                ~negative:false
          | Insert_negative (n, ttl) ->
              Cache.insert_negative c ~now:!now ~name:(name n) ~ttl;
              Ref_model.store m ~now:!now ~name:(name n) ~ttl ~value:0
                ~negative:true
          | Remove n ->
              Cache.remove c (name n);
              Ref_model.remove m (name n)
          | Find n ->
              let got = Cache.find c ~now:!now (name n)
              and want = Ref_model.find m ~now:!now (name n) in
              if got <> want then fail "find disagrees"
          | Flush ->
              Cache.flush c;
              Ref_model.flush m
          | Advance dt -> now := !now + dt);
          let got = Cache.size c ~now:!now and want = Ref_model.size m ~now:!now in
          if got <> want then fail "size %d, model %d" got want;
          List.iter2
            (fun (field, want) (_, got) ->
              if got <> want then fail "%s %d, model %d" field got want)
            (stats_fields (Ref_model.stats m))
            (stats_fields (Cache.stats c)))
        ops;
      true)

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"capacity bound holds under churn" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 100)
            (pair (string_size ~gen:(char_range 'a' 'f') (return 3)) (int_range 1 50))))
    (fun inserts ->
      let c = Cache.create ~capacity:8 () in
      List.iteri
        (fun i (name, ttl) -> Cache.insert c ~now:i ~name ~ttl ~ipv4:i)
        inserts;
      Cache.size c ~now:0 <= 8)

let prop_fresh_entries_always_hit =
  QCheck.Test.make ~name:"a fresh insert always hits before expiry" ~count:200
    QCheck.(make Gen.(pair (int_range 1 1000) (int_range 0 2000)))
    (fun (ttl, dt) ->
      let c = Cache.create () in
      Cache.insert c ~now:100 ~name:"x" ~ttl ~ipv4:42;
      let hit = Cache.lookup c ~now:(100 + dt) "x" in
      if dt < ttl then hit = Some 42 else hit = None)

(* --- daemon integration --- *)

let lookup_name = Dns.Name.of_string "ipv4.connman.net"

let test_daemon_ttl_expiry () =
  let d = Dnsproxy.create Dnsproxy.default_config in
  let query = Dnsproxy.make_query d lookup_name in
  let wire =
    Dns.Packet.encode
      (Dns.Packet.response ~query
         [ Dns.Packet.a_record lookup_name ~ttl:30 ~ipv4:0x7F000001 ])
  in
  (match Dnsproxy.handle_response d wire with
  | Dnsproxy.Cached 1 -> ()
  | other -> Alcotest.failf "parse: %a" Dnsproxy.pp_disposition other);
  check_bool "fresh" true (Dnsproxy.cache_lookup d lookup_name = Some 0x7F000001);
  Dnsproxy.tick d 29;
  check_bool "still fresh at 29s" true
    (Dnsproxy.cache_lookup d lookup_name <> None);
  Dnsproxy.tick d 2;
  check_bool "expired at 31s" true (Dnsproxy.cache_lookup d lookup_name = None);
  let s = Dnsproxy.cache_stats d in
  check_bool "stats flow" true (s.Cache.hits >= 2 && s.Cache.misses >= 1)

let nxdomain_wire query =
  Dns.Packet.encode
    {
      Dns.Packet.header =
        {
          query.Dns.Packet.header with
          Dns.Packet.qr = true;
          Dns.Packet.ra = true;
          Dns.Packet.rcode = Dns.Packet.NXDomain;
        };
      questions = query.Dns.Packet.questions;
      answers = [];
      authorities = [];
      additionals = [];
    }

let test_daemon_negative_caching () =
  let d = Dnsproxy.create Dnsproxy.default_config in
  let absent = Dns.Name.of_string "no-such.connman.net" in
  let q = Dnsproxy.make_query d absent in
  (match Dnsproxy.handle_response d (nxdomain_wire q) with
  | Dnsproxy.Dropped _ -> ()
  | other -> Alcotest.failf "nxdomain: %a" Dnsproxy.pp_disposition other);
  check_bool "negatively cached" true
    (Dnsproxy.cache_find d absent = Cache.Negative_hit);
  check_bool "cache_lookup answers None" true
    (Dnsproxy.cache_lookup d absent = None);
  check_bool "daemon still alive" true (Dnsproxy.alive d);
  Dnsproxy.tick d (Dnsproxy.negative_ttl + 1);
  check_bool "negative entry expires" true
    (Dnsproxy.cache_find d absent = Cache.Miss);
  let s = Dnsproxy.cache_stats d in
  check_bool "negative hit counted" true (s.Cache.negative_hits >= 1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "unit",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "zero ttl" `Quick test_zero_ttl_never_cached;
          Alcotest.test_case "replace" `Quick test_replace_updates;
          Alcotest.test_case "replacement counted separately" `Quick
            test_replacement_counted_separately;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "expired swept before eviction" `Quick
            test_expired_swept_before_eviction;
          Alcotest.test_case "lazy invalidation under churn" `Quick
            test_replacement_churn_then_eviction;
          Alcotest.test_case "negative cache" `Quick test_negative_cache;
          Alcotest.test_case "full capacity before eviction" `Quick
            test_full_capacity_before_eviction;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "flush" `Quick test_flush;
        ] );
      ( "differential",
        [
          Alcotest.test_case "cache agrees with naive model" `Quick
            test_differential_vs_reference;
        ] );
      ( "properties",
        [
          qt prop_agrees_with_model;
          qt prop_capacity_never_exceeded;
          qt prop_fresh_entries_always_hit;
        ] );
      ( "daemon integration",
        [
          Alcotest.test_case "ttl drives expiry" `Quick test_daemon_ttl_expiry;
          Alcotest.test_case "nxdomain negatively cached" `Quick
            test_daemon_negative_caching;
        ] );
    ]
