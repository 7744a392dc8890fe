(* Unit and property tests for the paged memory simulator. *)

module Mem = Memsim.Memory
module Word = Memsim.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh () = Mem.create ()

let expect_fault kind f =
  match f () with
  | _ -> Alcotest.fail "expected a memory fault"
  | exception Mem.Fault fault ->
      Alcotest.(check bool)
        "fault kind"
        true
        (fault.Mem.kind = kind)

(* --- Word arithmetic --- *)

let test_word_wrap () =
  check_int "add wraps" 0 (Word.add 0xFFFF_FFFF 1);
  check_int "sub wraps" 0xFFFF_FFFF (Word.sub 0 1);
  check_int "neg" 0xFFFF_FFFF (Word.neg 1);
  check_int "signed round trip" (-1) (Word.to_signed 0xFFFF_FFFF);
  check_int "of_signed" 0xFFFF_FFFE (Word.of_signed (-2));
  check_int "sign8" 0xFFFF_FF80 (Word.sign8 0x80);
  check_int "sign8 positive" 0x7F (Word.sign8 0x7F);
  check_int "sign16" 0xFFFF_8000 (Word.sign16 0x8000);
  check_int "ror" 0x8000_0000 (Word.ror 1 1);
  check_int "ror 8" 0x1200_0000 (Word.ror 0x12 8);
  check_bool "bit 31" true (Word.bit 0x8000_0000 31)

let prop_word_signed_roundtrip =
  QCheck.Test.make ~name:"word signed round-trip" ~count:500
    QCheck.(int_range (-0x4000_0000) 0x3FFF_FFFF)
    (fun x -> Word.to_signed (Word.of_signed x) = x)

(* --- Mapping --- *)

let test_map_read_write () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"data";
  Mem.write_u32 m 0x1000 0xDEADBEEF;
  check_int "u32 round trip" 0xDEADBEEF (Mem.read_u32 m 0x1000);
  Mem.write_u16 m 0x1100 0xBEEF;
  check_int "u16 round trip" 0xBEEF (Mem.read_u16 m 0x1100);
  check_int "u8 of u16" 0xEF (Mem.read_u8 m 0x1100);
  check_int "zero-filled" 0 (Mem.read_u32 m 0x1ffc)

let test_little_endian () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_u32 m 0x1000 0x11223344;
  check_int "byte 0 is LSB" 0x44 (Mem.read_u8 m 0x1000);
  check_int "byte 3 is MSB" 0x11 (Mem.read_u8 m 0x1003)

let test_cross_page () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
  (* A u32 straddling the page boundary at 0x2000. *)
  Mem.write_u32 m 0x1ffe 0xCAFEBABE;
  check_int "cross-page u32" 0xCAFEBABE (Mem.read_u32 m 0x1ffe)

let test_unmapped_fault () =
  let m = fresh () in
  expect_fault Mem.Unmapped (fun () -> Mem.read_u8 m 0x5000)

let test_overlap_rejected () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Memory.map: b overlaps existing mapping at page 0x00001000")
    (fun () -> Mem.map m ~base:0x1800 ~size:0x100 ~perm:Mem.rw ~name:"b")

let test_unmap () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  Mem.unmap m ~base:0x1000;
  check_bool "gone" false (Mem.is_mapped m 0x1000);
  (* Remapping the freed range must succeed. *)
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a2";
  check_bool "back" true (Mem.is_mapped m 0x1000)

(* --- Permissions: the W⊕X substrate --- *)

let test_write_protect () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rx ~name:"text";
  expect_fault Mem.Perm_write (fun () -> Mem.write_u8 m 0x1000 1)

let test_nx_fetch () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"stack";
  check_int "plain read ok" 0 (Mem.read_u8 m 0x1000);
  expect_fault Mem.Perm_exec (fun () -> Mem.fetch_u8 m 0x1000)

let test_executable_stack_fetch () =
  (* With W⊕X disabled the stack is rwx and fetch succeeds — the
     no-protections configuration of the paper's §III-A. *)
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"stack";
  Mem.write_u8 m 0x1000 0x90;
  check_int "fetch from rwx" 0x90 (Mem.fetch_u8 m 0x1000)

let test_mprotect () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"stack";
  Mem.set_perm m ~base:0x1000 Mem.rw;
  expect_fault Mem.Perm_exec (fun () -> Mem.fetch_u8 m 0x1000);
  check_bool "region perm updated" false
    (Mem.find_region m "stack").Mem.perm.Mem.execute

let test_region_queries () =
  let m = fresh () in
  Mem.map m ~base:0x8048000 ~size:0x1000 ~perm:Mem.rx ~name:"text";
  Mem.map m ~base:0x804A000 ~size:0x1000 ~perm:Mem.rw ~name:"bss";
  (match Mem.region_at m 0x8048123 with
  | Some r0 -> check_string "region name" "text" r0.Mem.name
  | None -> Alcotest.fail "expected region");
  check_bool "miss" true (Mem.region_at m 0x9000000 = None);
  check_int "regions sorted" 2 (List.length (Mem.regions m));
  check_int "find by name" 0x804A000 (Mem.find_region m "bss").Mem.base

let test_bytes_and_cstring () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "/bin/sh\x00tail";
  check_string "cstring stops at NUL" "/bin/sh" (Mem.read_cstring m 0x1000);
  check_string "read_bytes exact" "/bin/sh\x00" (Mem.read_bytes m 0x1000 8)

let test_peek_poke_bypass_perms () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.r ~name:"ro";
  Mem.poke_bytes m 0x1000 "hi";
  check_string "poke wrote" "hi" (Mem.peek_bytes m 0x1000 2)

let test_hexdump () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "ABC";
  let dump = Mem.hexdump m ~base:0x1000 ~len:16 in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "hex bytes present" true (contains dump "41 42 43");
  check_bool "ascii present" true (contains dump "ABC")

let prop_byte_roundtrip =
  QCheck.Test.make ~name:"byte round-trip at random offsets" ~count:500
    QCheck.(pair (int_range 0 0xFFF) (int_range 0 255))
    (fun (off, v) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x1000 ~perm:Mem.rw ~name:"d";
      Mem.write_u8 m (0x4000 + off) v;
      Mem.read_u8 m (0x4000 + off) = v)

let prop_u32_roundtrip =
  QCheck.Test.make ~name:"u32 round-trip incl. page straddles" ~count:500
    QCheck.(pair (int_range 0 0x1FFC) (int_range 0 0x3FFF_FFFF))
    (fun (off, v) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      Mem.write_u32 m (0x4000 + off) v;
      Mem.read_u32 m (0x4000 + off) = v)

let prop_write_bytes_read_bytes =
  QCheck.Test.make ~name:"write_bytes/read_bytes identity" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 600))
    (fun s ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      Mem.write_bytes m 0x4100 s;
      Mem.read_bytes m 0x4100 (String.length s) = s)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng determinism per seed" ~count:100 QCheck.small_nat
    (fun seed ->
      let a = Memsim.Rng.create seed and b = Memsim.Rng.create seed in
      List.for_all
        (fun _ -> Memsim.Rng.next64 a = Memsim.Rng.next64 b)
        [ 1; 2; 3; 4; 5 ])

let prop_rng_bound =
  QCheck.Test.make ~name:"rng int within bound" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Memsim.Rng.create seed in
      let v = Memsim.Rng.int g bound in
      v >= 0 && v < bound)

let prop_rng_skip =
  QCheck.Test.make ~name:"rng skip n = n draws" ~count:300
    QCheck.(pair int (int_range 0 300))
    (fun (seed, n) ->
      let a = Memsim.Rng.create seed and b = Memsim.Rng.create seed in
      for _ = 1 to n do
        ignore (Memsim.Rng.bool a)
      done;
      Memsim.Rng.skip b n;
      List.for_all (fun _ -> Memsim.Rng.next64 a = Memsim.Rng.next64 b) [ 1; 2; 3 ])

let test_rng_shuffle_permutes () =
  let g = Memsim.Rng.create 42 in
  let a = Array.init 100 Fun.id in
  Memsim.Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

(* --- Atomicity of multi-byte writes (torn-write regressions) --- *)

let expect_fault_at kind addr f =
  match f () with
  | _ -> Alcotest.fail "expected a memory fault"
  | exception Mem.Fault fault ->
      check_bool "fault kind" true (fault.Mem.kind = kind);
      check_int "fault at lowest offending address" addr fault.Mem.addr

(* A u32 straddling into an unmapped page must fault without committing
   its first bytes (the regression: the old byte-at-a-time loop left a
   torn prefix behind). *)
let test_torn_write_u32_unmapped () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.write_u8 m 0x1FFE 0xAB;
  Mem.write_u8 m 0x1FFF 0xCD;
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.write_u32 m 0x1FFE 0x1122_3344);
  check_int "prefix byte 0 untouched" 0xAB (Mem.read_u8 m 0x1FFE);
  check_int "prefix byte 1 untouched" 0xCD (Mem.read_u8 m 0x1FFF)

let test_torn_write_u32_protected () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.map m ~base:0x2000 ~size:0x1000 ~perm:Mem.r ~name:"ro";
  Mem.write_u8 m 0x1FFF 0x5A;
  expect_fault_at Mem.Perm_write 0x2000 (fun () ->
      Mem.write_u32 m 0x1FFF 0xDEAD_BEEF);
  check_int "prefix byte untouched" 0x5A (Mem.read_u8 m 0x1FFF)

let test_torn_write_bytes () =
  let m = fresh () in
  (* Three-page span with the middle page missing: nothing at all may
     land, including the bytes destined for the (valid) first page. *)
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"lo";
  Mem.map m ~base:0x3000 ~size:0x1000 ~perm:Mem.rw ~name:"hi";
  let payload = String.make 0x2100 'X' in
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.write_bytes m 0x1F00 payload);
  check_int "first page untouched" 0 (Mem.read_u8 m 0x1F00);
  check_int "last page untouched" 0 (Mem.read_u8 m 0x3000);
  (* Same span for the loader's permission-blind poke. *)
  expect_fault_at Mem.Unmapped 0x2000 (fun () ->
      Mem.poke_bytes m 0x1F00 payload);
  check_int "poke left no prefix" 0 (Mem.read_u8 m 0x1F00)

(* --- Descriptive errors instead of bare Not_found --- *)

let contains_sub haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let expect_invalid_arg needle f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "message %S mentions %S" msg needle)
        true (contains_sub msg needle)

let test_descriptive_errors () =
  let m = fresh () in
  Mem.map m ~base:0x4000 ~size:0x1000 ~perm:Mem.rw ~name:"heap";
  expect_invalid_arg "unmap" (fun () -> Mem.unmap m ~base:0x9000);
  expect_invalid_arg "0x00009000" (fun () -> Mem.unmap m ~base:0x9000);
  expect_invalid_arg "set_perm" (fun () -> Mem.set_perm m ~base:0x9000 Mem.r);
  expect_invalid_arg "no region named" (fun () ->
      ignore (Mem.find_region m "nope"));
  expect_invalid_arg "nope" (fun () -> ignore (Mem.find_region m "nope"))

(* --- Write generations and generation cells --- *)

let test_page_generations () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"a";
  check_int "unmapped is -1" (-1) (Mem.page_gen m 0x9000);
  let g0 = Mem.page_gen m 0x1000 in
  let g_other = Mem.page_gen m 0x2000 in
  check_bool "live generations are positive" true (g0 > 0);
  Mem.write_u8 m 0x1004 7;
  let g1 = Mem.page_gen m 0x1000 in
  check_bool "store bumps" true (g1 <> g0);
  check_int "other page unaffected" g_other (Mem.page_gen m 0x2000);
  Mem.set_perm m ~base:0x1000 Mem.r;
  check_bool "mprotect bumps" true (Mem.page_gen m 0x1000 <> g1);
  (* Generations are never reused across a page's lifetimes. *)
  let before = Mem.page_gen m 0x1000 in
  Mem.unmap m ~base:0x1000;
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"a2";
  check_bool "remap gets a fresh generation" true
    (Mem.page_gen m 0x1000 <> before)

let test_gen_ref_cells () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rw ~name:"a";
  let cell = Mem.gen_ref m 0x1234 in
  check_int "cell tracks page_gen" (Mem.page_gen m 0x1000) !cell;
  Mem.write_u8 m 0x1000 1;
  check_int "cell sees the bump directly" (Mem.page_gen m 0x1000) !cell;
  check_bool "same page, same cell" true (cell == Mem.gen_ref m 0x1FFF);
  let snapshot = !cell in
  Mem.unmap m ~base:0x1000;
  check_bool "unmap retires the cell's value" true (!cell <> snapshot);
  check_int "an unmapped address reads generation -1" (-1)
    !(Mem.gen_ref m 0x1000)

(* --- Icache: hits, misses, and every invalidation source --- *)

let icache_view m = Memsim.Icache.view (Memsim.Icache.table ~dummy:0) m

let icache_fixture () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  let c = icache_view m in
  let calls = ref 0 in
  let decode _mem addr =
    incr calls;
    (addr * 10, 4)
  in
  (m, c, calls, decode)

let test_icache_hit_and_miss () =
  let m, _, calls, decode = icache_fixture () in
  let table = Memsim.Icache.table ~dummy:0 in
  let c = Memsim.Icache.view table m in
  let e = Memsim.Icache.lookup c 0x1008 ~decode in
  check_int "decoded value" (0x1008 * 10) e.Memsim.Icache.v;
  check_int "decoded length" 4 e.Memsim.Icache.len;
  check_int "one decode" 1 !calls;
  let e2 = Memsim.Icache.lookup c 0x1008 ~decode in
  check_int "hit returns same value" e.Memsim.Icache.v e2.Memsim.Icache.v;
  check_int "no second decode" 1 !calls;
  check_bool "hit counted" true (Memsim.Icache.hits table = 1);
  check_bool "miss counted" true (Memsim.Icache.misses table = 1);
  (* A different address on the same page is its own slot. *)
  ignore (Memsim.Icache.lookup c 0x100C ~decode);
  check_int "separate slot decodes" 2 !calls

let test_icache_write_invalidates () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  Mem.write_u8 m 0x1FFF 0x90;
  (* Any store to the page stales every entry on it. *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "re-decoded after store" 2 !calls;
  (* A store to a different page does not. *)
  Mem.write_u8 m 0x2000 0x90;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "unrelated store is free" 2 !calls

let test_icache_perm_and_unmap_invalidate () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  Mem.set_perm m ~base:0x1000 Mem.rx;
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  check_int "mprotect forces re-decode" 2 !calls;
  Mem.unmap m ~base:0x1000;
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text2";
  ignore (Memsim.Icache.lookup c 0x1000 ~decode);
  check_int "unmap/remap forces re-decode" 3 !calls

let test_icache_straddling_entry () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  let c = icache_view m in
  let calls = ref 0 in
  let decode _ addr =
    incr calls;
    (addr, 6)
  in
  (* 6 bytes starting 2 before the page boundary: the entry depends on
     both pages' generations. *)
  let e = Memsim.Icache.lookup c 0x1FFE ~decode in
  check_int "straddling entry keeps its full length" 6 e.Memsim.Icache.len;
  ignore (Memsim.Icache.lookup c 0x1FFE ~decode);
  check_int "hit while both pages clean" 1 !calls;
  (* Touching the second page alone must invalidate. *)
  Mem.write_u8 m 0x2800 1;
  ignore (Memsim.Icache.lookup c 0x1FFE ~decode);
  check_int "second-page store invalidates" 2 !calls;
  (* And so must losing execute on the second page alone (it is its own
     region here). *)
  let m2 = fresh () in
  Mem.map m2 ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"lo";
  Mem.map m2 ~base:0x2000 ~size:0x1000 ~perm:Mem.rwx ~name:"hi";
  let c2 = Memsim.Icache.view (Memsim.Icache.table ~dummy:"") m2 in
  let fetch_decode mem addr =
    (String.init 6 (fun i -> Char.chr (Mem.fetch_u8 mem (addr + i))), 6)
  in
  ignore (Memsim.Icache.lookup c2 0x1FFE ~decode:fetch_decode);
  Mem.set_perm m2 ~base:0x2000 Mem.rw;
  expect_fault Mem.Perm_exec (fun () ->
      Memsim.Icache.lookup c2 0x1FFE ~decode:fetch_decode);
  (* A same-page entry depends on its own page only: the next page's
     stores leave it hot. *)
  ignore (Memsim.Icache.lookup c 0x1100 ~decode);
  let before = !calls in
  Mem.write_u8 m 0x2800 2;
  ignore (Memsim.Icache.lookup c 0x1100 ~decode);
  check_int "next-page store leaves a same-page entry hot" before !calls

(* --- Copy-on-write snapshots --- *)

let test_snapshot_restore_bytes () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x3000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "original";
  Mem.write_u32 m 0x2FFC 0xCAFE;
  let snap = Mem.snapshot m in
  check_int "snapshot pins the pages" 3 (Mem.snapshot_pages snap);
  Mem.write_bytes m 0x1000 "clobber!";
  Mem.write_u32 m 0x2FFC 0xDEAD;
  Mem.write_u8 m 0x2000 0x55;
  Mem.restore m snap;
  check_string "first page restored" "original" (Mem.read_bytes m 0x1000 8);
  check_int "last page restored" 0xCAFE (Mem.read_u32 m 0x2FFC);
  check_int "middle page restored to zero" 0 (Mem.read_u8 m 0x2000);
  (* The snapshot stays valid: dirty and restore again. *)
  Mem.write_bytes m 0x1000 "again!!!";
  Mem.restore m snap;
  check_string "second restore identical" "original" (Mem.read_bytes m 0x1000 8)

let test_snapshot_gen_contract () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  Mem.write_u8 m 0x1000 0x90;
  let snap = Mem.snapshot m in
  let g_text = Mem.page_gen m 0x1000 in
  let g_data = Mem.page_gen m 0x2000 in
  Mem.write_u8 m 0x2000 1;
  let g_dirty = Mem.page_gen m 0x2000 in
  check_bool "store bumps even when frozen" true (g_dirty <> g_data);
  Mem.restore m snap;
  (* Untouched pages keep their generation (cached decodes stay hot);
     dirtied pages come back under a *fresh* one (caches must refill) —
     the counter never rewinds. *)
  check_int "untouched page keeps its generation" g_text (Mem.page_gen m 0x1000);
  let g_back = Mem.page_gen m 0x2000 in
  check_bool "dirty page gets a fresh generation" true
    (g_back <> g_data && g_back <> g_dirty);
  check_int "bytes came back" 0 (Mem.read_u8 m 0x2000)

let test_snapshot_region_table () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rx ~name:"a";
  let snap = Mem.snapshot m in
  Mem.set_perm m ~base:0x1000 Mem.rw;
  Mem.map m ~base:0x5000 ~size:0x1000 ~perm:Mem.rw ~name:"b";
  Mem.write_u8 m 0x5000 7;
  Mem.restore m snap;
  check_int "one region again" 1 (List.length (Mem.regions m));
  check_bool "mapped-after-snapshot region is gone" false (Mem.is_mapped m 0x5000);
  expect_fault Mem.Unmapped (fun () -> Mem.read_u8 m 0x5000);
  check_bool "permission change rolled back" true
    ((Mem.find_region m "a").Mem.perm = Mem.rx);
  expect_fault Mem.Perm_write (fun () -> Mem.write_u8 m 0x1000 1);
  (* And a region unmapped after the snapshot comes back. *)
  let snap2 = Mem.snapshot m in
  Mem.unmap m ~base:0x1000;
  Mem.restore m snap2;
  check_bool "unmapped region restored" true (Mem.is_mapped m 0x1000)

let test_fork_independence () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
  Mem.write_u8 m 0x1000 0xAB;
  let snap = Mem.snapshot m in
  let f1 = Mem.fork snap in
  let f2 = Mem.fork snap in
  check_int "fork sees snapshot bytes" 0xAB (Mem.read_u8 f1 0x1000);
  check_int "fork inherits regions" 1 (List.length (Mem.regions f1));
  Mem.write_u8 f1 0x1000 0xCD;
  Mem.write_u8 m 0x1004 0x77;
  check_int "parent unaffected by fork write" 0xAB (Mem.read_u8 m 0x1000);
  check_int "fork unaffected by parent write" 0 (Mem.read_u8 f1 0x1004);
  check_int "sibling fork unaffected by both" 0xAB (Mem.read_u8 f2 0x1000);
  check_int "sibling fork clean at 0x1004" 0 (Mem.read_u8 f2 0x1004);
  (* The parent's snapshot still restores after forks diverged. *)
  Mem.restore m snap;
  check_int "parent restore exact" 0xAB (Mem.read_u8 m 0x1000);
  check_int "parent restore clears own write" 0 (Mem.read_u8 m 0x1004)

let test_snapshot_icache_coherent () =
  let m, c, calls, decode = icache_fixture () in
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  ignore (Memsim.Icache.lookup c 0x2008 ~decode);
  check_int "two fills" 2 !calls;
  let snap = Mem.snapshot m in
  (* A cached decode survives snapshotting (freeze is not a write). *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "snapshot itself invalidates nothing" 2 !calls;
  Mem.write_u8 m 0x1008 0x90;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "post-snapshot store invalidates" 3 !calls;
  Mem.restore m snap;
  (* The restored page carries a fresh generation: the entry filled from
     the in-between bytes must not revalidate. *)
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "restore forces re-decode of dirtied page" 4 !calls;
  ignore (Memsim.Icache.lookup c 0x1008 ~decode);
  check_int "then caches again" 4 !calls;
  (* The page never written between snapshot and restore stays hot. *)
  ignore (Memsim.Icache.lookup c 0x2008 ~decode);
  check_int "untouched page's entry survives restore" 4 !calls

(* --- Dirty-page restore and recycled buffers --- *)

let four_pages () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x4000 ~perm:Mem.rw ~name:"d";
  Mem.write_bytes m 0x1000 "template";
  m

let contents m = Mem.peek_bytes m 0x1000 0x4000

(* Words allocated straight into the major heap: a page copy (513 words
   with its header) is too big for the minor heap. *)
let major_direct_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let test_restore_recycles () =
  let m = four_pages () in
  let snap = Mem.snapshot m in
  let expected = contents m in
  let cycle i =
    Mem.restore m snap;
    Mem.write_bytes m 0x1010 "payload";
    Mem.write_u32 m 0x3FFC i
  in
  (* Warm-up: its restore scans and arms, and its stores copy; from then
     on each restore hands the two displaced buffers to the next
     stores. *)
  cycle 0;
  let before = major_direct_words () in
  for i = 1 to 1000 do
    cycle i
  done;
  let words = major_direct_words () -. before in
  check_bool
    (Printf.sprintf "1000 cycles: %.0f major words, under one page copy" words)
    true (words < 513.);
  Mem.restore m snap;
  check_string "and the restore is exact" expected (contents m)

(* A mapping allocates no page buffers: its pages share one zero buffer
   until their first store, so a store through any path lands in its own
   page only, in its own memory only, and a restore or a fork of a
   snapshot taken before the store reads zeros again. *)
let test_map_shares_zero_page () =
  let pages = 64 in
  let before = major_direct_words () in
  let m = fresh () in
  Mem.map m ~base:0x10000 ~size:(pages * Mem.page_size) ~perm:Mem.rwx ~name:"z";
  let words = major_direct_words () -. before in
  check_bool
    (Printf.sprintf "mapping %d pages: %.0f major words, under one page" pages words)
    true (words < 513.);
  let other = fresh () in
  Mem.map other ~base:0x10000 ~size:(pages * Mem.page_size) ~perm:Mem.rw ~name:"z";
  let snap = Mem.snapshot m in
  let page i = 0x10000 + (i * Mem.page_size) in
  Mem.write_u8 m (page 0 + 1) 0x11;
  Mem.write_u32 m (page 1 + 8) 0x22222222;
  Mem.write_bytes m (page 2 + 16) "store";
  Mem.poke_bytes m (page 3 + 32) "poke";
  check_int "copy_forward returns the last byte" 0 (Mem.copy_forward m ~src:(page 5) ~dst:(page 4) 4);
  Mem.write_u8 m (page 4) 0x44;
  let fork = Mem.fork snap in
  Mem.write_u8 fork (page 6) 0x66;
  let zeros = String.make Mem.page_size '\000' in
  let written = [ 0; 1; 2; 3; 4 ] in
  for i = 0 to pages - 1 do
    let what = Printf.sprintf "page %d" i in
    if not (List.mem i written) then
      check_string (what ^ " of the written memory") zeros (Mem.peek_bytes m (page i) Mem.page_size);
    check_string (what ^ " of another memory") zeros (Mem.peek_bytes other (page i) Mem.page_size);
    if i <> 6 then
      check_string (what ^ " of a fork") zeros (Mem.peek_bytes fork (page i) Mem.page_size)
  done;
  check_int "write_u8" 0x11 (Mem.read_u8 m (page 0 + 1));
  check_int "write_u32" 0x22222222 (Mem.read_u32 m (page 1 + 8));
  check_string "write_bytes" "store" (Mem.read_bytes m (page 2 + 16) 5);
  check_string "poke_bytes" "poke" (Mem.read_bytes m (page 3 + 32) 4);
  check_int "copy_forward" 0x44 (Mem.read_u8 m (page 4));
  check_int "fork store" 0x66 (Mem.read_u8 fork (page 6));
  Mem.restore m snap;
  List.iter
    (fun i ->
      check_string (Printf.sprintf "page %d restored" i) zeros
        (Mem.peek_bytes m (page i) Mem.page_size))
    written

(* The [dirty] argument of the restore's trace event. *)
let traced_restore m snap =
  let tr = Telemetry.Trace.create () in
  Mem.set_trace m (Some tr);
  Mem.restore m snap;
  Mem.set_trace m None;
  match
    List.find_map
      (fun e ->
        if e.Telemetry.Trace.name = "restore" then List.assoc_opt "dirty" e.args else None)
      (Telemetry.Trace.events tr)
  with
  | Some (Telemetry.Trace.I n) -> n
  | _ -> Alcotest.fail "no restore event with a dirty count"

let test_restore_dirty_count () =
  let m = four_pages () in
  let snap = Mem.snapshot m in
  check_int "nothing written since the snapshot" 0 (traced_restore m snap);
  (* Three distinct pages: the first twice, the next two by one
     straddling store. *)
  Mem.write_u8 m 0x1000 1;
  Mem.write_u32 m 0x1FFC 2;
  Mem.write_bytes m 0x2FFE "abcd";
  check_int "repeat restore: the pages written" 3 (traced_restore m snap);
  check_int "then none" 0 (traced_restore m snap);
  (* A snapshot in between re-freezes a written page; the next store to
     it is still one dirty page. *)
  Mem.write_u8 m 0x4000 1;
  ignore (Mem.snapshot m);
  Mem.write_u8 m 0x4001 2;
  Mem.write_u8 m 0x2000 3;
  check_int "a snapshot in between" 2 (traced_restore m snap)

let test_restore_exact_across_snapshots () =
  let m = four_pages () in
  let s1 = Mem.snapshot m in
  let b1 = contents m in
  Mem.write_bytes m 0x2000 "second";
  let s2 = Mem.snapshot m in
  let b2 = contents m in
  let scribble m =
    Mem.write_bytes m 0x1000 "junk";
    Mem.write_u32 m 0x3FFC 0xFFFFFFFF;
    Mem.write_u8 m 0x4800 9
  in
  Mem.restore m s1;
  scribble m;
  Mem.restore m s2;
  check_string "last restore was to another snapshot" b2 (contents m);
  scribble m;
  Mem.restore m s2;
  check_string "repeat restore" b2 (contents m);
  Mem.restore m s1;
  check_string "and back to the older one" b1 (contents m);
  let f = Mem.fork s2 in
  scribble f;
  Mem.restore f s2;
  check_string "a fork restored to its snapshot" b2 (contents f);
  scribble f;
  Mem.restore f s2;
  check_string "a fork's repeat restore" b2 (contents f);
  Mem.restore f s1;
  check_string "a fork restored to an older snapshot" b1 (contents f);
  check_string "the parent is untouched" b1 (contents m);
  check_string "a fresh fork sees the snapshot" b2 (contents (Mem.fork s2))

(* One table, viewed through a template and two forks of its snapshot:
   the forks hit the template's entries, and a fork that writes its own
   copy of the page misses without disturbing the others. *)
let test_icache_fork_shared () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x1000 ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes m 0x1000 "\x01\x02\x03\x04";
  let table = Memsim.Icache.table ~dummy:"" in
  let calls = ref 0 in
  let decode mem addr =
    incr calls;
    (Mem.read_bytes mem addr 4, 4)
  in
  let lookup mem addr =
    (Memsim.Icache.lookup (Memsim.Icache.view table mem) addr ~decode)
      .Memsim.Icache.v
  in
  ignore (lookup m 0x1000);
  let snap = Mem.snapshot m in
  let f1 = Mem.fork snap and f2 = Mem.fork snap in
  check_string "fork served the template's entry" "\x01\x02\x03\x04"
    (lookup f1 0x1000);
  check_int "without decoding" 1 !calls;
  Mem.write_u8 f1 0x1002 0xFF;
  check_string "writer sees its own bytes" "\x01\x02\xff\x04" (lookup f1 0x1000);
  check_int "writer re-decoded" 2 !calls;
  check_string "sibling still sees the shared bytes" "\x01\x02\x03\x04"
    (lookup f2 0x1000);
  check_string "template too" "\x01\x02\x03\x04" (lookup m 0x1000);
  (* The slot now holds the sibling's refill; the writer must not be
     served it. *)
  check_string "writer again" "\x01\x02\xff\x04" (lookup f1 0x1000)

(* A fork of a member that rewrote a text page (a variant's fork) finds
   the rewritten text in that member's table and the rest in the
   root's: its lookups decode nothing and return what the uncached
   decode returns, and the root's table never holds the rewritten
   text.  A page the fork then writes is its own: refilling it leaves
   the member's entry hot. *)
let test_icache_fork_of_reimaged () =
  let m = fresh () in
  Mem.map m ~base:0x1000 ~size:0x2000 ~perm:Mem.rwx ~name:"text";
  Mem.poke_bytes m 0x1000 "\x01\x02\x03\x04";
  Mem.poke_bytes m 0x2000 "\x05\x06\x07\x08";
  let root = Memsim.Icache.table ~dummy:"" in
  let calls = ref 0 in
  let decode mem addr =
    incr calls;
    (Mem.read_bytes mem addr 4, 4)
  in
  let lookup table mem addr =
    (Memsim.Icache.lookup (Memsim.Icache.view table mem) addr ~decode).Memsim.Icache.v
  in
  let entry_gen table mem addr =
    (Memsim.Icache.peek (Memsim.Icache.view table mem) addr).Memsim.Icache.lo_gen
  in
  ignore (lookup root m 0x1000);
  ignore (lookup root m 0x2000);
  let variant = Mem.fork (Mem.snapshot m) in
  let vtable = Memsim.Icache.derive root in
  let text = String.make Mem.page_size '\x0a' in
  check_bool "reimaged" true
    (Mem.rewrite variant ~base:0x1000 ~size:Mem.page_size (fun buf pos ->
         Bytes.blit_string text 0 buf pos Mem.page_size;
         true));
  check_string "the variant decodes its text" "\x0a\x0a\x0a\x0a" (lookup vtable variant 0x1000);
  check_string "and finds the root's page" "\x05\x06\x07\x08" (lookup vtable variant 0x2000);
  check_int "decoding only its text" 3 !calls;
  let child = Mem.fork (Mem.snapshot variant) in
  let ctable = Memsim.Icache.derive vtable in
  List.iter
    (fun addr ->
      check_string
        (Printf.sprintf "the variant's fork at 0x%x = uncached" addr)
        (Mem.read_bytes child addr 4) (lookup ctable child addr))
    [ 0x1000; 0x2000 ];
  check_int "the variant's fork decodes nothing" 3 !calls;
  check_bool "the root never holds the variant's text" true
    (entry_gen root child 0x1000 <> Mem.page_gen child 0x1000);
  check_int "the variant's table does" (Mem.page_gen child 0x1000) (entry_gen vtable child 0x1000);
  Mem.write_u8 child 0x1001 0xFF;
  check_string "the fork's own write" "\x0a\xff\x0a\x0a" (lookup ctable child 0x1000);
  check_int "decoded" 4 !calls;
  check_string "the variant's entry stays hot" "\x0a\x0a\x0a\x0a" (lookup vtable variant 0x1000);
  check_int "without decoding" 4 !calls

(* --- Model-based test of the generation and icache protocol ---

   A family of memories (a root and forks of any member's snapshots),
   an icache table per member seen through a view, and a naive model:
   per member a map from page index to (permissions, bytes).  Random
   operations run on both; after every one, every member's view is
   probed, and each lookup must return exactly what the uncached decode
   returns — which must in turn match decoding the model's bytes — or
   raise the same fault. *)

module IM = Map.Make (Int)

type mpage = { mperm : Mem.perm; mbytes : string }
type model = mpage IM.t

(* Two disjoint regions; the first spans two pages so decodes can
   straddle a boundary. *)
let model_regions = [| (0x1000, 0x2000); (0x3000, 0x1000) |]
let model_perms = [| Mem.rwx; Mem.rx; Mem.rw; Mem.r; Mem.none |]

let region_pages (base, size) =
  List.init (size / Mem.page_size) (fun i -> (base lsr Mem.page_bits) + i)

let zero_page perm = { mperm = perm; mbytes = String.make Mem.page_size '\000' }

(* A toy variable-length encoding: the low three bits of the first byte
   give the length (1-8) and the value is the raw bytes.  Every byte is
   fetched through the execute check, lowest address first. *)
let fetch_decode mem addr =
  let b0 = Mem.fetch_u8 mem addr in
  let len = 1 + (b0 land 7) in
  ( String.init len (fun i ->
        Char.chr (if i = 0 then b0 else Mem.fetch_u8 mem (addr + i))),
    len )

let model_fetch (m : model) a =
  let a = Word.of_int a in
  match IM.find_opt (a lsr Mem.page_bits) m with
  | None -> Error (a, Mem.Unmapped)
  | Some p when not p.mperm.Mem.execute -> Error (a, Mem.Perm_exec)
  | Some p -> Ok p.mbytes.[a land (Mem.page_size - 1)]

let model_decode m addr =
  match model_fetch m addr with
  | Error e -> Error e
  | Ok c0 ->
      let len = 1 + (Char.code c0 land 7) in
      let rec go i acc =
        if i = len then Ok (String.of_seq (List.to_seq (List.rev acc)), len)
        else
          match model_fetch m (addr + i) with
          | Error e -> Error e
          | Ok c -> go (i + 1) (c :: acc)
      in
      go 1 [ c0 ]

(* The fault a span store (or, without the permission check, a poke)
   raises: the lowest address whose page is missing or not writable. *)
let model_span_fault (m : model) addr len ~check_perm =
  let rec go i =
    if i = len then None
    else
      let a = Word.of_int (addr + i) in
      match IM.find_opt (a lsr Mem.page_bits) m with
      | None -> Some (a, Mem.Unmapped)
      | Some p when check_perm && not p.mperm.Mem.write -> Some (a, Mem.Perm_write)
      | Some _ -> go (i + 1)
  in
  go 0

let model_write (m : model) addr s =
  let m = ref m in
  String.iteri
    (fun i c ->
      let a = Word.of_int (addr + i) in
      let idx = a lsr Mem.page_bits in
      let p = IM.find idx !m in
      let b = Bytes.of_string p.mbytes in
      Bytes.set b (a land (Mem.page_size - 1)) c;
      m := IM.add idx { p with mbytes = Bytes.to_string b } !m)
    s;
  !m

(* The model after poking all of region [reg] with [s]. *)
let model_fill (m : model) (base, _) s =
  List.fold_left
    (fun m idx ->
      let off = (idx lsl Mem.page_bits) - base in
      IM.add idx { (IM.find idx m) with mbytes = String.sub s off Mem.page_size } m)
    m
    (region_pages (base, String.length s))

(* Member indices are taken modulo the family size, snapshot indices
   modulo the member's snapshot count. *)
type op =
  | Map of int * int * int  (* member, region, perm *)
  | Unmap of int * int
  | Set_perm of int * int * int
  | Store of int * int * string
  | Poke of int * int * string
  | Copy of int * int * int * int  (* member, src, dst, length: one copy_forward *)
  | Snapshot of int
  | Restore of int * int  (* member, one of its own snapshots *)
  | Restore_last of int  (* the snapshot it last restored: the dirty path *)
  | Snapshot_restore of int * int  (* snapshot, then restore one at once *)
  | Fork of int * int * bool  (* member whose snapshot, which one, restore it at once *)
  | Reimage of int * int * int  (* member, region, seed of its new bytes *)
  | Lookup of int * int * bool  (* member, address, through a fresh view *)

let pp_op =
  let perm p = Format.asprintf "%a" Mem.pp_perm model_perms.(p) in
  function
  | Map (i, r, p) -> Printf.sprintf "map m%d r%d %s" i r (perm p)
  | Unmap (i, r) -> Printf.sprintf "unmap m%d r%d" i r
  | Set_perm (i, r, p) -> Printf.sprintf "set_perm m%d r%d %s" i r (perm p)
  | Store (i, a, s) -> Printf.sprintf "store m%d 0x%x %S" i a s
  | Poke (i, a, s) -> Printf.sprintf "poke m%d 0x%x %S" i a s
  | Copy (i, src, dst, n) -> Printf.sprintf "copy_forward m%d 0x%x -> 0x%x, %d" i src dst n
  | Snapshot i -> Printf.sprintf "snapshot m%d" i
  | Restore (i, k) -> Printf.sprintf "restore m%d s%d" i k
  | Restore_last i -> Printf.sprintf "restore m%d last" i
  | Snapshot_restore (i, k) -> Printf.sprintf "snapshot m%d, restore s%d" i k
  | Fork (i, k, r) -> Printf.sprintf "fork m%d s%d%s" i k (if r then ", restore it" else "")
  | Reimage (i, r, seed) -> Printf.sprintf "reimage m%d r%d #%d" i r seed
  | Lookup (i, a, fresh) ->
      Printf.sprintf "lookup m%d 0x%x%s" i a (if fresh then " (fresh view)" else "")

(* Addresses cluster on the starts and ends of pages 0-4, so stores land
   on the bytes lookups decode and decodes straddle boundaries. *)
let gen_addr =
  QCheck.Gen.(
    map2
      (fun page off -> (page lsl Mem.page_bits) + off)
      (int_range 0 4)
      (oneof [ int_range 0 15; int_range (Mem.page_size - 8) (Mem.page_size - 1) ]))

(* Restores come in every shape: the same snapshot again (the dirty
   path), an older one, one right after a snapshot or a fork, and,
   through the random order, after [set_perm]/[map]/[unmap] (the full
   scan). *)
let gen_op =
  let open QCheck.Gen in
  let member = int_bound 7 and region = int_bound 1 and perm = int_bound 4 in
  let bytes = string_size ~gen:char (int_range 1 6) in
  frequency
    [
      (1, map3 (fun i r p -> Map (i, r, p)) member region perm);
      (1, map2 (fun i r -> Unmap (i, r)) member region);
      (2, map3 (fun i r p -> Set_perm (i, r, p)) member region perm);
      (6, map3 (fun i a s -> Store (i, a, s)) member gen_addr bytes);
      (2, map3 (fun i a s -> Poke (i, a, s)) member gen_addr bytes);
      (* one span per page: [step] clips the length to fit *)
      ( 2,
        map3
          (fun i (src, dst) n -> Copy (i, src, dst, n))
          member
          (oneof
             [
               pair gen_addr gen_addr;
               map2 (fun a d -> (a, a + d)) gen_addr (int_range (-4) 4);
             ])
          (int_range 1 12) );
      (2, map (fun i -> Snapshot i) member);
      (2, map2 (fun i k -> Restore (i, k)) member (int_bound 3));
      (3, map (fun i -> Restore_last i) member);
      (1, map2 (fun i k -> Snapshot_restore (i, k)) member (int_bound 1));
      (1, map3 (fun i k r -> Fork (i, k, r)) member (int_bound 3) bool);
      (1, map3 (fun i r seed -> Reimage (i, r, seed)) member region nat);
      (6, map3 (fun i a f -> Lookup (i, a, f)) member gen_addr bool);
    ]

type member = {
  mem : Mem.t;
  mutable model : model;
  table : string Memsim.Icache.table;
  mutable view : string Memsim.Icache.t;
  mutable snaps : (Mem.snapshot * model) list;
  mutable last : (Mem.snapshot * model) option;  (* last restored *)
  mutable standing : Mem.snapshot option;
      (* the last snapshot taken, while nothing has changed the memory *)
}

let probe_addrs = [ 0x0FFF; 0x1000; 0x1FF9; 0x1FFE; 0x2000; 0x2FFC; 0x3000; 0x3FFF ]

exception Divergence of string

let show_decode = function
  | Ok (v, len) -> Printf.sprintf "%S/%d" v len
  | Error f -> Mem.fault_to_string f

(* The lookup at [addr] through the member's view must return what the
   uncached decode returns, which must match the model. *)
let check_lookup mb addr =
  let expected = model_decode mb.model addr in
  let uncached =
    match fetch_decode mb.mem addr with
    | r -> Ok r
    | exception Mem.Fault f -> Error f
  in
  let agrees =
    match (uncached, expected) with
    | Ok r, Ok r' -> r = r'
    | Error f, Error (a, kind) -> f.Mem.addr = a && f.Mem.kind = kind
    | _ -> false
  in
  if not agrees then
    raise
      (Divergence
         (Printf.sprintf "uncached decode at 0x%x disagrees with the model: %s"
            addr (show_decode uncached)));
  let cached =
    match Memsim.Icache.lookup mb.view addr ~decode:fetch_decode with
    | e -> Ok (e.Memsim.Icache.v, e.Memsim.Icache.len)
    | exception Mem.Fault f -> Error f
  in
  if cached <> uncached then
    raise
      (Divergence
         (Printf.sprintf "lookup at 0x%x: cached %s, uncached %s" addr
            (show_decode cached) (show_decode uncached)))

(* The fault kind a one-byte access raises at [a], if any. *)
let access_fault f a =
  match f a with
  | _ -> None
  | exception Mem.Fault fl -> Some fl.Mem.kind

(* What the decodes do not read: which of pages 0-4 are mapped, and for
   each mapped one its region's permissions, whether a read and a fetch
   of its first byte fault, and every byte of it. *)
let check_contents what mem (model : model) =
  let fail fmt = Printf.ksprintf (fun s -> raise (Divergence (what ^ ": " ^ s))) fmt in
  for idx = 0 to 4 do
    let a = idx lsl Mem.page_bits in
    match IM.find_opt idx model with
    | None -> if Mem.is_mapped mem a then fail "page %d is mapped, the model's is not" idx
    | Some p ->
        if not (Mem.is_mapped mem a) then fail "page %d is unmapped" idx;
        (match Mem.region_at mem a with
        | Some reg when reg.Mem.perm = p.mperm -> ()
        | _ -> fail "page %d's region has the wrong permissions" idx);
        if access_fault (Mem.read_u8 mem) a <> (if p.mperm.Mem.read then None else Some Mem.Perm_read)
        then fail "page %d: read permission differs" idx;
        if access_fault (Mem.fetch_u8 mem) a
           <> if p.mperm.Mem.execute then None else Some Mem.Perm_exec
        then fail "page %d: execute permission differs" idx;
        let bytes = Mem.peek_bytes mem a Mem.page_size in
        if bytes <> p.mbytes then begin
          let off = ref 0 in
          while bytes.[!off] = p.mbytes.[!off] do incr off done;
          fail "byte 0x%x is %02x, the model's %02x" (a + !off)
            (Char.code bytes.[!off]) (Char.code p.mbytes.[!off])
        end
  done

(* [f] must raise exactly the predicted fault, or none; true if it
   committed. *)
let commits what expected f =
  match (expected, f ()) with
  | None, () -> true
  | Some _, () -> raise (Divergence (what ^ ": expected a fault"))
  | exception Mem.Fault fl -> (
      match expected with
      | Some (a, kind) when fl.Mem.addr = a && fl.Mem.kind = kind -> false
      | _ -> raise (Divergence (what ^ ": unexpected " ^ Mem.fault_to_string fl)))

let run_model ops =
  let table = Memsim.Icache.table ~dummy:"" in
  let root = Mem.create () in
  let model = ref IM.empty in
  Array.iter
    (fun ((base, size) as r) ->
      Mem.map root ~base ~size ~perm:Mem.rwx ~name:(Printf.sprintf "r%x" base);
      List.iter
        (fun idx -> model := IM.add idx (zero_page Mem.rwx) !model)
        (region_pages r))
    model_regions;
  (* Seed short and page-straddling encodings. *)
  List.iter
    (fun (a, s) ->
      Mem.poke_bytes root a s;
      model := model_write !model a s)
    [
      (0x1000, "\x03abc"); (0x1FF9, "\x06ABCDE"); (0x1FFE, "\x07xyzwvut");
      (0x2FFC, "\x01q\x02rs");
    ];
  let s0 = Mem.snapshot root in
  let family = ref [||] in
  (* A fork takes a table derived from its source's, as [Process.fork]
     does, and may restore the snapshot it came from.  The first fork
     instead shares the root's table: views of one table may be made
     over any memories. *)
  let add mem table snaps =
    let model = snd (List.hd snaps) in
    family :=
      Array.append !family
        [|
          {
            mem;
            model;
            table;
            view = Memsim.Icache.view table mem;
            snaps;
            last = None;
            standing = None;
          };
        |]
  in
  add root table [ (s0, !model) ];
  add (Mem.fork s0) table [ (s0, !model) ];
  add (Mem.fork s0) (Memsim.Icache.derive table) [ (s0, !model) ];
  let pick i = !family.(i mod Array.length !family) in
  let mapped mb (base, _) = IM.mem (base lsr Mem.page_bits) mb.model in
  let update_region mb reg f =
    mb.model <- List.fold_left (fun m idx -> f idx m) mb.model (region_pages reg)
  in
  !family.(0).standing <- Some s0;
  (* Every page's generation, -1 where none is mapped. *)
  let gens mem = List.init 5 (fun idx -> Mem.page_gen mem (idx lsl Mem.page_bits)) in
  let restore mb ((snap, model) as s) =
    Mem.restore mb.mem snap;
    mb.model <- model;
    mb.last <- Some s;
    mb.standing <- None
  in
  (* The snapshot of an unchanged memory is its standing one, physically;
     after any change it is a new one.  Reused or built, it pins what the
     memory holds now: a fork of it starts with the memory's generations
     (bytes and permissions are [check_contents]'s, after every op). *)
  let snapshot mb =
    let snap = Mem.snapshot mb.mem in
    (match mb.standing with
    | Some s when s != snap -> raise (Divergence "an unchanged memory built a new snapshot")
    | None when List.exists (fun (s, _) -> s == snap) mb.snaps ->
        raise (Divergence "a changed memory handed back an old snapshot")
    | _ -> ());
    if gens (Mem.fork snap) <> gens mb.mem then
      raise (Divergence "a fork of the snapshot has other generations than the memory");
    mb.standing <- Some snap;
    mb.snaps <- (snap, mb.model) :: mb.snaps
  in
  let nth_snap mb k = List.nth mb.snaps (k mod List.length mb.snaps) in
  let step = function
    | Map (i, r, p) ->
        let mb = pick i and ((base, size) as reg) = model_regions.(r) in
        if not (mapped mb reg) then begin
          Mem.map mb.mem ~base ~size ~perm:model_perms.(p)
            ~name:(Printf.sprintf "r%x" base);
          update_region mb reg (fun idx -> IM.add idx (zero_page model_perms.(p)));
          mb.standing <- None
        end
    | Unmap (i, r) ->
        let mb = pick i and reg = model_regions.(r) in
        if mapped mb reg then begin
          Mem.unmap mb.mem ~base:(fst reg);
          update_region mb reg IM.remove;
          mb.standing <- None
        end
    | Set_perm (i, r, p) ->
        let mb = pick i and reg = model_regions.(r) in
        if mapped mb reg then begin
          Mem.set_perm mb.mem ~base:(fst reg) model_perms.(p);
          update_region mb reg (fun idx m ->
              IM.add idx { (IM.find idx m) with mperm = model_perms.(p) } m);
          mb.standing <- None
        end
    | Store (i, a, s) ->
        let mb = pick i in
        let expected = model_span_fault mb.model a (String.length s) ~check_perm:true in
        if commits "store" expected (fun () -> Mem.write_bytes mb.mem a s) then begin
          mb.model <- model_write mb.model a s;
          mb.standing <- None
        end
    | Poke (i, a, s) ->
        let mb = pick i in
        let expected = model_span_fault mb.model a (String.length s) ~check_perm:false in
        if commits "poke" expected (fun () -> Mem.poke_bytes mb.mem a s) then begin
          mb.model <- model_write mb.model a s;
          mb.standing <- None
        end
    | Copy (i, src, dst, n) ->
        let mb = pick i in
        let src = Word.of_int src and dst = Word.of_int dst in
        let room a = Mem.page_size - (a land (Mem.page_size - 1)) in
        let n = min n (min (room src) (room dst)) in
        let page a = IM.find_opt (a lsr Mem.page_bits) mb.model in
        let byte m a = (IM.find (a lsr Mem.page_bits) m).mbytes.[a land (Mem.page_size - 1)] in
        let expected =
          match (page src, page dst) with
          | Some sp, Some dp when sp.mperm.Mem.read && dp.mperm.Mem.write ->
              (* forward, one byte at a time: an overlap replicates *)
              let m = ref mb.model in
              for k = 0 to n - 1 do
                m := model_write !m (dst + k) (String.make 1 (byte !m (src + k)))
              done;
              Some (!m, Char.code (byte !m (dst + n - 1)))
          | _ -> None
        in
        let last = Mem.copy_forward mb.mem ~src ~dst n in
        (match expected with
        | None -> if last <> -1 then raise (Divergence "copy_forward copied where the model faults")
        | Some (m, b) ->
            if last <> b then raise (Divergence "copy_forward returned another last byte");
            mb.model <- m;
            mb.standing <- None)
    | Snapshot i -> snapshot (pick i)
    | Restore (i, k) ->
        let mb = pick i in
        restore mb (nth_snap mb k)
    | Restore_last i ->
        let mb = pick i in
        restore mb (Option.value mb.last ~default:(List.hd mb.snaps))
    | Snapshot_restore (i, k) ->
        let mb = pick i in
        snapshot mb;
        let before = gens mb.mem in
        let ((snap, _) as s) = nth_snap mb k in
        restore mb s;
        (* Restoring the snapshot just taken, reused or built, finds
           every page as its frame pinned it. *)
        if snap == fst (List.hd mb.snaps) && gens mb.mem <> before then
          raise (Divergence "restoring the snapshot just taken moved a generation")
    | Fork (i, k, restore_it) ->
        let mb = pick i in
        if Array.length !family < 6 then begin
          let ((snap, _) as s) = nth_snap mb k in
          add (Mem.fork snap) (Memsim.Icache.derive mb.table) [ s ];
          if restore_it then restore !family.(Array.length !family - 1) s
        end
    | Reimage (i, r, seed) ->
        (* [Process.reimage] at memory level: [Mem.rewrite] lays fresh
           bytes over the whole region (one or two pages), or declines
           and leaves the memory as it was.  The member keeps its table,
           which owns the fresh generations it drew. *)
        let mb = pick i and ((base, size) as reg) = model_regions.(r) in
        if mapped mb reg then begin
          let rng = Random.State.make [| seed |] in
          let s = String.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
          let commit = seed land 3 <> 0 in
          let wrote =
            Mem.rewrite mb.mem ~base ~size (fun buf pos ->
                Bytes.blit_string s 0 buf pos size;
                commit)
          in
          if wrote <> commit then raise (Divergence "rewrite reports another outcome than its writer");
          if commit then begin
            mb.model <- model_fill mb.model reg s;
            mb.standing <- None
          end
        end
    | Lookup (i, a, fresh) ->
        let mb = pick i in
        if fresh then mb.view <- Memsim.Icache.view mb.table mb.mem;
        check_lookup mb a
  in
  List.iteri
    (fun n op ->
      try
        step op;
        Array.iteri
          (fun m mb ->
            List.iter (check_lookup mb) probe_addrs;
            check_contents (Printf.sprintf "m%d" m) mb.mem mb.model;
            List.iteri
              (fun k (snap, model) ->
                check_contents (Printf.sprintf "a fork of m%d's s%d" m k) (Mem.fork snap) model)
              mb.snaps)
          !family
      with Divergence why ->
        QCheck.Test.fail_reportf "after op %d (%s): %s" n (pp_op op) why)
    ops;
  true

(* [Int_table] against [Hashtbl.Make] over the same hash: random
   sequences of every operation on keys that collide in the low bits,
   spread over the whole int range and repeat, through several resizes
   and resets.  After every operation the two must agree on the result,
   the length and the fold (bindings and their order). *)
module Ref_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x9E3779B1) lsr 16
end)

type table_op =
  | T_add of int * int
  | T_replace of int * int
  | T_remove of int
  | T_find of int
  | T_find_opt of int
  | T_mem of int
  | T_reset

let pp_table_op = function
  | T_add (k, v) -> Printf.sprintf "add %d %d" k v
  | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | T_remove k -> Printf.sprintf "remove %d" k
  | T_find k -> Printf.sprintf "find %d" k
  | T_find_opt k -> Printf.sprintf "find_opt %d" k
  | T_mem k -> Printf.sprintf "mem %d" k
  | T_reset -> "reset"

let gen_table_op =
  let open QCheck.Gen in
  let key =
    oneof [ int_bound 40; map (fun k -> k lsl 16) (int_bound 40); int; map (fun k -> -k) (int_bound 1000) ]
  in
  frequency
    [
      (4, map2 (fun k v -> T_add (k, v)) key small_nat);
      (8, map2 (fun k v -> T_replace (k, v)) key small_nat);
      (3, map (fun k -> T_remove k) key);
      (2, map (fun k -> T_find k) key);
      (2, map (fun k -> T_find_opt k) key);
      (2, map (fun k -> T_mem k) key);
      (1, return T_reset);
    ]

let prop_int_table_model =
  QCheck.Test.make ~name:"Int_table = Hashtbl.Make, fold order included" ~count:300
    ~long_factor:10
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_table_op ops))
       QCheck.Gen.(list_size (int_range 1 300) gen_table_op))
    (fun ops ->
      let t = Memsim.Int_table.create 16 and r = Ref_table.create 16 in
      let found f x = match f x with v -> Some v | exception Not_found -> None in
      List.iteri
        (fun n op ->
          let agree =
            match op with
            | T_add (k, v) ->
                Memsim.Int_table.add t k v;
                Ref_table.add r k v;
                true
            | T_replace (k, v) ->
                Memsim.Int_table.replace t k v;
                Ref_table.replace r k v;
                true
            | T_remove k ->
                Memsim.Int_table.remove t k;
                Ref_table.remove r k;
                true
            | T_find k -> found (Memsim.Int_table.find t) k = found (Ref_table.find r) k
            | T_find_opt k -> Memsim.Int_table.find_opt t k = Ref_table.find_opt r k
            | T_mem k -> Memsim.Int_table.mem t k = Ref_table.mem r k
            | T_reset ->
                Memsim.Int_table.reset t;
                Ref_table.reset r;
                true
          in
          let bindings fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] in
          if not agree then QCheck.Test.fail_reportf "op %d (%s): results differ" n (pp_table_op op);
          if Memsim.Int_table.length t <> Ref_table.length r then
            QCheck.Test.fail_reportf "op %d (%s): lengths differ" n (pp_table_op op);
          if bindings Memsim.Int_table.fold t <> bindings Ref_table.fold r then
            QCheck.Test.fail_reportf "op %d (%s): folds differ" n (pp_table_op op))
        ops;
      true)

let prop_icache_model =
  QCheck.Test.make ~name:"icache and generations agree with a flat model"
    ~count:300 ~long_factor:20
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 10 80) gen_op))
    run_model

(* The model's members start as the root (m0), a fork sharing its table
   (m1) and a derived fork (m2); each [Fork] appends one. *)
let test_model_fork_of_reimaged () =
  ignore
    (run_model
       [
         Lookup (0, 0x1000, false);
         Reimage (2, 0, 1);
         Lookup (2, 0x1000, false);
         Lookup (2, 0x1FFE, false);
         Snapshot 2;
         Fork (2, 0, false);
         Lookup (3, 0x1000, true);
         Store (3, 0x1001, "\x02");
         Lookup (3, 0x1000, false);
         Fork (3, 0, true);
         Reimage (4, 1, 2);
         Lookup (4, 0x3000, false);
         Lookup (2, 0x1000, true);
       ])

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"restore rewinds arbitrary write sequences" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 20)
           (pair (int_range 0 0x1FFF) (int_range 0 255)))
        (list_of_size (Gen.int_range 0 20)
           (pair (int_range 0 0x1FFF) (int_range 0 255))))
    (fun (before, after) ->
      let m = fresh () in
      Mem.map m ~base:0x4000 ~size:0x2000 ~perm:Mem.rw ~name:"d";
      List.iter (fun (off, v) -> Mem.write_u8 m (0x4000 + off) v) before;
      let expected = Mem.peek_bytes m 0x4000 0x2000 in
      let snap = Mem.snapshot m in
      List.iter (fun (off, v) -> Mem.write_u8 m (0x4000 + off) v) after;
      Mem.restore m snap;
      Mem.peek_bytes m 0x4000 0x2000 = expected)

(* [copy_forward] against the byte loop it stands for, over three rw
   pages and a fourth whose permission varies: spans anywhere within a
   page, overlaps within one page in both directions, on a plain memory,
   a snapshotted and restored one (frozen and armed) and a fork (frozen;
   a restore arms it).  Two memories built alike take the two forms;
   they must end with the same bytes, the same generation drawn on each
   page relative to the next fresh one before the copy, and the same
   count of generations drawn.  A restore must then put back the bytes
   from the dirty pages alone, and a sibling fork must not move. *)
type copy_case = {
  frozen : [ `Plain | `Snapshotted | `Forked ];
  last_perm : int;  (* the fourth page: 0 rw, 1 r, 2 none *)
  fill : int;  (* seeds the pages' bytes *)
  src : int;
  dst : int;
  len : int;
}

let copy_base = 0x1000

let gen_copy_case =
  let open QCheck.Gen in
  let addr = map2 (fun p o -> copy_base + (p * 0x1000) + o) (int_bound 3) (int_bound 0xFFF) in
  let* frozen = oneofl [ `Plain; `Snapshotted; `Forked ] in
  let* last_perm = frequency [ (3, return 0); (1, return 1); (1, return 2) ] in
  let* fill = nat in
  let* src = addr in
  let* dst =
    frequency
      [
        (1, addr);
        (* the same page, just ahead of or behind the source *)
        ( 2,
          map
            (fun d -> max (src land lnot 0xFFF) (min (src lor 0xFFF) (src + d)))
            (int_range (-8) 8) );
      ]
  in
  let room = 0x1000 - max (src land 0xFFF) (dst land 0xFFF) in
  let* len = frequency [ (3, int_range 1 (min room 80)); (1, int_range 1 room) ] in
  return { frozen; last_perm; fill; src; dst; len }

let print_copy_case c =
  Printf.sprintf "%s, page 4 %s, fill %d: copy 0x%x -> 0x%x, %d bytes"
    (match c.frozen with `Plain -> "plain" | `Snapshotted -> "snapshotted" | `Forked -> "forked")
    (match c.last_perm with 0 -> "rw" | 1 -> "r" | _ -> "none")
    c.fill c.src c.dst c.len

(* The next generation the shared counter hands out (drawing it). *)
let next_gen () =
  let m = fresh () in
  Mem.map m ~base:0 ~size:1 ~perm:Mem.rw ~name:"probe";
  Mem.page_gen m 0

let prop_copy_forward =
  QCheck.Test.make ~name:"copy_forward = a read_u8/write_u8 loop" ~count:300
    ~long_factor:20
    (QCheck.make ~print:print_copy_case gen_copy_case)
    (fun c ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let pages = List.init 4 (fun i -> copy_base + (i * 0x1000)) in
      let build () =
        let m = fresh () in
        Mem.map m ~base:copy_base ~size:0x3000 ~perm:Mem.rw ~name:"d";
        Mem.map m ~base:0x4000 ~size:0x1000 ~perm:Mem.rw ~name:"x";
        let rng = Memsim.Rng.create c.fill in
        Mem.write_bytes m copy_base
          (String.init 0x4000 (fun _ -> Char.chr (Memsim.Rng.int rng 256)));
        Mem.set_perm m ~base:0x4000
          (match c.last_perm with 0 -> Mem.rw | 1 -> Mem.r | _ -> Mem.none);
        m
      in
      (* Each memory with the snapshot it is armed for, if frozen, and
         for a fork the untouched sibling. *)
      let prepare () =
        match c.frozen with
        | `Plain -> (build (), None, None)
        | `Snapshotted ->
            let m = build () in
            let s = Mem.snapshot m in
            Mem.restore m s;
            (m, Some s, None)
        | `Forked ->
            let s = Mem.snapshot (build ()) in
            let m = Mem.fork s in
            Mem.restore m s;
            (m, Some s, Some (Mem.fork s))
      in
      let contents m = String.concat "" (List.map (fun p -> Mem.peek_bytes m p 0x1000) pages) in
      let gens m = List.map (Mem.page_gen m) pages in
      (* The copy one way; its result, the generations it drew relative
         to [g0] (0: unchanged) and how many it drew. *)
      let run copy =
        let m, snap, sibling = prepare () in
        let before = contents m and sibling_gens = Option.map gens sibling in
        let g0 = next_gen () in
        let result = copy m in
        let drawn = next_gen () - g0 - 1 in
        let rel = List.map (fun g -> if g > g0 then g - g0 else 0) (gens m) in
        (m, snap, sibling, sibling_gens, before, result, rel, drawn)
      in
      let ma, snap_a, sib_a, sib_gens_a, before, last, rel_a, drawn_a =
        run (fun m -> Mem.copy_forward m ~src:c.src ~dst:c.dst c.len)
      in
      let mb, snap_b, _, _, _, faulted, rel_b, drawn_b =
        run (fun m ->
            match
              for i = 0 to c.len - 1 do
                Mem.write_u8 m (c.dst + i) (Mem.read_u8 m (c.src + i))
              done
            with
            | () -> false
            | exception Mem.Fault _ -> true)
      in
      if faulted then begin
        if last <> -1 then fail "the loop faults but the copy returned %d" last;
        if contents ma <> before || drawn_a <> 0 || List.exists (( <> ) 0) rel_a then
          fail "a refused copy changed memory or drew generations"
      end
      else begin
        if last <> Char.code (Mem.peek_bytes mb (c.dst + c.len - 1) 1).[0] then
          fail "returned %d, not the last byte copied" last;
        if contents ma <> contents mb then fail "bytes differ from the loop's";
        if rel_a <> rel_b then fail "page generations differ from the loop's";
        if drawn_a <> drawn_b || drawn_a <> c.len then
          fail "drew %d generations, the loop %d" drawn_a drawn_b
      end;
      (match (snap_a, snap_b) with
      | Some sa, Some sb ->
          let dirty_a = traced_restore ma sa and dirty_b = traced_restore mb sb in
          if dirty_a <> dirty_b then fail "restore saw %d dirty pages, the loop's %d" dirty_a dirty_b;
          if contents ma <> before then fail "restore did not put the bytes back"
      | _ -> ());
      (match (sib_a, sib_gens_a) with
      | Some sib, Some g ->
          if contents sib <> before || gens sib <> g then fail "the sibling fork moved"
      | _ -> ());
      true)

(* A range that straddles a page boundary clears on both pages and
   nothing outside it; labels are packed per byte. *)
let test_shadow_clear_range_across_pages () =
  let module Shadow = Memsim.Shadow in
  let sh = Shadow.create () in
  for a = 0x1FFC to 0x2003 do
    Shadow.set sh a (Shadow.make ~src:1 ~offset:(a - 0x1FFC))
  done;
  check_int "eight tainted" 8 (Shadow.tainted sh);
  Shadow.clear_range sh 0x1FFE ~len:4;
  check_int "four left" 4 (Shadow.tainted sh);
  List.iter
    (fun a -> check_int (Printf.sprintf "0x%x cleared" a) Shadow.clean (Shadow.get sh a))
    [ 0x1FFE; 0x1FFF; 0x2000; 0x2001 ];
  List.iter
    (fun a ->
      check_int (Printf.sprintf "0x%x kept" a)
        (Shadow.make ~src:1 ~offset:(a - 0x1FFC))
        (Shadow.get sh a))
    [ 0x1FFC; 0x1FFD; 0x2002; 0x2003 ]

let test_shadow_join () =
  let module Shadow = Memsim.Shadow in
  let l1 = Shadow.make ~src:1 ~offset:4 and l2 = Shadow.make ~src:2 ~offset:9 in
  check_int "first tainted operand wins" l1 (Shadow.join l1 l2);
  check_int "clean first yields the second" l2 (Shadow.join Shadow.clean l2);
  check_int "clean second keeps the first" l1 (Shadow.join l1 Shadow.clean);
  check_int "clean with clean" Shadow.clean (Shadow.join Shadow.clean Shadow.clean)

(* The shadow map against a plain association model, over addresses in
   three pages so the last-page cache keeps switching — and must never
   serve a page that [clear] dropped. *)
let prop_shadow_model =
  let module Shadow = Memsim.Shadow in
  let addr = QCheck.Gen.(map2 (fun p o -> (p * 0x1000) + o) (int_range 1 3) (int_bound 7)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun a l -> `Set (a, l)) addr (int_bound 2));
          (4, map (fun a -> `Get a) addr);
          (1, return `Clear);
          (1, map (fun a -> `Clear_range a) addr);
        ])
  in
  QCheck.Test.make ~name:"shadow map = model (cache, clear)" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let sh = Shadow.create () in
      let model = Hashtbl.create 16 in
      let get a = Option.value (Hashtbl.find_opt model a) ~default:0 in
      List.for_all
        (fun op ->
          (match op with
          | `Set (a, l) ->
              let l = if l = 0 then Shadow.clean else Shadow.make ~src:l ~offset:a in
              Shadow.set sh a l;
              Hashtbl.replace model a l
          | `Get _ -> ()
          | `Clear ->
              Shadow.clear sh;
              Hashtbl.reset model
          | `Clear_range a ->
              Shadow.clear_range sh a ~len:2;
              Hashtbl.replace model a 0;
              Hashtbl.replace model (a + 1) 0);
          (match op with `Get a | `Set (a, _) -> Shadow.get sh a = get a | _ -> true)
          && Shadow.tainted sh
             = Hashtbl.fold (fun _ l n -> if l <> 0 then n + 1 else n) model 0)
        ops)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [
      ( "word",
        [
          Alcotest.test_case "wrap arithmetic" `Quick test_word_wrap;
          qt prop_word_signed_roundtrip;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "map/read/write" `Quick test_map_read_write;
          Alcotest.test_case "little-endian" `Quick test_little_endian;
          Alcotest.test_case "cross-page access" `Quick test_cross_page;
          Alcotest.test_case "unmapped faults" `Quick test_unmapped_fault;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "unmap frees pages" `Quick test_unmap;
          Alcotest.test_case "region queries" `Quick test_region_queries;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "write-protect" `Quick test_write_protect;
          Alcotest.test_case "NX fetch faults" `Quick test_nx_fetch;
          Alcotest.test_case "rwx stack fetch ok" `Quick test_executable_stack_fetch;
          Alcotest.test_case "mprotect" `Quick test_mprotect;
          Alcotest.test_case "peek/poke bypass" `Quick test_peek_poke_bypass_perms;
        ] );
      ( "data",
        [
          Alcotest.test_case "bytes and cstring" `Quick test_bytes_and_cstring;
          Alcotest.test_case "hexdump" `Quick test_hexdump;
          qt prop_byte_roundtrip;
          qt prop_u32_roundtrip;
          qt prop_write_bytes_read_bytes;
        ] );
      ( "write atomicity",
        [
          Alcotest.test_case "u32 into unmapped page" `Quick
            test_torn_write_u32_unmapped;
          Alcotest.test_case "u32 into protected page" `Quick
            test_torn_write_u32_protected;
          Alcotest.test_case "write_bytes/poke_bytes spans" `Quick
            test_torn_write_bytes;
        ] );
      ( "errors",
        [ Alcotest.test_case "descriptive invalid_arg" `Quick test_descriptive_errors ] );
      ( "generations",
        [
          Alcotest.test_case "page_gen protocol" `Quick test_page_generations;
          Alcotest.test_case "gen_ref cells" `Quick test_gen_ref_cells;
        ] );
      ("int table", [ qt prop_int_table_model ]);
      ( "icache",
        [
          Alcotest.test_case "hit and miss" `Quick test_icache_hit_and_miss;
          Alcotest.test_case "store invalidates" `Quick test_icache_write_invalidates;
          Alcotest.test_case "mprotect/unmap invalidate" `Quick
            test_icache_perm_and_unmap_invalidate;
          Alcotest.test_case "page-straddling entries" `Quick
            test_icache_straddling_entry;
          Alcotest.test_case "one table across forks" `Quick
            test_icache_fork_shared;
          Alcotest.test_case "a fork of a reimaged member" `Quick
            test_icache_fork_of_reimaged;
          Alcotest.test_case "model: a fork of a reimaged member" `Quick
            test_model_fork_of_reimaged;
          qt prop_icache_model;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "restore rewinds bytes" `Quick
            test_snapshot_restore_bytes;
          Alcotest.test_case "generation contract" `Quick test_snapshot_gen_contract;
          Alcotest.test_case "region table rollback" `Quick
            test_snapshot_region_table;
          Alcotest.test_case "fork independence" `Quick test_fork_independence;
          Alcotest.test_case "icache coherent across restore" `Quick
            test_snapshot_icache_coherent;
          Alcotest.test_case "restore recycles displaced pages" `Quick
            test_restore_recycles;
          Alcotest.test_case "map shares one zero page" `Quick test_map_shares_zero_page;
          Alcotest.test_case "restore counts the pages written" `Quick
            test_restore_dirty_count;
          Alcotest.test_case "restore exact across snapshots and forks" `Quick
            test_restore_exact_across_snapshots;
          qt prop_snapshot_roundtrip;
          qt prop_copy_forward;
          Alcotest.test_case "shadow clear_range across pages" `Quick
            test_shadow_clear_range_across_pages;
          Alcotest.test_case "shadow join" `Quick test_shadow_join;
          qt prop_shadow_model;
        ] );
      ( "rng",
        [
          qt prop_rng_deterministic;
          qt prop_rng_bound;
          qt prop_rng_skip;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
    ]
