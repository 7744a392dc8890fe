(* Decoded-instruction cache keyed by address, validated against
   {!Memory}'s page generations, and shared by a fork family: one table
   per member, each holding the entries of the pages it owns.

   Decoding is the interpreter's hot path: the x86 decoder pulls bytes one
   at a time through closures and allocates an instruction record per
   step; the ARM decoder refetches and re-cracks the same word every time
   a loop body comes around.  Both interpreters execute overwhelmingly
   out of a handful of text pages, so caching the decoded form per
   address and validating it with a couple of integer compares removes
   the whole decode cost.

   Correctness comes entirely from the generation protocol.  Generations
   are drawn from one counter shared by every address space, every
   change to a page's bytes or permissions stores a fresh one, and
   {!Memory.fork} hands each page the generation of the frame it shares
   — so a generation value names exactly one (bytes, permission) page
   state, in whichever memory of the family it shows up.  An entry
   records the generation it was decoded under; a view validates it
   against the viewing memory's own page cell.  A hit therefore means
   "this memory's page holds the very bytes this entry was decoded
   from", whether the entry was filled by this memory, its template, or
   a sibling fork.  Self-modifying code (shellcode written to an rwx
   stack and then run, the paper's §III-A), [mprotect], unmap/remap and
   restore all store fresh generations and force a re-decode.

   Every member of the family but its root (a boot) takes a {!derive}d
   table at its birth, and one rule places every entry: it lives in the
   table of the member whose memory drew its page's generation.  A page
   the member wrote, restored or remapped since its birth (a diversified
   variant's rewritten text, shellcode it wrote to its stack, a dirtied
   data page) carries a generation newer than its birth, so its entries
   are the member's own and never crowd or churn anyone else's; a page
   it still shares with its parent carries an older one and resolves in
   the parent's records, and so on up to the root, where the template
   already filled what the member runs there.

   An x86 instruction may straddle a page boundary, so an entry records
   the generation of the page holding its last byte too ([hi_gen], 0 for
   the common same-page entry: no page ever has generation 0).

   Slots live in 64-entry chunks allocated on first fill, under a
   per-page record, so a page whose text runs a few functions costs a
   few small minor-heap arrays rather than one 4096-slot array.  Empty
   slots hold a [dummy] entry whose generation no page cell can hold,
   which keeps the hit path free of [option] boxes — it runs once per
   interpreted instruction. *)

type 'a entry = { v : 'a; len : int; lo_gen : int; hi_gen : int }

let chunk_bits = 6
let chunk_mask = (1 lsl chunk_bits) - 1
let chunks_per_page = Memory.page_size lsr chunk_bits

(* One page's slots, and how many fills replaced an entry in them (see
   {!refills}). *)
type 'a page = { chunks : 'a entry array array; mutable refills : int }

(* A member's table holds, in [pages], the records of the pages whose
   current generation it owns: those above [born], the generation counter
   when it was derived.  An older generation belongs to the youngest
   ancestor born before it; the root is born at [min_int], so it owns
   every generation no descendant does.  A table's [pages] is the
   family's [none] until it fills its first page, so a fork that never
   owns one costs this record alone.  Every member shares the root's
   [dummy], empty chunk, empty page and [none], which the fill path
   compares by identity. *)
type 'a table = {
  dummy : 'a entry;
  empty_chunk : 'a entry array;  (* all [dummy]; never written *)
  empty_page : 'a page;
      (* chunks all [empty_chunk]; never written, so its [refills] stays 0 *)
  none : 'a page Int_table.t;  (* empty; never written *)
  parent : 'a table;  (* the root's is itself *)
  born : int;
  mutable pages : 'a page Int_table.t;
  mutable hits : int;
  mutable misses : int;
  mutable summarised : int;
}

(* [last_*] cache the page record and the viewing memory's generation
   cell of the last page looked up.  A cached cell can go stale only when
   the memory drops the page (unmap, restore); both retire the cell with
   a fresh generation no entry was filled under, so a stale cell can only
   miss, and the miss path re-reads the live one.  The record is the one
   the page's generation selected when it was cached; a store that moves
   the generation to another member's misses there, and the miss path
   moves the record with it. *)
type 'a t = {
  table : 'a table;
  mem : Memory.t;
  mutable last_idx : int;
  mutable last_page : 'a page;
  mutable last_cell : int ref;
}

let table ~dummy =
  (* Live pages carry generations >= 1 and unmapped addresses read -1
     (see {!Memory.gen_ref}), so the dummy's 0 never validates. *)
  let dummy = { v = dummy; len = 1; lo_gen = 0; hi_gen = 0 } in
  let empty_chunk = Array.make (chunk_mask + 1) dummy in
  let empty_page = { chunks = Array.make chunks_per_page empty_chunk; refills = 0 } in
  let none = Int_table.create 16 in
  let rec root =
    {
      dummy;
      empty_chunk;
      empty_page;
      none;
      parent = root;
      born = min_int;
      pages = none;
      hits = 0;
      misses = 0;
      summarised = 0;
    }
  in
  root

let derive parent =
  {
    parent with
    parent;
    born = Memory.generation ();
    pages = parent.none;
    hits = 0;
    misses = 0;
    summarised = 0;
  }

let view table mem =
  { table; mem; last_idx = -1; last_page = table.empty_page; last_cell = ref (-1) }

let hits table = table.hits
let misses table = table.misses
let summarised table = table.summarised

(* The member that owns generation [gen]. *)
let rec owner tbl gen = if gen > tbl.born then tbl else owner tbl.parent gen

(* The record of page [idx] at generation [gen], or the empty page. *)
let record tbl idx gen = Int_table.find_or (owner tbl gen).pages idx ~default:tbl.empty_page

let select t idx addr =
  let cell = Memory.gen_ref t.mem addr in
  t.last_idx <- idx;
  t.last_cell <- cell;
  t.last_page <- record t.table idx !cell

(* Miss or stale.  [decode] fetches through the memory's execute
   permission check, so nothing is ever cached from a page that was not
   executable at decode time — and a later [set_perm] bumps the
   generation, forcing this path (and its NX check) to run again. *)
let[@inline never] fill t addr ~decode =
  let v, len = decode t.mem addr in
  let tbl = t.table in
  tbl.misses <- tbl.misses + 1;
  let cell = Memory.gen_ref t.mem addr in
  t.last_cell <- cell;
  let off = addr land (Memory.page_size - 1) in
  let hi_gen =
    if off + len <= Memory.page_size then 0
    else Memory.page_gen t.mem (addr + len - 1)
  in
  let e = { v; len; lo_gen = !cell; hi_gen } in
  let page =
    let p = record tbl t.last_idx e.lo_gen in
    if p != tbl.empty_page then p
    else begin
      let o = owner tbl e.lo_gen in
      let p = { chunks = Array.make chunks_per_page tbl.empty_chunk; refills = 0 } in
      if o.pages == tbl.none then o.pages <- Int_table.create 16;
      Int_table.add o.pages t.last_idx p;
      p
    end
  in
  t.last_page <- page;
  let ci = off lsr chunk_bits in
  let chunk =
    let c = page.chunks.(ci) in
    if c != tbl.empty_chunk then c
    else begin
      let c = Array.make (chunk_mask + 1) tbl.dummy in
      page.chunks.(ci) <- c;
      c
    end
  in
  let slot = off land chunk_mask in
  if chunk.(slot) != tbl.dummy then page.refills <- page.refills + 1;
  chunk.(slot) <- e;
  e

let lookup t addr ~decode =
  let addr = Word.of_int addr in
  let idx = addr lsr Memory.page_bits in
  if idx <> t.last_idx then select t idx addr;
  let off = addr land (Memory.page_size - 1) in
  let e =
    Array.unsafe_get
      (Array.unsafe_get t.last_page.chunks (off lsr chunk_bits))
      (off land chunk_mask)
  in
  if
    !(t.last_cell) = e.lo_gen
    && (e.hi_gen = 0 || Memory.page_gen t.mem (addr + e.len - 1) = e.hi_gen)
  then begin
    t.table.hits <- t.table.hits + 1;
    e
  end
  else fill t addr ~decode

(* Block support.  A block is a straight-line run of entries the
   interpreter chains from a looked-up head; it is built from what the
   table already holds (never decoding) and executed without looking its
   followers up, so the caller re-checks the head page's generation cell
   itself and credits the followers' hits. *)

let peek t addr =
  let addr = Word.of_int addr in
  let idx = addr lsr Memory.page_bits in
  let page =
    if idx = t.last_idx then t.last_page else record t.table idx (Memory.page_gen t.mem addr)
  in
  let off = addr land (Memory.page_size - 1) in
  page.chunks.(off lsr chunk_bits).(off land chunk_mask)

let cell t = t.last_cell
let refills t = t.last_page.refills
let credit t n = t.table.hits <- t.table.hits + n

let credit_loop t ~iterations ~hits =
  t.table.summarised <- t.table.summarised + iterations;
  t.table.hits <- t.table.hits + hits
