(* Decoded-instruction cache keyed by address, validated against
   {!Memory}'s page generations, and shared by a whole fork family.

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

   A member that rewrites a range of its own ([Process.reimage]'s
   diversified text) takes a {!derive}d table: its text pages are its
   own, and so is every page whose generation it drew itself (a stack
   page it wrote and then ran), so its unique entries never crowd or
   churn the family's; every page it still shares with its template
   (libc, the PLT) resolves in the family's records, where the template
   already filled what the variant runs there.

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

(* A family table holds every page's record in [pages], which is also
   [shared].  A table {!derive}d from one holds, in [pages], the records
   of the pages it owns, and finds every other page's record in its
   family's [shared] pages: the records, and the entries filled into
   them, are the family's.  It owns the page indices [own_lo..own_hi]
   (its rewritten text) and each page whose generation the viewing
   memory drew itself when the record was made ({!Memory.page_own}):
   entries decoded under such a generation could serve no other
   member, so they stay out of the family's records.  Both share the
   parent's [dummy] and empty chunk and page, which the fill path
   compares by identity. *)
type 'a table = {
  dummy : 'a entry;
  empty_chunk : 'a entry array;  (* all [dummy]; never written *)
  empty_page : 'a page;
      (* chunks all [empty_chunk]; never written, so its [refills] stays 0 *)
  pages : 'a page Int_table.t;
  shared : 'a page Int_table.t;
  own_lo : int;
  own_hi : int;
  mutable hits : int;
  mutable misses : int;
  mutable summarised : int;
}

(* [last_*] cache the page record and the viewing memory's generation
   cell of the last page looked up.  A cached cell can go stale only when
   the memory drops the page (unmap, restore); both retire the cell with
   a fresh generation no entry was filled under, so a stale cell can only
   miss, and the miss path re-reads the live one. *)
type 'a t = {
  table : 'a table;
  mem : Memory.t;
  mutable last_idx : int;
  mutable last_page : 'a page;
  mutable last_own : bool;  (* [last_page] is in [table.pages] *)
  mutable last_cell : int ref;
}

let table ~dummy =
  (* Live pages carry generations >= 1 and unmapped addresses read -1
     (see {!Memory.gen_ref}), so the dummy's 0 never validates. *)
  let dummy = { v = dummy; len = 1; lo_gen = 0; hi_gen = 0 } in
  let empty_chunk = Array.make (chunk_mask + 1) dummy in
  let pages = Int_table.create 16 in
  {
    dummy;
    empty_chunk;
    empty_page = { chunks = Array.make chunks_per_page empty_chunk; refills = 0 };
    pages;
    shared = pages;
    own_lo = 0;
    own_hi = -1;
    hits = 0;
    misses = 0;
    summarised = 0;
  }

let derive parent ~lo ~hi =
  let lo = lo lsr Memory.page_bits and hi = (hi - 1) lsr Memory.page_bits in
  {
    parent with
    pages = Int_table.create 16;
    own_lo = lo;
    own_hi = hi;
    hits = 0;
    misses = 0;
    summarised = 0;
  }

let view table mem =
  {
    table;
    mem;
    last_idx = -1;
    last_page = table.empty_page;
    last_own = false;
    last_cell = ref (-1);
  }

let hits table = table.hits
let misses table = table.misses
let summarised table = table.summarised

(* The record of page [idx] in [pages], or the empty page. *)
let record_in table pages idx = Int_table.find_or pages idx ~default:table.empty_page

(* The record of page [idx]: this table's own, else its family's. *)
let page_at table idx =
  let p = record_in table table.pages idx in
  if p != table.empty_page || table.shared == table.pages then p
  else record_in table table.shared idx

let select t idx addr =
  let tbl = t.table in
  let own = record_in tbl tbl.pages idx in
  t.last_idx <- idx;
  t.last_own <- own != tbl.empty_page;
  t.last_page <-
    (if t.last_own || tbl.shared == tbl.pages then own else record_in tbl tbl.shared idx);
  t.last_cell <- Memory.gen_ref t.mem addr

(* Whether a derived table keeps page [idx]'s entries itself. *)
let owns tbl mem idx addr =
  tbl.shared != tbl.pages
  && ((idx >= tbl.own_lo && idx <= tbl.own_hi) || Memory.page_own mem addr)

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
    if t.last_page != tbl.empty_page && (t.last_own || not (owns tbl t.mem t.last_idx addr)) then
      t.last_page
    else begin
      (* No record yet, or the family's for a page this table owns.
         Another view may have made the record since [select]. *)
      let own = owns tbl t.mem t.last_idx addr in
      let pages = if own then tbl.pages else tbl.shared in
      let p = record_in tbl pages t.last_idx in
      let p =
        if p != tbl.empty_page then p
        else begin
          let p = { chunks = Array.make chunks_per_page tbl.empty_chunk; refills = 0 } in
          Int_table.add pages t.last_idx p;
          p
        end
      in
      t.last_page <- p;
      t.last_own <- own || tbl.shared == tbl.pages;
      p
    end
  in
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
  let page = if idx = t.last_idx then t.last_page else page_at t.table idx in
  let off = addr land (Memory.page_size - 1) in
  page.chunks.(off lsr chunk_bits).(off land chunk_mask)

let cell t = t.last_cell
let refills t = t.last_page.refills
let credit t n = t.table.hits <- t.table.hits + n

let credit_loop t ~iterations ~hits =
  t.table.summarised <- t.table.summarised + iterations;
  t.table.hits <- t.table.hits + hits
