type perm = { read : bool; write : bool; execute : bool }

let r = { read = true; write = false; execute = false }
let rw = { read = true; write = true; execute = false }
let rx = { read = true; write = false; execute = true }
let rwx = { read = true; write = true; execute = true }
let none = { read = false; write = false; execute = false }

let pp_perm ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

type fault_kind = Unmapped | Perm_read | Perm_write | Perm_exec
type fault = { addr : int; kind : fault_kind; context : string }

exception Fault of fault

let fault_kind_to_string = function
  | Unmapped -> "unmapped"
  | Perm_read -> "read-protected"
  | Perm_write -> "write-protected"
  | Perm_exec -> "exec-protected (NX)"

let pp_fault ppf f =
  Format.fprintf ppf "memory fault at %a: %s (%s)" Word.pp f.addr
    (fault_kind_to_string f.kind)
    f.context

let fault_to_string f = Format.asprintf "%a" pp_fault f

type region = { name : string; base : int; size : int; perm : perm }

(* [gen] is the page's write generation.  Every mutation of the page's
   bytes — and every permission change — stores a fresh value drawn from
   one monotonic counter shared by every address space ([gen_counter]
   below), and {!fork} gives each page the generation of the frame it
   shares.  So a generation value names exactly one (bytes, permission)
   page state, in any memory it appears in: never reused across page
   lifetimes, writes, or address spaces.  Decoded-instruction caches
   ({!Icache}) validate against it, which is what lets one cache serve a
   whole fork family.

   The generation lives in a heap cell ([int ref]) rather than a mutable
   field so {!gen_ref} can hand the cell itself to a decode cache: entry
   validation is then a direct load + compare with no call back into this
   module — it runs once per interpreted instruction.

   [frozen] is the copy-on-write bit: while set, [data] may be shared
   with one or more {!snapshot} frames and must not be mutated in place.
   Every byte-store path calls {!unshare} first, which swaps in a private
   copy of the buffer and clears the bit.  The invariant the snapshot
   layer relies on: a [Bytes.t] reachable from a snapshot frame is never
   written again. *)
type page = {
  mutable pperm : perm;
  mutable data : Bytes.t;
  gen : int ref;
  mutable frozen : bool;
}

let page_size = 4096
let page_bits = 12
let offset_mask = page_size - 1

(* The restore side of copy-on-write; see the section at {!snapshot}.
   A frame pins one page's state at snapshot time, and a snapshot's
   frames are sorted by page index. *)
type frame = {
  f_idx : int;
  f_page : page;  (* identity of the record frozen at snapshot time *)
  f_data : Bytes.t;
  f_perm : perm;
  f_gen : int;
}

type snapshot = { s_frames : frame array; s_regs : region list }

(* The last page one access kind hit: the interpreters touch the same
   text / stack / data page over and over, so a one-entry cache turns the
   per-byte table probe into an int compare + field load. *)
type slot = { mutable idx : int; mutable pg : page }

type t = {
  pages : page Int_table.t;
  mutable regs : region list;
  (* One slot per access kind (read and peek, write and poke, fetch),
     filled by {!cached} and reset by {!invalidate_page_caches} whenever
     a page leaves the table ([unmap], [restore]). *)
  rd : slot;
  wr : slot;
  fx : slot;
  (* [armed] is the snapshot this memory was last restored to, or
     [unarmed]; while armed, [dirty] lists every page unshared since
     (each once).  [spare] holds private buffers restore displaced, for
     the next unshare or map to reuse. *)
  mutable armed : snapshot;
  mutable dirty : int list;
  mutable spare : Bytes.t list;
  (* [standing] is the last snapshot {!snapshot} built, or [unarmed]
     once anything has changed the memory since: {!unshare} (the first
     store to a page after a snapshot), {!disarm} ([map], [unmap],
     [set_perm]) and {!restore} drop it. *)
  mutable standing : snapshot;
  (* Telemetry sink, [None] in normal operation.  Faults and mapping
     changes are cold paths, so the option check never touches the
     per-byte accessors' hit paths. *)
  mutable trace : Telemetry.Trace.t option;
}

(* What a lookup of an unmapped index returns, and what an empty slot
   holds: its [none] permissions fail every access check, and its cell is
   the generation {!gen_ref} reports for an unmapped address.  It is never
   in a page table, so nothing ever stores to it. *)
let null_page = { pperm = none; data = Bytes.empty; gen = ref (-1); frozen = false }

(* The buffer every freshly mapped page starts frozen on: a mapping
   allocates no bytes, and a page gets a private copy on its first store
   like any other frozen page.  Frozen buffers are never written, so it
   stays all zeros.  A boot leaves most of its stack, heap and .bss
   unwritten and holds buffers only for the pages it writes. *)
let zero_page = Bytes.make page_size '\000'

(* Never restored to: no snapshot is physically this record. *)
let unarmed = { s_frames = [||]; s_regs = [] }

let disarm t =
  t.armed <- unarmed;
  t.dirty <- [];
  t.standing <- unarmed

(* A page-sized buffer only this memory holds: a spare if there is one,
   else a fresh allocation.  Its contents are garbage.  Every private
   buffer comes from here, so [spare] never holds more buffers than the
   most pages this memory has had private at one time. *)
let private_buffer t =
  match t.spare with
  | b :: rest ->
      t.spare <- rest;
      b
  | [] -> Bytes.create page_size

(* Cold path of the copy-on-write protocol: give page [idx] a private
   copy of its buffer before the first mutation after a map, snapshot
   or restore, and note it for the next restore.  Kept out-of-line so the
   store hot paths pay only the [frozen] test. *)
let[@inline never] unshare t idx p =
  let b = private_buffer t in
  Bytes.blit p.data 0 b 0 page_size;
  p.data <- b;
  p.frozen <- false;
  t.standing <- unarmed;
  if t.armed != unarmed then t.dirty <- idx :: t.dirty

(* The one generation counter behind every address space.  A plain
   global is sound because memories are only ever touched from a single
   domain; using memories from several domains would need an [Atomic.t]
   here (or per-domain disjoint ranges). *)
let gen_counter = ref 0

let fresh_gen () =
  incr gen_counter;
  !gen_counter

let generation () = !gen_counter

let empty_slot () = { idx = -1; pg = null_page }

let create () =
  {
    pages = Int_table.create 64;
    regs = [];
    rd = empty_slot ();
    wr = empty_slot ();
    fx = empty_slot ();
    armed = unarmed;
    dirty = [];
    spare = [];
    standing = unarmed;
    trace = None;
  }

let set_trace t tr = t.trace <- tr
let trace t = t.trace

let page_index addr = addr lsr page_bits

let fault t addr kind context =
  (match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "fault"
        ~args:
          [
            ("addr", Telemetry.Trace.I addr);
            ("kind", Telemetry.Trace.S (fault_kind_to_string kind));
            ("context", Telemetry.Trace.S context);
          ]);
  raise (Fault { addr; kind; context })

let reset_slot s =
  s.idx <- -1;
  s.pg <- null_page

let invalidate_page_caches t =
  reset_slot t.rd;
  reset_slot t.wr;
  reset_slot t.fx

let page_range ~base ~size =
  let first = page_index base and last = page_index (base + size - 1) in
  (first, last)

let trace_region t name reg =
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" name
        ~args:
          [
            ("name", Telemetry.Trace.S reg.name);
            ("base", Telemetry.Trace.I reg.base);
            ("size", Telemetry.Trace.I reg.size);
            ("perm", Telemetry.Trace.S (Format.asprintf "%a" pp_perm reg.perm));
          ]

let map t ~base ~size ~perm ~name =
  if size <= 0 then invalid_arg "Memory.map: size must be positive";
  if base < 0 || base + size > 0x1_0000_0000 then
    invalid_arg "Memory.map: region outside 32-bit address space";
  let first, last = page_range ~base ~size in
  for i = first to last do
    if Int_table.mem t.pages i then
      invalid_arg
        (Printf.sprintf "Memory.map: %s overlaps existing mapping at page %s"
           name
           (Word.to_hex (i lsl page_bits)))
  done;
  for i = first to last do
    Int_table.replace t.pages i { pperm = perm; data = zero_page; gen = ref (fresh_gen ()); frozen = true }
  done;
  let reg = { name; base; size; perm } in
  t.regs <- reg :: t.regs;
  disarm t;
  trace_region t "map" reg

let region_at_base t base context =
  match List.find_opt (fun reg -> reg.base = base) t.regs with
  | Some reg -> reg
  | None ->
      invalid_arg
        (Printf.sprintf "Memory.%s: no region mapped at %s" context
           (Word.to_hex base))

let unmap t ~base =
  let reg = region_at_base t base "unmap" in
  let first, last = page_range ~base ~size:reg.size in
  for i = first to last do
    (match Int_table.find_opt t.pages i with
    (* Retire the page's generation so any decode-cache entry filled from
       it can never validate again, even if the page object leaks through
       a stale reference. *)
    | Some p -> p.gen := fresh_gen ()
    | None -> ());
    Int_table.remove t.pages i
  done;
  t.regs <- List.filter (fun reg -> reg.base <> base) t.regs;
  disarm t;
  invalidate_page_caches t;
  trace_region t "unmap" reg

let set_perm t ~base perm =
  let reg = region_at_base t base "set_perm" in
  let first, last = page_range ~base ~size:reg.size in
  for i = first to last do
    match Int_table.find_opt t.pages i with
    | Some p ->
        p.pperm <- perm;
        (* Permission changes must also invalidate decode caches: a cached
           instruction was admitted under the old execute bit. *)
        p.gen := fresh_gen ()
    | None -> ()
  done;
  t.regs <-
    List.map
      (fun r0 -> if r0.base = base then { r0 with perm } else r0)
      t.regs;
  disarm t;
  trace_region t "set_perm" { reg with perm }

let regions t = List.sort (fun a b -> compare a.base b.base) t.regs

let region_at t addr =
  List.find_opt (fun reg -> addr >= reg.base && addr < reg.base + reg.size) t.regs

let find_region t name =
  match List.find_opt (fun reg -> reg.name = name) t.regs with
  | Some reg -> reg
  | None -> invalid_arg ("Memory.find_region: no region named " ^ name)

(* The page at index [idx], or [null_page]. *)
let page_at t idx =
  Int_table.find_or t.pages idx ~default:null_page

let is_mapped t addr = page_at t (page_index addr) != null_page

(* The one page lookup of the byte accessors: the page at [idx] through
   the access kind's [slot], which keeps the last mapped page it found.
   An unmapped index gives [null_page] and leaves the slot alone. *)
let[@inline] cached t slot idx =
  if idx = slot.idx then slot.pg
  else begin
    let p = page_at t idx in
    if p != null_page then begin
      slot.idx <- idx;
      slot.pg <- p
    end;
    p
  end

(* The page of [addr], or an [Unmapped] fault carrying [context] for
   diagnostics.  [addr] must already be masked to 32 bits. *)
let[@inline] mapped_page t slot addr context =
  let p = cached t slot (addr lsr page_bits) in
  if p == null_page then fault t addr Unmapped context;
  p

let read_page t addr = mapped_page t t.rd addr "read"
let write_page t addr context = mapped_page t t.wr addr context
let fetch_page t addr = mapped_page t t.fx addr "fetch"
let peek_page t addr = mapped_page t t.rd addr "peek"
let page_gen t addr = !((page_at t (page_index (Word.of_int addr))).gen)

(* The page's generation cell itself, for decode caches to re-read
   without a call: [map] creates a fresh cell per page, and [unmap] and
   [restore] retire the value of a cell whose page they drop, so a stale
   cell never again holds a value an entry was filled under.  An
   unmapped address gets [null_page]'s cell, which holds -1 forever. *)
let gen_ref t addr = (page_at t (page_index (Word.of_int addr))).gen

let read_u8 t addr =
  let addr = Word.of_int addr in
  let p = read_page t addr in
  if not p.pperm.read then fault t addr Perm_read "read";
  Char.code (Bytes.unsafe_get p.data (addr land offset_mask))

let write_u8 t addr v =
  let addr = Word.of_int addr in
  let p = write_page t addr "write" in
  if not p.pperm.write then fault t addr Perm_write "write";
  if p.frozen then unshare t (addr lsr page_bits) p;
  p.gen := fresh_gen ();
  Bytes.unsafe_set p.data (addr land offset_mask) (Char.unsafe_chr (v land 0xFF))

let fetch_u8 t addr =
  let addr = Word.of_int addr in
  let p = fetch_page t addr in
  if not p.pperm.execute then fault t addr Perm_exec "fetch";
  Char.code (Bytes.unsafe_get p.data (addr land offset_mask))

(* Multi-byte reads bind bytes in ascending order: the lowest offending
   address must be the one reported in a fault.  The aligned-within-a-page
   common case reads straight out of the page buffer. *)

let read_u16 t addr =
  let b0 = read_u8 t addr in
  let b1 = read_u8 t (addr + 1) in
  b0 lor (b1 lsl 8)

let read_u32 t addr =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = read_page t a in
    if not p.pperm.read then fault t a Perm_read "read";
    let d = p.data in
    Char.code (Bytes.unsafe_get d off)
    lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24)
  end
  else begin
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

(* Multi-byte writes are not torn: every page the span touches is
   validated (mapped + writable) before any byte is committed, so a write
   that faults leaves memory untouched.  Validation walks the span in
   ascending order, one probe per page, which also makes the reported
   fault address the lowest offending one (the first byte of the span
   that lands in the bad page). *)
let check_write_span t addr len context =
  let i = ref 0 in
  while !i < len do
    let a = Word.of_int (addr + !i) in
    if not (write_page t a context).pperm.write then fault t a Perm_write context;
    i := !i + (page_size - (a land offset_mask))
  done

let write_u16 t addr v =
  check_write_span t addr 2 "write";
  write_u8 t addr (v land 0xFF);
  write_u8 t (addr + 1) ((v lsr 8) land 0xFF)

let write_u32 t addr v =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = write_page t a "write" in
    if not p.pperm.write then fault t a Perm_write "write";
    if p.frozen then unshare t (a lsr page_bits) p;
    p.gen := fresh_gen ();
    let d = p.data in
    Bytes.unsafe_set d off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set d (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set d (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set d (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  end
  else begin
    check_write_span t addr 4 "write";
    write_u8 t addr (v land 0xFF);
    write_u8 t (addr + 1) ((v lsr 8) land 0xFF);
    write_u8 t (addr + 2) ((v lsr 16) land 0xFF);
    write_u8 t (addr + 3) ((v lsr 24) land 0xFF)
  end

let fetch_u32 t addr =
  let a = Word.of_int addr in
  let off = a land offset_mask in
  if off <= page_size - 4 then begin
    let p = fetch_page t a in
    if not p.pperm.execute then fault t a Perm_exec "fetch";
    let d = p.data in
    Char.code (Bytes.unsafe_get d off)
    lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24)
  end
  else begin
    let b0 = fetch_u8 t addr in
    let b1 = fetch_u8 t (addr + 1) in
    let b2 = fetch_u8 t (addr + 2) in
    let b3 = fetch_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let read_bytes t addr len =
  String.init len (fun i -> Char.chr (read_u8 t (addr + i)))

let write_bytes t addr s =
  let len = String.length s in
  if len > 0 then begin
    check_write_span t addr len "write";
    (* Committed page-at-a-time: one generation bump and one blit per
       touched page. *)
    let i = ref 0 in
    while !i < len do
      let a = Word.of_int (addr + !i) in
      let off = a land offset_mask in
      let chunk = min (len - !i) (page_size - off) in
      let p = write_page t a "write" in
      if p.frozen then unshare t (a lsr page_bits) p;
      p.gen := fresh_gen ();
      Bytes.blit_string s !i p.data off chunk;
      i := !i + chunk
    done
  end

(* The bulk form of [n] rounds of [write_u8 (dst + i) (read_u8 (src + i))]
   inside one page each: forward byte by byte, so an overlap replicates
   as the rounds would, and the dst page draws the [n] generations the
   rounds draw.  The src page's buffer is taken after the dst page is
   unshared, so a copy within one page reads the private copy. *)
let copy_forward t ~src ~dst n =
  let src = Word.of_int src and dst = Word.of_int dst in
  let soff = src land offset_mask and doff = dst land offset_mask in
  if n < 1 || soff + n > page_size || doff + n > page_size then
    invalid_arg "Memory.copy_forward: a span leaves its page";
  (* An unmapped page is [null_page], which neither reads nor writes. *)
  let dp = page_at t (dst lsr page_bits) and sp = page_at t (src lsr page_bits) in
  if not (dp.pperm.write && sp.pperm.read) then -1
  else begin
    if dp.frozen then unshare t (dst lsr page_bits) dp;
    let s = sp.data and d = dp.data in
    for i = 0 to n - 1 do
      Bytes.unsafe_set d (doff + i) (Bytes.unsafe_get s (soff + i))
    done;
    gen_counter := !gen_counter + n;
    dp.gen := !gen_counter;
    Char.code (Bytes.unsafe_get d (doff + n - 1))
  end

let read_cstring t ?(max = 4096) addr =
  let buf = Buffer.create 16 in
  let rec loop i =
    if i >= max then Buffer.contents buf
    else
      match read_u8 t (addr + i) with
      | 0 -> Buffer.contents buf
      | c ->
          Buffer.add_char buf (Char.chr c);
          loop (i + 1)
  in
  loop 0

let peek_u8 t addr =
  let addr = Word.of_int addr in
  Char.code (Bytes.unsafe_get (peek_page t addr).data (addr land offset_mask))

(* Page-at-a-time; the first byte of the first unmapped page is the
   lowest unmapped address, as a byte-at-a-time read would report. *)
let peek_bytes t addr len =
  let out = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = Word.of_int (addr + !i) in
    let off = a land offset_mask in
    let chunk = min (len - !i) (page_size - off) in
    Bytes.blit (peek_page t a).data off out !i chunk;
    i := !i + chunk
  done;
  Bytes.unsafe_to_string out

(* Like {!write_bytes}, pokes are not torn: all pages are checked mapped
   before any byte lands (permissions are deliberately ignored — this is
   the loader populating read-only segments). *)
let check_mapped t addr len =
  let i = ref 0 in
  while !i < len do
    let a = Word.of_int (addr + !i) in
    ignore (write_page t a "poke");
    i := !i + (page_size - (a land offset_mask))
  done

let poke_bytes t addr s =
  let len = String.length s in
  if len > 0 then begin
    check_mapped t addr len;
    let i = ref 0 in
    while !i < len do
      let a = Word.of_int (addr + !i) in
      let off = a land offset_mask in
      let chunk = min (len - !i) (page_size - off) in
      let p = write_page t a "poke" in
      if p.frozen then unshare t (a lsr page_bits) p;
      p.gen := fresh_gen ();
      Bytes.blit_string s !i p.data off chunk;
      i := !i + chunk
    done
  end

(* A range inside one page is written straight into the buffer the page
   takes next — a spare or a fresh one, never the old buffer, whose
   bytes are needed only outside the range — so a whole-page rewrite of
   a frozen page costs no copy, and an [f] that declines or raises
   leaves the page as it was.  A longer range goes through a string and
   {!poke_bytes}. *)
let rewrite t ~base ~size f =
  if size <= 0 then true
  else begin
    check_mapped t base size;
    let base = Word.of_int base in
    let off = base land offset_mask in
    if off + size > page_size then begin
      let b = Bytes.create size in
      f b 0
      && begin
           poke_bytes t base (Bytes.unsafe_to_string b);
           true
         end
    end
    else begin
      let idx = base lsr page_bits in
      let p = page_at t idx in
      let b = private_buffer t in
      match f b off with
      | false ->
          t.spare <- b :: t.spare;
          false
      | exception e ->
          t.spare <- b :: t.spare;
          raise e
      | true ->
          Bytes.blit p.data 0 b 0 off;
          Bytes.blit p.data (off + size) b (off + size) (page_size - off - size);
          if p.frozen then begin
            p.frozen <- false;
            t.standing <- unarmed;
            if t.armed != unarmed then t.dirty <- idx :: t.dirty
          end
          else t.spare <- p.data :: t.spare;
          p.data <- b;
          p.gen := fresh_gen ();
          true
    end
  end

(* {1 Copy-on-write snapshots}

   A snapshot is an immutable array of per-page frames, each pinning the
   page's buffer ([Bytes.t], shared — never copied at snapshot time), its
   permissions, and the generation the page carried when the snapshot was
   taken.  Taking a snapshot freezes every live page; the store paths
   unshare on the first subsequent write, so snapshot cost is O(pages)
   with zero byte copying.  The memory keeps the last snapshot it built
   as [standing] until something changes it, and a snapshot of an
   unchanged memory is that one again, in O(1): a template forked over
   and over builds its frames once.

   Restore takes one of two paths.  The dirty path runs when the memory
   was last restored to this same snapshot (physical identity) and
   nothing since has disarmed it: that restore left every page frozen on
   its frame's buffer, so the only pages that can differ are the ones
   {!unshare} noted in [dirty], and restore costs what the last run
   dirtied.  Everything that could break that — {!map}, {!unmap},
   {!set_perm} (a changed region table) and {!snapshot} (which re-freezes
   pages) — disarms.  Every other restore (a different snapshot, the
   first restore after a snapshot or fork, a changed region table) scans
   every frame; the scan is the general path and the reference.  Either
   way, the restore arms the memory for the snapshot it restored.

   Restore also keeps the private buffers it displaces on [spare], and
   {!unshare} takes its buffer from there before allocating, so a
   fuzzing loop stops copying fresh pages into the major heap.

   The invariants every path keeps:
   - A dirtied page comes back under a {e fresh} generation and an
     untouched page keeps its own.  Restore never rewinds [gen_counter]:
     decode caches ({!Icache}) filled against the dirty bytes must
     re-validate, while entries for never-written text pages survive
     restores.  A fork starts every page at its frame's generation (the
     frame's bytes and permissions are the state that generation names),
     so those entries are valid in every fork of the snapshot; that is
     what makes snapshot fuzzing and forked fleets cheap.
   - A frozen buffer may be reachable from a snapshot frame, so it is
     never written and never recycled: only the buffer of a page that is
     not frozen, which no frame and no other page can reach, goes to
     [spare].
   - A fork never receives a buffer it does not own: it starts with its
     pages frozen on the frames' buffers, an empty [spare] and no dirty
     list, and it is not armed.
   - {!Shadow} snapshots are deep copies with their own restore; nothing
     here touches them. *)

let build_snapshot t =
  let frames =
    Int_table.fold
      (fun idx p acc ->
        p.frozen <- true;
        { f_idx = idx; f_page = p; f_data = p.data; f_perm = p.pperm; f_gen = !(p.gen) }
        :: acc)
      t.pages []
  in
  let arr = Array.of_list frames in
  Array.sort (fun a b -> compare a.f_idx b.f_idx) arr;
  { s_frames = arr; s_regs = t.regs }

(* The standing snapshot, when there is one, is what [build_snapshot]
   would build now: every page is still the record it froze, frozen on
   the same buffer, with the same permissions and generation, and the
   region list is the same list. *)
let snapshot t =
  let snap = if t.standing != unarmed then t.standing else build_snapshot t in
  disarm t;
  t.standing <- snap;
  (match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "snapshot"
        ~args:[ ("pages", Telemetry.Trace.I (Array.length snap.s_frames)) ]);
  snap

let snapshot_pages s = Array.length s.s_frames

(* Put page [p] back on frame [f] under a fresh generation, keeping the
   buffer it displaces if nothing else can reach it. *)
let reset_page t p f =
  if not p.frozen then t.spare <- p.data :: t.spare;
  p.data <- f.f_data;
  p.frozen <- true;
  p.pperm <- f.f_perm;
  p.gen := fresh_gen ()

(* The frame of page [idx], which an armed memory's snapshot has. *)
let frame_of snap idx =
  let rec go lo hi =
    if lo > hi then invalid_arg "Memory.restore: dirty page outside the snapshot";
    let mid = (lo + hi) lsr 1 in
    let f = snap.s_frames.(mid) in
    if f.f_idx = idx then f else if f.f_idx < idx then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length snap.s_frames - 1)

let restore_dirty t snap =
  List.fold_left
    (fun n idx ->
      reset_page t (Int_table.find t.pages idx) (frame_of snap idx);
      n + 1)
    0 t.dirty

let restore_scan t snap =
  (* Drop pages mapped after the snapshot was taken, retiring their
     generations so stale decode-cache entries can never re-validate.
     [map]/[unmap]/[set_perm] all replace the region list, so physical
     equality with the snapshot's list proves the page table's shape is
     unchanged and the scan can be skipped. *)
  (if t.regs != snap.s_regs then begin
     let keep = Int_table.create (Array.length snap.s_frames) in
     Array.iter (fun f -> Int_table.replace keep f.f_idx ()) snap.s_frames;
     let stale =
       Int_table.fold
         (fun idx p acc -> if Int_table.mem keep idx then acc else (idx, p) :: acc)
         t.pages []
     in
     List.iter
       (fun (idx, p) ->
         p.gen := fresh_gen ();
         Int_table.remove t.pages idx)
       (List.sort compare stale)
   end);
  let dirty = ref 0 in
  Array.iter
    (fun f ->
      match Int_table.find_opt t.pages f.f_idx with
      | Some p when p == f.f_page && !(p.gen) = f.f_gen ->
          (* Untouched since the snapshot: nothing to do, and crucially
             the generation is preserved so decode-cache entries filled
             from this page stay valid across the restore. *)
          ()
      | Some p when p.frozen && p.data == f.f_data && p.pperm = f.f_perm ->
          (* Already carrying the snapshot's buffer (e.g. restored before
             and not written since).  Bytes are identical by the frozen
             invariant; skip the gen bump. *)
          ()
      | Some p ->
          incr dirty;
          reset_page t p f
      | None ->
          incr dirty;
          Int_table.replace t.pages f.f_idx
            {
              pperm = f.f_perm;
              data = f.f_data;
              gen = ref (fresh_gen ());
              frozen = true;
            })
    snap.s_frames;
  t.regs <- snap.s_regs;
  !dirty

let restore t snap =
  let dirty = if t.armed == snap then restore_dirty t snap else restore_scan t snap in
  t.armed <- snap;
  t.dirty <- [];
  t.standing <- unarmed;
  invalidate_page_caches t;
  match t.trace with
  | None -> ()
  | Some tr ->
      Telemetry.Trace.emit tr ~cat:"mem" ~track:"memory" "restore"
        ~args:
          [
            ("pages", Telemetry.Trace.I (Array.length snap.s_frames));
            ("dirty", Telemetry.Trace.I dirty);
          ]

let fork snap =
  let t = create () in
  (* A snapshot has one frame per page index. *)
  Array.iter
    (fun f ->
      Int_table.add t.pages f.f_idx
        { pperm = f.f_perm; data = f.f_data; gen = ref f.f_gen; frozen = true })
    snap.s_frames;
  t.regs <- snap.s_regs;
  t

let hexdump t ~base ~len =
  let buf = Buffer.create (len * 4) in
  let lines = (len + 15) / 16 in
  for line = 0 to lines - 1 do
    let addr = base + (line * 16) in
    Buffer.add_string buf (Printf.sprintf "%08x  " addr);
    for i = 0 to 15 do
      if (line * 16) + i < len then
        Buffer.add_string buf (Printf.sprintf "%02x " (peek_u8 t (addr + i)))
      else Buffer.add_string buf "   ";
      if i = 7 then Buffer.add_char buf ' '
    done;
    Buffer.add_string buf " |";
    for i = 0 to 15 do
      if (line * 16) + i < len then begin
        let c = peek_u8 t (addr + i) in
        Buffer.add_char buf (if c >= 0x20 && c < 0x7F then Char.chr c else '.')
      end
    done;
    Buffer.add_string buf "|\n"
  done;
  Buffer.contents buf

let pp_layout ppf t =
  List.iter
    (fun reg ->
      Format.fprintf ppf "%a-%a %a %s@." Word.pp reg.base Word.pp
        (reg.base + reg.size) pp_perm reg.perm reg.name)
    (regions t)
