(** Sparse, paged, byte-addressable 32-bit memory with per-page permissions.

    This is the substrate every simulated machine runs on.  Memory is mapped
    in named regions ({i segments}), each carrying read/write/execute
    permissions.  Accessing unmapped memory, or violating a permission,
    raises {!Fault} — exactly the signal a real MMU delivers as SIGSEGV,
    and the mechanism by which both the paper's denial-of-service outcome
    and the W⊕X defense are realised in this reproduction. *)

type perm = { read : bool; write : bool; execute : bool }

val r : perm
val rw : perm
val rx : perm
val rwx : perm
val none : perm

val pp_perm : Format.formatter -> perm -> unit
(** Renders like [r-x]. *)

type fault_kind =
  | Unmapped  (** access to an address with no backing page *)
  | Perm_read  (** read from a non-readable page *)
  | Perm_write  (** write to a non-writable page *)
  | Perm_exec  (** instruction fetch from a non-executable page (NX / W⊕X) *)

type fault = { addr : int; kind : fault_kind; context : string }

exception Fault of fault

val pp_fault : Format.formatter -> fault -> unit
val fault_to_string : fault -> string

type region = { name : string; base : int; size : int; perm : perm }

type t

val create : unit -> t
(** A fresh, fully unmapped address space. *)

val set_trace : t -> Telemetry.Trace.t option -> unit
(** Attach (or detach with [None]) a telemetry sink.  With a sink
    attached, faults and mapping changes ({!map}, {!unmap},
    {!set_perm}) emit events under category ["mem"].  These are all
    cold paths: the per-byte accessors' hit paths never consult the
    sink, so a detached trace costs nothing. *)

val trace : t -> Telemetry.Trace.t option

val page_size : int
(** 4096, as on the paper's targets. *)

val page_bits : int
(** [log2 page_size] = 12. *)

val page_gen : t -> int -> int
(** Write generation of the page containing the address, or [-1] if no
    page is mapped there.  Every generation is drawn from one counter
    shared by all address spaces, so a value names exactly one (bytes,
    permission) page state wherever it appears: a page's generation
    changes on every byte store ({!write_u8}, {!write_u16},
    {!write_u32}, {!write_bytes}, {!poke_bytes}) and on every
    permission change ({!set_perm}), a page remapped after {!unmap}
    starts at a fresh value, and {!fork} gives each page the generation
    of the frame whose bytes it shares.  This is the invalidation signal
    for decoded-instruction caches ({!Icache}): a cached decode is valid
    in a memory iff that memory's page(s) still carry the generations it
    was filled under.  Live pages always carry a value [>= 1]. *)

val generation : unit -> int
(** The last generation drawn, by any memory: every generation a memory
    draws from now on is greater. *)

val gen_ref : t -> int -> int ref
(** The generation cell of the page containing the address (the cell
    {!page_gen} reads), for decode caches to re-read with a direct load
    — no call back into this module on the hit path.  Each page lifetime
    has its own cell, and {!unmap} and {!restore} retire the value of a
    cell whose page they drop, so a stale cell never again holds a value
    an entry was filled under.  For an unmapped address it returns a
    shared cell that always holds [-1].  Callers must not store to the
    cell. *)

val map : t -> base:int -> size:int -> perm:perm -> name:string -> unit
(** Map a zero-filled region.  [base] and [size] are rounded outward to page
    boundaries for permission purposes, but the region record keeps the
    exact values.  Overlapping an existing mapping raises
    [Invalid_argument].  The new pages share one all-zero buffer
    copy-on-write, so a page costs a buffer only once it is written. *)

val unmap : t -> base:int -> unit
(** Remove the region whose [base] matches exactly.  Raises
    [Invalid_argument] naming the base if no such region exists. *)

val set_perm : t -> base:int -> perm -> unit
(** Change the permissions of the region starting at [base] (an [mprotect]
    analogue).  Raises [Invalid_argument] naming the base if no region
    starts there. *)

val regions : t -> region list
(** All mapped regions, sorted by base address. *)

val region_at : t -> int -> region option
(** The region containing the given address, if any. *)

val find_region : t -> string -> region
(** Region by name.  Raises [Invalid_argument] naming the region if no
    region carries that name. *)

val is_mapped : t -> int -> bool

(** {1 Typed access}

    All multi-byte accessors are little-endian, as on both x86 and the
    (little-endian-configured) ARMv7 targets of the paper. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val write_u16 : t -> int -> int -> unit
(** Multi-byte writes are atomic with respect to faults: every page the
    span touches is validated (mapped and writable) before any byte is
    committed, so a page-spanning write into a bad page leaves no partial
    write behind.  The fault reports the lowest offending address. *)

val write_u32 : t -> int -> int -> unit

val fetch_u8 : t -> int -> int
(** Like {!read_u8} but requires execute permission — the instruction-fetch
    path. *)

val fetch_u32 : t -> int -> int

val read_bytes : t -> int -> int -> string
(** [read_bytes m addr len] — raises {!Fault} on the first offending byte. *)

val write_bytes : t -> int -> string -> unit
(** Atomic like {!write_u32}: all touched pages are validated before any
    byte is committed. *)

val copy_forward : t -> src:int -> dst:int -> int -> int
(** [copy_forward t ~src ~dst n] leaves memory, page generations and the
    generation counter as [n >= 1] rounds of
    [write_u8 t (dst + i) (read_u8 t (src + i))], [i = 0 … n-1], leave
    them when none of them faults: the bytes go forward one at a time (an
    overlap replicates), a frozen dst page is unshared and noted for
    restore once, and the dst page's generation is the last of [n] fresh
    ones.  Returns the last byte copied, or [-1], with nothing changed,
    when the src page is unmapped or unreadable or the dst page unmapped
    or unwritable (the first round would fault).  Each span must lie in
    one page; raises [Invalid_argument] otherwise. *)

val read_cstring : t -> ?max:int -> int -> string
(** Read a NUL-terminated string (at most [max] bytes, default 4096). *)

val peek_bytes : t -> int -> int -> string
(** Permission-blind read for debugger-style inspection ([gdb] analogue).
    Still faults on unmapped pages. *)

val poke_bytes : t -> int -> string -> unit
(** Permission-blind write, used by the loader to populate read-only
    segments.  Atomic with respect to unmapped pages (all pages checked
    before any byte lands) and bumps the write generation of every
    touched page, like {!write_bytes}. *)

val rewrite : t -> base:int -> size:int -> (Bytes.t -> int -> bool) -> bool
(** [rewrite t ~base ~size f] gives the [size] bytes at [base] new
    contents, as {!poke_bytes} of them would (permissions ignored, a
    fresh generation on every page touched), without the contents ever
    being a string: [f buf pos] writes all of [buf]'s bytes
    [\[pos, pos + size)] and returns [true] to commit them, or [false]
    to leave memory unchanged (the result of [rewrite]).  When the range
    lies in one page, [buf] is the private buffer the page takes next, so
    the bytes land in place with no copy (the loader lays a text page out
    straight into it).  Raises [Fault] ([Unmapped], at the lowest
    unmapped address) before calling [f] if a page of the range is
    unmapped; if [f] raises, memory is unchanged. *)

(** {1 Copy-on-write snapshots}

    A {!snapshot} captures the full machine memory — page contents,
    permissions, region table — in O(pages) time with {e zero} byte
    copying: every live page is frozen and its buffer shared with the
    snapshot.  The store paths transparently unshare (copy) a frozen
    page on the first subsequent write, so the mutator pays one
    page-copy per dirtied page and untouched pages cost nothing.  A
    snapshot of a memory that has not changed since its last one costs
    O(1): it is that snapshot again (see {!snapshot}).

    Generation interaction (the {!Icache} contract): there is one
    generation counter for every address space, and a generation names
    one (bytes, permission) page state.  {!restore} never rewinds the
    counter: pages dirtied since the snapshot get a {e fresh} generation
    when their bytes are swapped back, forcing decode caches to
    re-validate, while pages never written keep theirs.  {!fork} starts
    each page at the generation its frame was captured with.  So cached
    decodes of text pages survive arbitrarily many restores and are
    valid in every fork — one decode cache can serve the whole family.
    Multiple snapshots of the same memory, and restores in any order,
    are supported.

    The counter is a plain global: memories must only be used from one
    domain.  Using memories from several domains would need it atomic,
    or per-domain disjoint ranges. *)

type snapshot

val snapshot : t -> snapshot
(** Capture current memory state.  Freezes all live pages (subsequent
    writes to this memory copy-on-write).

    The memory keeps the last snapshot it took, and while nothing has
    changed it since, [snapshot] returns that same value (physically
    equal) in O(1): a template forked again and again builds its frames
    once.  What drops the standing snapshot, so the next call builds a
    fresh one: the first store, poke or {!copy_forward} into a page
    after it (they unshare the page), {!map}, {!unmap}, {!set_perm} and
    {!restore}.  A {!fork} starts without one.  Either way the call
    emits its trace event and disarms the dirty path of {!restore}. *)

val restore : t -> snapshot -> unit
(** Rewind memory to the snapshot: page contents, permissions, and the
    region table.  The snapshot remains valid and may be restored again.

    When this memory's previous restore was to the same snapshot and no
    {!map}, {!unmap}, {!set_perm} or {!snapshot} has run on it since —
    the restore-per-exec loop of a snapshot fuzzer — the cost is
    proportional to the pages written since that restore.  Any other
    restore (a different snapshot, the first one after a {!snapshot} or
    {!fork}, or after a region-table change) scans every page the
    snapshot pins.  Either way, the private page buffers a restore
    displaces are reused by later copy-on-write stores of this memory,
    so a steady restore loop allocates no page buffers. *)

val fork : snapshot -> t
(** A fresh, independent memory whose initial state is the snapshot.
    Shares page buffers copy-on-write with the snapshot (and with any
    other fork of it); no trace sink is attached.  Each page starts at
    the generation its frame was captured with — the generation names
    exactly the frame's bytes and permissions — so decode caches filled
    by the parent or by any sibling fork stay valid for the pages this
    fork has not written.  Its own writes draw fresh generations from
    the shared counter, so they can never collide with a sibling's. *)

val snapshot_pages : snapshot -> int
(** Number of pages the snapshot pins. *)

val hexdump : t -> base:int -> len:int -> string
(** Conventional 16-bytes-per-line hex + ASCII dump (inspection only). *)

val pp_layout : Format.formatter -> t -> unit
(** One line per region: base, end, perms, name. *)
