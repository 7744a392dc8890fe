(** Write-invalidated decoded-instruction cache over {!Memory}, shared by
    a fork family.

    Shared by both interpreters (the cached value type ['a] is the ISA's
    instruction type).  The cache is split in two:

    - a {!table} of decoded entries, keyed by address, that outlives
      any one run and is shared by every memory of a fork family (a
      booted process, its restores, and every {!Memory.fork} of its
      snapshots).  A member that rewrites a range of its own (a
      diversified variant's text) gets a {!derive}d table: it owns the
      pages of that range and the pages it wrote itself, and finds
      every other page in the family's entries;
    - a per-memory {!t} view that validates an entry against the
      viewing memory's own page generation.

    Because a generation names exactly one (bytes, permission) page
    state across all address spaces (see {!Memory.page_gen}), an entry
    filled by one member hits in another exactly when that member's page
    holds the same bytes and permissions.  A byte store, [mprotect],
    unmap/remap or restore of an executed page forces a re-decode, which
    keeps execution bit-identical under self-modifying code (shellcode
    written to the stack and then run) and across siblings that write
    their own copy of a shared page. *)

type 'a entry = private {
  v : 'a;
  len : int;
  lo_gen : int;  (** generation of the page holding the first byte *)
  hi_gen : int;  (** last byte's page when the encoding straddles, else 0 *)
}
(** A decoded instruction [v] of encoded length [len], valid in a memory
    whose page(s) still carry these generations. *)

type 'a table
(** Decoded entries of one fork family, with its hit/miss counters. *)

val table : dummy:'a -> 'a table
(** An empty table.  [dummy] is any value of the instruction type; it
    pre-fills the slot chunks (with a generation no page can have) so
    the hit path needs no [option] box.  It is never returned by
    {!lookup}. *)

val derive : 'a table -> lo:int -> hi:int -> 'a table
(** A table for a member that rewrote the addresses [\[lo, hi)]: the
    pages that range touches, and each page whose generation the viewing
    memory drew itself ({!Memory.page_own}) when the table first fills
    it, are its own and start empty; every other page — lookups, fills
    and blocks — is the parent's family's, validated by page generation
    exactly as a fork's entries are (so a variant finds the template's
    libc and PLT entries already filled, and adds to them only what the
    family can use).  Its hit, miss and summarised counters are its own
    and start at 0. *)

type 'a t
(** A view of a table through one memory. *)

val view : 'a table -> Memory.t -> 'a t
(** Cheap (one small record); views of the same table may be created
    over any memories, and may interleave. *)

val lookup : 'a t -> int -> decode:(Memory.t -> int -> 'a * int) -> 'a entry
(** [lookup t addr ~decode] returns the cached decode of the instruction
    at [addr], calling [decode mem addr] on the view's memory (which must
    return the decoded value and its encoded byte length) on a miss or
    stale entry, and storing the result in the table.  Exceptions from
    [decode] — decode errors, NX faults — propagate and cache nothing.
    Pass a top-level function for [decode] so the hit path allocates
    nothing. *)

val hits : 'a table -> int
val misses : 'a table -> int

val summarised : 'a table -> int
(** Loop iterations an interpreter ran as one bulk step instead of
    through their block ({!credit_loop}); 0 on a run with a per-step or
    pc-stream observer.  Like [hits] and [misses], cumulative over every
    view of the table; a run's own counts are the difference around it. *)

(** {1 Blocks}

    An interpreter may execute a straight-line run of cached entries
    (a block) after one {!lookup} of its head.  These accessors let it
    keep the cache's guarantees without a lookup per follower. *)

val peek : 'a t -> int -> 'a entry
(** The entry the table holds at an address, whatever its generations
    (a never-filled slot has [lo_gen = 0], which no page carries).  Does
    not decode, validate or count.  A caller chaining a block from a
    valid head at generation [g] keeps only followers with [lo_gen = g]
    and [hi_gen = 0]: those were decoded from the very bytes the head's
    page holds now. *)

val cell : 'a t -> int ref
(** The viewed memory's generation cell of the page of the last
    {!lookup}.  After a successful lookup it holds the entry's [lo_gen]
    until a store, [mprotect] or remap touches that page, so one load
    and compare per instruction detects a block's text changing under
    it. *)

val refills : 'a t -> int
(** The refill count the table keeps with the page of the last {!lookup}
    (one record per page holds its slots and this count): how many fills
    on that page have replaced an entry (a first fill of an empty slot
    does not count; a page with no slots yet reads 0).  A block chained
    under one count holds exactly the entries its members' slots hold
    while the count is unchanged; a different count means some member's
    slot may now hold another entry (refilled under another generation,
    which a restore can make stale again while the block's entries turn
    valid), so the block must be rebuilt for its hits to stay one per
    fetch. *)

val credit : 'a t -> int -> unit
(** Count [n] hits: one per block follower executed, so hit and miss
    counts keep their one-per-fetch meaning. *)

val credit_loop : 'a t -> iterations:int -> hits:int -> unit
(** Count [iterations] summarised loop iterations and the [hits] their
    fetches would have counted. *)
