(** Deterministic per-link network impairments.

    A {!policy} describes what a link does to each datagram crossing it:
    drop it, corrupt a byte, duplicate it, delay it (with jitter), hold
    it back so later traffic overtakes it, or black-hole it entirely
    while the link is flapped down.  Policies are pure data; every
    random decision is drawn from the {!Memsim.Rng} handed to {!apply}
    in a documented, fixed order, so identical seeds give bit-identical
    impairment traces — the property the chaos campaign and the
    seed-determinism test suite rely on.

    {!World} attaches policies per sender's LAN or world-wide, and
    consults {!apply} once per (datagram, receiver) pair. *)

type latency =
  | Const of int  (** fixed propagation delay, µs *)
  | Uniform of { lo : int; hi : int }
      (** uniform in [lo, hi): one [Rng.int (hi - lo)] draw *)
  | Jitter of { base : int; jitter : int }
      (** base ± jitter (clamped to 0): one [Rng.int (2*jitter + 1)] draw *)

type policy = {
  drop : float;  (** per-datagram drop probability, [0, 1] *)
  duplicate : float;  (** probability a second copy is queued *)
  corrupt : float;  (** probability one payload byte is flipped *)
  reorder : float;
      (** probability the datagram is held back by an extra delay drawn
          from [0, reorder_window_us], letting later traffic overtake it *)
  reorder_window_us : int;
  latency : latency;
  flaps : (int * int) list;
      (** [(from, until)] µs windows (absolute sim time) during which the
          link is down: datagrams sent inside a window are black-holed
          with no randomness consumed *)
}

val default : policy
(** No impairments; latency [Uniform {lo = 200; hi = 800}] — exactly the
    delivery jitter the pre-fault-layer world applied, so a world with
    only default policies replays historical traces bit-for-bit. *)

val lossy : float -> policy
(** [default] with the given drop probability. *)

val validate : policy -> policy
(** Returns the policy unchanged, or raises [Invalid_argument] naming
    the offending field (probability outside [0, 1], negative window,
    empty or inverted latency range, inverted flap window). *)

val pp : Format.formatter -> policy -> unit

type fate =
  | Pass  (** at least one copy is queued for delivery *)
  | Drop_fault  (** the drop probability fired *)
  | Drop_link  (** the link was flapped down — no randomness consumed *)

type plan = {
  copies : (int * string) list;
      (** (total delay µs, payload) per queued copy — two entries when
          duplicated, none when dropped *)
  fate : fate;
  corrupted : bool;
  duplicated : bool;
  reordered : bool;
}

val apply : Memsim.Rng.t -> policy -> now:int -> payload:string -> plan
(** Decide one datagram's fate.  Draw order is fixed: flap check (no
    draw), drop, latency, corruption (position, then xor byte),
    duplication (plus the copy's own latency draw), reorder (extra
    delay draw).  Gated draws consume randomness only when their
    probability is strictly positive, so a default policy draws exactly
    one latency value per datagram. *)
