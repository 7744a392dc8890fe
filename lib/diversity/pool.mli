(** Deterministic variant-seed derivation.

    A fleet or experiment draws one master seed and derives one variant
    seed per device index; the derivation is a closed-form mix (no
    shared RNG stream), so cohorts can be sized, split, or replayed
    independently while staying byte-reproducible. *)

val seed_for : master:int -> int -> int
(** [seed_for ~master i] — the [i]-th variant seed.  Stable across
    runs; distinct indices give well-separated seeds. *)

val seeds : master:int -> int -> int list
(** First [n] variant seeds. *)
