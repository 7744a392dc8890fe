(** Hash tables keyed by [int], with a multiplicative hash instead of the
    polymorphic [caml_hash]: the key is hashed and compared inline, which
    is what the per-byte shadow lookups and per-store return-slot probes
    of the sanitizer need. *)

include Hashtbl.S with type key = int
