(** The Connman DNS-proxy parse path, compiled for x86-32.

    Functions (all reachable from [parse_response]):
    - [parse_response(buf, len)] — frame holds [name\[1024\]]; walks the
      header and question, then expands the first answer's owner name.
    - [get_name(msg, p, name, name_len)] — the CVE-2017-12865 site: the
      Listing-1 copy with no bound in vulnerable versions, with the 1.35
      size check in patched ones.
    - [parse_rr], [cache_store], and a handful of auxiliary routines that
      make the image realistic (and, as on the real binary, provide the
      [pop pop pop ret] material §III-C1 scavenges).

    [diversity_seed] applies function-level code-layout randomization
    (compile-time artificial software diversity, §IV): chunk order is
    shuffled, moving every gadget address. *)

val spec :
  version:Version.t ->
  profile:Defense.Profile.t ->
  ?diversity_seed:int ->
  unit ->
  Loader.Process.spec

val variant :
  version:Version.t ->
  profile:Defense.Profile.t ->
  seed:int ->
  Loader.Process.spec * Diversity.Variant.plan
(** [spec ~diversity_seed:seed] and the plan of its variant, from one
    run of the variant pass. *)

val template :
  version:Version.t ->
  profile:Defense.Profile.t ->
  Isa_x86.Asm.item Diversity.Variant.template
(** The program cut into its chunks and prepared for the variant pass,
    once per (version, profile): {!spec}'s stock build is its
    {!Diversity.Variant.stock} program, a variant its
    {!Diversity.Variant.text}. *)

val variant_plan :
  version:Version.t ->
  profile:Defense.Profile.t ->
  seed:int ->
  Diversity.Variant.plan
(** The diversification stats ({!Diversity.Variant.plan}) of the variant
    [spec ~diversity_seed:seed] builds — same pipeline, same seed, so the
    plan describes exactly that image. *)

val entry : string
(** Name of the response-parsing entry point ("parse_response"). *)
