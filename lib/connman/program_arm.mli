(** The Connman DNS-proxy parse path, compiled for ARMv7.

    Same structure as {!Program_x86} with the ARM-specific properties the
    paper leans on:
    - [parse_response] returns via [pop {r4-r7, fp, pc}];
    - [parse_rr] dereferences two frame-resident pointers when they are
      non-NULL — the §III-A2 "locations Connman expects to be NULL";
    - [event_dispatch] carries the §III-B2 gadget
      [pop {r0, r1, r2, r3, r5, r6, r7, pc}];
    - [call_handler] carries [blx r3] immediately followed by
      [pop {r4, pc}] — the §III-C2 trampoline that lets a stack chain
      survive ARM's branch-link calling convention. *)

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
  Isa_arm.Asm.item Diversity.Variant.template
(** The program cut into its chunks and prepared for the variant pass,
    once per (version, profile): {!spec}'s stock build is its
    {!Diversity.Variant.stock} program, a variant its
    {!Diversity.Variant.text}. *)

val variant_plan :
  version:Version.t ->
  profile:Defense.Profile.t ->
  seed:int ->
  Diversity.Variant.plan
(** The diversification stats of the variant [spec ~diversity_seed:seed]
    builds. *)

val entry : string
