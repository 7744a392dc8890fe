(* Codec-differential fuzzing: the zero-copy codec vs the reference.

   The zero-copy rewrite of [Dns.Wire]/[Dns.Packet] is only safe if it
   is observationally identical to the old materializing codec, so the
   pre-rewrite implementation survives as [Dns.Legacy] and this module
   drives both over the same inputs:

   - decode: [Legacy.decode] and [Packet.decode] must agree — same
     packet structurally on [Ok], the exact same error string on
     [Error];
   - name walk: [Legacy.name_decode] and [Wire.name_labels] at the question
     offset must agree the same way;
   - re-encode: when decode succeeds, [Legacy.encode] and
     [Packet.encode] must produce byte-identical output (or raise
     [Invalid_argument] with identical messages), compressed and
     uncompressed.

   Inputs are the benign seed corpus, the committed crash corpus, a few
   crafted hostiles, and a seeded stream of wire-format-aware mutants
   ({!Mutator}).  A run is a pure function of its seed. *)

module Rng = Memsim.Rng

type divergence = {
  stage : string;  (* "decode" | "name" | "encode" | "encode-nc" *)
  input : string;  (* wire bytes under test *)
  legacy : string;  (* rendered reference result *)
  zero_copy : string;  (* rendered zero-copy result *)
}

type report = {
  seed : int;
  execs : int;  (* mutation executions (pool checks not counted) *)
  pool : int;  (* fixed seed-pool size *)
  decode_ok : int;
  decode_err : int;
  divergent : int;  (* total divergences observed *)
  divergences : divergence list;  (* first few, chronological *)
}

let max_kept = 10

let render_decode = function
  | Ok p -> Format.asprintf "Ok %a" Dns.Packet.pp p
  | Error e -> Printf.sprintf "Error %S" e

let render_name = function
  | Ok (n, used) -> Printf.sprintf "Ok (%S, %d)" (Dns.Name.to_string n) used
  | Error e -> Printf.sprintf "Error %S" e

let render_encode f =
  match f () with
  | bytes -> Printf.sprintf "bytes %s" (Engine.hex_of_string bytes)
  | exception Invalid_argument m -> Printf.sprintf "Invalid_argument %S" m

(* All divergences one wire exhibits, stage-labelled.  Exposed so the
   test suite can point it at hand-built wires. *)
let check wire =
  let divs = ref [] in
  let record stage legacy zero_copy =
    divs := { stage; input = wire; legacy; zero_copy } :: !divs
  in
  let l = Dns.Legacy.decode wire and z = Dns.Packet.decode wire in
  if l <> z then record "decode" (render_decode l) (render_decode z);
  if String.length wire >= 12 then begin
    let ln = Dns.Legacy.name_decode wire 12 and zn = Dns.Wire.name_labels wire 12 in
    if ln <> zn then record "name" (render_name ln) (render_name zn)
  end;
  (match (l, z) with
  | Ok lp, Ok zp ->
      let cmp stage compress =
        let le = render_encode (fun () -> Dns.Legacy.encode ~compress lp)
        and ze = render_encode (fun () -> Dns.Packet.encode ~compress zp) in
        if le <> ze then record stage le ze
      in
      cmp "encode" true;
      cmp "encode-nc" false
  | _ -> ());
  (List.rev !divs, Result.is_ok z)

let seed_pool () =
  let open Dns in
  let q =
    Packet.query ~id:0x1A2B (Name.of_string "www.example.com") Packet.A
  in
  let hostile raw_name = Craft.hostile_response ~query:q ~raw_name () in
  Engine.benign_seeds ()
  @ List.map (fun (_, hex) -> Engine.string_of_hex hex) Corpus.entries
  @ [
      hostile (Name.encode (Name.of_string "evil.example.com"));
      hostile (Craft.dos_name ~size:2048);
      hostile (Craft.pointer_loop_name ());
    ]

let run ?(seed = 1) ?(execs = 10_000) () =
  let rng = Rng.create seed in
  let pool = seed_pool () in
  let fixed = Array.of_list pool in
  (* Mutants that still decode feed back into the pick-pool so later
     mutations stack on them (bounded; deterministic). *)
  let live = ref fixed and live_len = ref (Array.length fixed) in
  let decode_ok = ref 0
  and decode_err = ref 0
  and divergent = ref 0
  and kept = ref [] in
  let note (divs, ok) =
    if ok then incr decode_ok else incr decode_err;
    List.iter
      (fun d ->
        incr divergent;
        if List.length !kept < max_kept then kept := d :: !kept)
      divs
  in
  List.iter (fun w -> note (check w)) pool;
  let pick_other () = !live.(Rng.int rng !live_len) in
  for _ = 1 to execs do
    let base = pick_other () in
    let m = Mutator.mutate rng ~max_len:4096 ~pick_other base in
    let ((_, ok) as r) = check m in
    note r;
    (* Decodable mutants join the pick-pool (bounded) so later
       mutations stack on them. *)
    if ok && !live_len < 256 then begin
      let next = Array.make (!live_len + 1) m in
      Array.blit !live 0 next 0 !live_len;
      live := next;
      live_len := !live_len + 1
    end
  done;
  {
    seed;
    execs;
    pool = Array.length fixed;
    decode_ok = !decode_ok;
    decode_err = !decode_err;
    divergent = !divergent;
    divergences = List.rev !kept;
  }

let report_json r =
  let open Telemetry.Json in
  print
    (Obj
       [
         ("schema", Str "codec-diff-v1");
         ("seed", Int r.seed);
         ("execs", Int r.execs);
         ("pool", Int r.pool);
         ("decode_ok", Int r.decode_ok);
         ("decode_err", Int r.decode_err);
         ("divergent", Int r.divergent);
         ( "divergences",
           Arr
             (List.map
                (fun d ->
                  Obj
                    [
                      ("stage", Str d.stage);
                      ("input_hex", Str (Engine.hex_of_string d.input));
                      ("legacy", Str d.legacy);
                      ("zero_copy", Str d.zero_copy);
                    ])
                r.divergences) );
       ])

let pp_report ppf r =
  Format.fprintf ppf
    "codec-diff: seed=%d execs=%d pool=%d decode_ok=%d decode_err=%d \
     divergent=%d"
    r.seed r.execs r.pool r.decode_ok r.decode_err r.divergent;
  List.iter
    (fun d ->
      Format.fprintf ppf "@.  [%s] input=%s@.    legacy:    %s@.    zero-copy: %s"
        d.stage
        (Engine.hex_of_string d.input)
        d.legacy d.zero_copy)
    r.divergences
