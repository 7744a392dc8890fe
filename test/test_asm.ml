(* The assembler core both ISAs share ([Machine.Asm]): random programs of
   labels, concrete instructions, forward and backward references of every
   kind, raw bytes, words and alignments are laid out once and linked at
   two bases.  Each result is checked against a size model written here
   and against the ISA's decoder; the error cases pin their messages. *)

module A = Machine.Asm
module W = Memsim.Word

(* The label names of a generated program. *)
let labels k = List.init k (Printf.sprintf "L%d")

(* Insert the labels, each once, among the body items at generated
   positions: references then point forward and backward alike. *)
let with_labels body positions =
  let n = List.length body in
  let at i = List.filter_map (fun (l, p) -> if p mod (n + 1) = i then Some l else None) positions in
  List.concat (List.mapi (fun i item -> at i @ [ item ]) body) @ at n

let le32_at code off =
  Char.code code.[off]
  lor (Char.code code.[off + 1] lsl 8)
  lor (Char.code code.[off + 2] lsl 16)
  lor (Char.code code.[off + 3] lsl 24)

let align_pad pos n = (n - (pos land (n - 1))) land (n - 1)

(* Walk a program with the model's sizes; [check] sees each item, its
   offset and the address of every label in the program. *)
let walk ~size ~label_of program check =
  let offsets = Hashtbl.create 16 in
  let _ =
    List.fold_left
      (fun pos item ->
        (match label_of item with Some l -> Hashtbl.replace offsets l pos | None -> ());
        pos + size pos item)
      0 program
  in
  ignore
    (List.fold_left
       (fun pos item ->
         check pos item offsets;
         pos + size pos item)
       0 program)

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_bound 7))
let gen_align = QCheck.Gen.oneofl [ 1; 2; 4; 8; 16 ]

(* {1 x86} *)

module X86 = struct
  open Isa_x86

  let externs = [ ("ext_a", 0x0804_9000); ("ext_b", 0xB750_1234); ("ext_c", 0x10) ]

  (* Concrete instructions of 1 to 10 bytes. *)
  let insns =
    Insn.
      [
        Nop; Ret; Leave; Push_r EBP; Pop_r EDI; Inc_r ECX; Int 0x80;
        Mov_ri (EAX, 0x1234_5678); Mov (Reg EBP, Reg ESP);
        Add_i (Reg ESP, 12); Sub_i (Reg ESP, 0x418);
        Lea (ECX, { base = Some EBP; disp = -0x418 });
        Mov (Mem { base = Some ESP; disp = 4 }, Reg EAX);
        Mov_mi (Mem { base = Some EBP; disp = -0x400 }, 0x41);
        Jmp_short 2; Push_i8 (-1);
      ]

  let gen_program =
    let open QCheck.Gen in
    let* k = int_range 1 6 in
    let syms = labels k @ List.map fst externs in
    let sym = oneofl syms in
    let item =
      frequency
        [
          (4, map (fun i -> Asm.I i) (oneofl insns));
          (2, map (fun s -> Asm.Call s) sym);
          (2, map (fun s -> Asm.Jmp s) sym);
          (2, map2 (fun c s -> Asm.Jcc (c, s)) (oneofl Insn.[ E; NE; L; AE ]) sym);
          (1, map (fun s -> Asm.Push_sym s) sym);
          (1, map2 (fun r s -> Asm.Mov_ri_sym (r, s)) (oneofl Insn.[ EAX; ESI ]) sym);
          (1, map (fun s -> Asm.Bytes s) gen_bytes);
          (1, map (fun v -> Asm.Word v) (int_bound 0x7FFF_FFFF));
          (1, map (fun s -> Asm.Word_sym s) sym);
          (1, map (fun n -> Asm.Align n) gen_align);
        ]
    in
    let* body = list_size (int_bound 40) item in
    let+ positions = list_repeat k (int_bound 1000) in
    with_labels body
      (List.combine (List.map (fun l -> Asm.Label l) (labels k)) positions)

  let size pos = function
    | Asm.Label _ -> 0
    | Asm.I i -> String.length (Encode.encode i)
    | Asm.Call _ | Asm.Jmp _ | Asm.Push_sym _ | Asm.Mov_ri_sym _ -> 5
    | Asm.Jcc _ -> 6
    | Asm.Bytes s -> String.length s
    | Asm.Word _ | Asm.Word_sym _ -> 4
    | Asm.Align n -> align_pad pos n

  let label_of = function Asm.Label l -> Some l | _ -> None

  let print program =
    String.concat "; "
      (List.map
         (function
           | Asm.Label l -> l ^ ":"
           | Asm.I i -> Insn.to_string i
           | Asm.Call s -> "call " ^ s
           | Asm.Jmp s -> "jmp " ^ s
           | Asm.Jcc (_, s) -> "jcc " ^ s
           | Asm.Push_sym s -> "push " ^ s
           | Asm.Mov_ri_sym (_, s) -> "mov r, " ^ s
           | Asm.Bytes s -> Printf.sprintf "bytes %S" s
           | Asm.Word v -> Printf.sprintf "word %d" v
           | Asm.Word_sym s -> "word " ^ s
           | Asm.Align n -> Printf.sprintf "align %d" n)
         program)

  (* Every item of [program] where [r] put it. *)
  let check_result program (r : Asm.result) =
    let ok = ref true in
    let expect cond = if not cond then ok := false in
    walk ~size ~label_of program (fun pos item offsets ->
        let here = r.base + pos in
        let target s =
          match Hashtbl.find_opt offsets s with
          | Some off -> r.base + off
          | None -> List.assoc s externs
        in
        let decodes_as insn =
          let got, len = Decode.decode_with (fun a -> Char.code r.code.[a - r.base]) here in
          expect (len = size pos item && Insn.to_string got = Insn.to_string insn)
        in
        let rel s len = W.to_signed (W.sub (target s) (here + len)) in
        match item with
        | Asm.Label l -> expect (List.assoc l r.symbols = here)
        | Asm.I i -> decodes_as i
        | Asm.Call s -> decodes_as (Insn.Call_rel (rel s 5))
        | Asm.Jmp s -> decodes_as (Insn.Jmp_rel (rel s 5))
        | Asm.Jcc (c, s) -> decodes_as (Insn.Jcc (c, rel s 6))
        | Asm.Push_sym s -> decodes_as (Insn.Push_i (target s))
        | Asm.Mov_ri_sym (reg, s) -> decodes_as (Insn.Mov_ri (reg, target s))
        | Asm.Bytes s -> expect (String.sub r.code pos (String.length s) = s)
        | Asm.Word v -> expect (le32_at r.code pos = v)
        | Asm.Word_sym s -> expect (le32_at r.code pos = target s)
        | Asm.Align n ->
            expect (String.sub r.code pos (align_pad pos n) = String.make (align_pad pos n) '\x90'));
    !ok

  let prop =
    QCheck.Test.make ~name:"x86: layout once, link anywhere" ~count:300 ~long_factor:30
      (QCheck.make ~print:(fun (p, b1, b2) -> Printf.sprintf "0x%x 0x%x %s" b1 b2 (print p))
         QCheck.Gen.(triple gen_program (int_bound 0xF000_0000) (int_bound 0xF000_0000)))
      (fun (program, b1, b2) ->
        let layout = Asm.layout program in
        List.for_all
          (fun base ->
            let r = A.link ~extern:externs ~base layout in
            r = Asm.assemble ~extern:externs ~base program
            && String.length r.code = A.size layout
            && List.length r.symbols = List.length (List.filter_map label_of program)
            && check_result program r)
          [ b1; b2 ])
end

(* {1 ARM} *)

module Arm = struct
  open Isa_arm

  (* Near the bases, so a branch reaches them. *)
  let externs = [ ("ext_a", 0x0002_0000); ("ext_b", 0x0008_0000); ("ext_c", 0x000F_0000) ]

  let insns =
    Insn.
      [
        nop; al (Mov (R0, Imm 1)); al (Add (R0, R1, Reg R2)); al (Push [ R4; LR ]);
        al (Pop [ R4; PC ]); al (Ldr (R3, SP, -8)); al (Bx LR); al (Svc 0);
        { cond = NE; op = Cmp (R0, Imm 0) };
      ]

  let gen_program =
    let open QCheck.Gen in
    let* k = int_range 1 6 in
    let label = oneofl (labels k) in
    let sym = oneofl (labels k @ List.map fst externs) in
    let item =
      frequency
        [
          (4, map (fun i -> [ Asm.I i ]) (oneofl insns));
          (2, map (fun s -> [ Asm.Bl_sym s ]) sym);
          (2, map2 (fun c s -> [ Asm.B_sym (c, s) ]) (oneofl Insn.[ AL; EQ; LT ]) sym);
          (2, map2 (fun r s -> [ Asm.Ldr_sym (r, s) ]) (oneofl Insn.[ R0; R12 ]) label);
          (* Code after raw bytes is realigned, as every program does. *)
          (1, map (fun s -> [ Asm.Bytes s; Asm.Align 4 ]) gen_bytes);
          (1, map (fun v -> [ Asm.Word v ]) (int_bound 0x7FFF_FFFF));
          (1, map (fun s -> [ Asm.Word_sym s ]) sym);
          (1, map (fun n -> [ Asm.Align n ]) gen_align);
        ]
    in
    let* body = list_size (int_bound 40) item in
    let+ positions = list_repeat k (int_bound 1000) in
    List.concat
      (with_labels body
         (List.combine (List.map (fun l -> [ Asm.Label l ]) (labels k)) positions))

  let size pos = function
    | Asm.Label _ -> 0
    | Asm.I _ | Asm.Bl_sym _ | Asm.B_sym _ | Asm.Ldr_sym _ | Asm.Word _ | Asm.Word_sym _ -> 4
    | Asm.Bytes s -> String.length s
    | Asm.Align n -> align_pad pos n

  let label_of = function Asm.Label l -> Some l | _ -> None

  let print program =
    String.concat "; "
      (List.map
         (function
           | Asm.Label l -> l ^ ":"
           | Asm.I i -> Insn.to_string i
           | Asm.Bl_sym s -> "bl " ^ s
           | Asm.B_sym (_, s) -> "b " ^ s
           | Asm.Ldr_sym (_, s) -> "ldr =" ^ s
           | Asm.Bytes s -> Printf.sprintf "bytes %S" s
           | Asm.Word v -> Printf.sprintf "word %d" v
           | Asm.Word_sym s -> "word " ^ s
           | Asm.Align n -> Printf.sprintf "align %d" n)
         program)

  let check_result program (r : Asm.result) =
    let ok = ref true in
    let expect cond = if not cond then ok := false in
    walk ~size ~label_of program (fun pos item offsets ->
        let here = r.base + pos in
        let target s =
          match Hashtbl.find_opt offsets s with
          | Some off -> r.base + off
          | None -> List.assoc s externs
        in
        let decodes_as insn =
          let got = Decode.decode_word ~addr:here (le32_at r.code pos) in
          expect (Insn.to_string got = Insn.to_string insn)
        in
        let rel s = target s - (here + 8) in
        match item with
        | Asm.Label l -> expect (List.assoc l r.symbols = here)
        | Asm.I i -> decodes_as i
        | Asm.Bl_sym s -> decodes_as (Insn.al (Insn.Bl (rel s)))
        | Asm.B_sym (cond, s) -> decodes_as { Insn.cond; op = Insn.B (rel s) }
        | Asm.Ldr_sym (rd, s) -> decodes_as (Insn.al (Insn.Ldr (rd, Insn.PC, rel s)))
        | Asm.Bytes s -> expect (String.sub r.code pos (String.length s) = s)
        | Asm.Word v -> expect (le32_at r.code pos = v)
        | Asm.Word_sym s -> expect (le32_at r.code pos = target s)
        | Asm.Align n ->
            expect (String.sub r.code pos (align_pad pos n) = String.make (align_pad pos n) '\x00'));
    !ok

  let prop =
    QCheck.Test.make ~name:"arm: layout once, link anywhere" ~count:300 ~long_factor:30
      (QCheck.make ~print:(fun (p, b1, b2) -> Printf.sprintf "0x%x 0x%x %s" b1 b2 (print p))
         QCheck.Gen.(
           triple gen_program
             (map (fun b -> 0x1_0000 + (4 * b)) (int_bound 0x3_0000))
             (map (fun b -> 0x1_0000 + (4 * b)) (int_bound 0x3_0000))))
      (fun (program, b1, b2) ->
        let layout = Asm.layout program in
        List.for_all
          (fun base ->
            let r = A.link ~extern:externs ~base layout in
            r = Asm.assemble ~extern:externs ~base program
            && String.length r.code = A.size layout
            && check_result program r)
          [ b1; b2 ])
end

(* {1 Errors} *)

let raises name msg f = Alcotest.check_raises name (Failure msg) (fun () -> ignore (f ()))

let test_errors () =
  (* x86's undefined and duplicate labels are test_isa_x86's. *)
  let open Isa_x86 in
  raises "x86 label is also an extern" "Asm: duplicate symbol a" (fun () ->
      Asm.assemble ~extern:[ ("a", 4) ] ~base:0 [ Asm.Label "a" ]);
  raises "x86 bad alignment" "Asm.Align: alignment must be a positive power of two"
    (fun () -> Asm.layout [ Asm.Align 3 ]);
  let open Isa_arm in
  raises "arm undefined" "Asm: undefined symbol nowhere" (fun () ->
      Asm.assemble ~base:0 [ Asm.Bl_sym "nowhere" ]);
  raises "arm duplicate label" "Asm: duplicate symbol a" (fun () ->
      Asm.layout [ Asm.Label "a"; Asm.Label "a" ]);
  raises "arm misaligned base" "Asm: base must be 4-byte aligned" (fun () ->
      Asm.assemble ~base:2 [ Asm.I Insn.nop ]);
  raises "arm literal out of range" "Asm: literal far out of ldr range (4096 bytes)"
    (fun () ->
      Asm.assemble ~base:0
        [ Asm.Ldr_sym (Insn.R0, "far"); Asm.Bytes (String.make 4100 '\000'); Asm.Label "far" ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "asm"
    [
      ("layout and link", [ qt X86.prop; qt Arm.prop ]);
      ("errors", [ Alcotest.test_case "messages" `Quick test_errors ]);
    ]
