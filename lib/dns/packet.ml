type qtype = A | AAAA | CNAME | NS | PTR | MX | TXT | Unknown of int

let qtype_code = function
  | A -> 1
  | NS -> 2
  | CNAME -> 5
  | PTR -> 12
  | MX -> 15
  | TXT -> 16
  | AAAA -> 28
  | Unknown n -> n

let qtype_of_code = function
  | 1 -> A
  | 2 -> NS
  | 5 -> CNAME
  | 12 -> PTR
  | 15 -> MX
  | 16 -> TXT
  | 28 -> AAAA
  | n -> Unknown n

let qtype_name = function
  | A -> "A"
  | NS -> "NS"
  | CNAME -> "CNAME"
  | PTR -> "PTR"
  | MX -> "MX"
  | TXT -> "TXT"
  | AAAA -> "AAAA"
  | Unknown n -> Printf.sprintf "TYPE%d" n

type rcode =
  | NoError
  | FormErr
  | ServFail
  | NXDomain
  | NotImp
  | Refused
  | Unknown_rcode of int

let rcode_code = function
  | NoError -> 0
  | FormErr -> 1
  | ServFail -> 2
  | NXDomain -> 3
  | NotImp -> 4
  | Refused -> 5
  | Unknown_rcode n -> n land 0xF

let rcode_of_code = function
  | 0 -> NoError
  | 1 -> FormErr
  | 2 -> ServFail
  | 3 -> NXDomain
  | 4 -> NotImp
  | 5 -> Refused
  | n -> Unknown_rcode (n land 0xF)

type header = {
  id : int;
  qr : bool;
  opcode : int;
  aa : bool;
  tc : bool;
  rd : bool;
  ra : bool;
  rcode : rcode;
}

type question = { qname : Name.t; qtype : qtype }
type rr = { rname : Name.t; rtype : qtype; ttl : int; rdata : string }

type t = {
  header : header;
  questions : question list;
  answers : rr list;
  authorities : rr list;
  additionals : rr list;
}

let query ~id ?(rd = true) qname qtype =
  {
    header =
      {
        id = id land 0xFFFF;
        qr = false;
        opcode = 0;
        aa = false;
        tc = false;
        rd;
        ra = false;
        rcode = NoError;
      };
    questions = [ { qname; qtype } ];
    answers = [];
    authorities = [];
    additionals = [];
  }

let response ~query answers =
  {
    header =
      { query.header with qr = true; ra = true; aa = false; rcode = NoError };
    questions = query.questions;
    answers;
    authorities = [];
    additionals = [];
  }

let a_record rname ~ttl ~ipv4 =
  let rdata =
    String.init 4 (fun i -> Char.chr ((ipv4 lsr (8 * (3 - i))) land 0xFF))
  in
  { rname; rtype = A; ttl; rdata }

let cname_record rname ~ttl ~target =
  { rname; rtype = CNAME; ttl; rdata = Name.encode target }

let cname_of_rdata rdata =
  match Wire.name_labels rdata 0 with Ok (labels, _) -> Some labels | Error _ -> None

let ipv4_of_rdata rdata =
  if String.length rdata <> 4 then None
  else
    Some
      (List.fold_left
         (fun acc i -> (acc lsl 8) lor Char.code rdata.[i])
         0 [ 0; 1; 2; 3 ])

(* --- encoding (network byte order) --- *)

let flags_word h =
  ((if h.qr then 1 else 0) lsl 15)
  lor ((h.opcode land 0xF) lsl 11)
  lor ((if h.aa then 1 else 0) lsl 10)
  lor ((if h.tc then 1 else 0) lsl 9)
  lor ((if h.rd then 1 else 0) lsl 8)
  lor ((if h.ra then 1 else 0) lsl 7)
  lor rcode_code h.rcode

(* Section counts travel in u16 header fields; a list longer than 65535
   used to encode with a silently wrapped count (65537 answers -> count
   1), a parser/serializer mismatch no receiver can detect.  Refuse
   outright — such a message cannot be framed honestly. *)
let validate_counts t =
  let check what l =
    if List.length l > 0xFFFF then
      invalid_arg ("Dns.Packet.encode: " ^ what ^ " count exceeds 65535")
  in
  check "questions" t.questions;
  check "answers" t.answers;
  check "authorities" t.authorities;
  check "additionals" t.additionals

let add_question a ~compress q =
  Wire.add_name a ~compress q.qname;
  Wire.add_u16 a (qtype_code q.qtype);
  Wire.add_u16 a 1 (* IN *)

let add_rr a ~compress rr =
  Wire.add_name a ~compress rr.rname;
  Wire.add_u16 a (qtype_code rr.rtype);
  Wire.add_u16 a 1;
  Wire.add_u32 a rr.ttl;
  Wire.add_u16 a (String.length rr.rdata);
  Wire.add_string a rr.rdata

let encode_into ?(compress = true) a t =
  validate_counts t;
  Wire.reset a;
  Wire.add_u16 a t.header.id;
  Wire.add_u16 a (flags_word t.header);
  Wire.add_u16 a (List.length t.questions);
  Wire.add_u16 a (List.length t.answers);
  Wire.add_u16 a (List.length t.authorities);
  Wire.add_u16 a (List.length t.additionals);
  List.iter (add_question a ~compress) t.questions;
  List.iter (add_rr a ~compress) t.answers;
  List.iter (add_rr a ~compress) t.authorities;
  List.iter (add_rr a ~compress) t.additionals;
  if Wire.length a > 0xFFFF then
    invalid_arg "Dns.Packet.encode: message exceeds 65535 bytes"

let encode ?(compress = true) t =
  let a = Wire.arena () in
  encode_into ~compress a t;
  Wire.contents a

(* --- decoding --- *)

(* Thin shim over the zero-copy view: validate/index with {!Wire.parse},
   then materialize the same lists the old decoder built.  Hot paths
   skip this and read the view directly. *)

let materialize_rdata msg v i =
  let rdata_off = Wire.rr_rdata v i and rdlen = Wire.rr_rdlen v i in
  if Wire.rtype_is_name (Wire.rr_rtype v i) then
    (* RFC 1035 §3.3: the RDATA of CNAME/NS/PTR is a domain name and may
       use compression pointers into the enclosing message.  A bare
       [String.sub] would orphan such pointers (they index the full
       message, not the rdata slice), so store the uncompressed wire
       form — consumers like [cname_of_rdata] then decode the slice in
       isolation correctly.  [parse] already validated the name. *)
    match Wire.name_labels msg rdata_off with
    | Ok (labels, _) -> Name.encode labels
    | Error e -> invalid_arg ("Dns.Packet.decode: " ^ e)
  else String.sub msg rdata_off rdlen

let materialize_rr msg v i =
  match Wire.name_labels msg (Wire.rr_name v i) with
  | Error e -> invalid_arg ("Dns.Packet.decode: " ^ e)
  | Ok (rname, _) ->
      {
        rname;
        rtype = qtype_of_code (Wire.rr_rtype v i);
        ttl = Wire.rr_ttl v i;
        rdata = materialize_rdata msg v i;
      }

let of_view v msg =
  let header =
    {
      id = Wire.id v;
      qr = Wire.qr v;
      opcode = Wire.opcode v;
      aa = Wire.aa v;
      tc = Wire.tc v;
      rd = Wire.rd v;
      ra = Wire.ra v;
      rcode = rcode_of_code (Wire.rcode v);
    }
  in
  let questions =
    List.init (Wire.qdcount v) (fun i ->
        match Wire.name_labels msg (Wire.question_name v i) with
        | Error e -> invalid_arg ("Dns.Packet.decode: " ^ e)
        | Ok (qname, _) ->
            { qname; qtype = qtype_of_code (Wire.question_qtype v i) })
  in
  let section lo n = List.init n (fun i -> materialize_rr msg v (lo + i)) in
  let an = Wire.ancount v and ns = Wire.nscount v in
  {
    header;
    questions;
    answers = section 0 an;
    authorities = section an ns;
    additionals = section (an + ns) (Wire.arcount v);
  }

let decode msg =
  let v = Wire.create_view () in
  match Wire.parse v msg with
  | Error _ as e -> e
  | Ok () -> Ok (of_view v msg)

let pp ppf t =
  let pp_q ppf q =
    Format.fprintf ppf "%s %s" (Name.to_string q.qname) (qtype_name q.qtype)
  in
  let pp_rr ppf rr =
    Format.fprintf ppf "%s %s ttl=%d rdlen=%d" (Name.to_string rr.rname)
      (qtype_name rr.rtype) rr.ttl (String.length rr.rdata)
  in
  Format.fprintf ppf "@[<v>id=0x%04x %s rcode=%d@,questions: %a@,answers: %a@]"
    t.header.id
    (if t.header.qr then "response" else "query")
    (rcode_code t.header.rcode)
    (Format.pp_print_list pp_q) t.questions (Format.pp_print_list pp_rr)
    t.answers
