(** DNS message wire codec (RFC 1035 §4).

    Covers what the reproduction needs end-to-end: queries from the
    Connman DNS proxy, legitimate responses from the resolver, and the
    decoded view Connman's host-side pre-validation checks before the
    vulnerable machine-code path runs. *)

type qtype = A | AAAA | CNAME | NS | PTR | MX | TXT | Unknown of int

val qtype_code : qtype -> int
val qtype_of_code : int -> qtype

type rcode =
  | NoError
  | FormErr
  | ServFail
  | NXDomain
  | NotImp
  | Refused
  | Unknown_rcode of int
      (** codes 6–15: unassigned/extended values, preserved verbatim so
          decode→encode round-trips the raw header bits *)

val rcode_code : rcode -> int
val rcode_of_code : int -> rcode

type header = {
  id : int;  (** 16-bit transaction id *)
  qr : bool;  (** false = query, true = response *)
  opcode : int;
  aa : bool;
  tc : bool;
  rd : bool;
  ra : bool;
  rcode : rcode;
}

type question = { qname : Name.t; qtype : qtype }

type rr = {
  rname : Name.t;
  rtype : qtype;
  ttl : int;
  rdata : string;  (** raw RDATA; 4 bytes for A, 16 for AAAA *)
}

type t = {
  header : header;
  questions : question list;
  answers : rr list;
  authorities : rr list;
  additionals : rr list;
}

val query : id:int -> ?rd:bool -> Name.t -> qtype -> t

val response : query:t -> rr list -> t
(** A well-formed answer to [query]: same id, question echoed, QR/RA set. *)

val a_record : Name.t -> ttl:int -> ipv4:int -> rr
(** [ipv4] as a 32-bit host-order integer. *)

val cname_record : Name.t -> ttl:int -> target:Name.t -> rr
(** RDATA is the (uncompressed) wire form of [target]. *)

val cname_of_rdata : string -> Name.t option

val ipv4_of_rdata : string -> int option

val validate_counts : t -> unit
(** Raises [Invalid_argument] if any section holds more than 65535
    entries — such a message cannot be framed honestly through the u16
    header count fields (it used to encode with a silently wrapped
    count). *)

val encode : ?compress:bool -> t -> string
(** [compress] (default true) uses compression pointers for repeated
    names, as real servers do.  Raises [Invalid_argument] if any label
    is empty or longer than 63 bytes (such a length byte would collide
    with the reserved/compression bit patterns on the wire), matching
    {!Name.encode}; if a section count exceeds 65535
    ({!validate_counts}); or if the encoded message exceeds 65535 bytes
    (unframeable over DNS transports). *)

val encode_into : ?compress:bool -> Wire.arena -> t -> unit
(** {!encode} into a caller-owned reusable arena (resets it first); the
    hot-path variant.  Read the bytes with {!Wire.contents}. *)

val decode : string -> (t, string) result
(** Strict decode.  CNAME/NS/PTR rdata is expanded against the whole
    message (compression pointers inside rdata index the enclosing
    message) and stored in uncompressed wire form.  A thin shim over
    {!Wire.parse} + {!of_view}. *)

val of_view : Wire.view -> string -> t
(** Materialize a successfully parsed view of [msg] into lists.  Raises
    [Invalid_argument] if the view does not correspond to [msg]. *)

val pp : Format.formatter -> t -> unit
