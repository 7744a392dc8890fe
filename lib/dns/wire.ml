(* Zero-copy DNS wire codec.

   Decoding produces a {!view}: a reusable record of packed [int] arrays
   holding the *offsets* of every question, record, and rdata slice
   inside the borrowed message string — no per-label [String.sub], no
   intermediate lists.  Steady-state, a reused view allocates nothing on
   the hot path beyond a handful of [result] cells.

   Encoding writes into a caller-supplied reusable {!arena}: a growable
   [Bytes] buffer plus a single-pass compression table that records the
   offset of every name suffix as it is written and emits a pointer on
   repetition.  The table's decisions reproduce the legacy
   [Buffer]/[Hashtbl] encoder byte-for-byte (see {!Legacy}), which the
   codec-differential fuzz mode enforces.

   Borrowing rules: a [view] borrows the string passed to {!parse} until
   the next [parse]; offsets returned by accessors index that string
   only.  An [arena]'s bytes are valid until the next [reset]/write;
   {!contents} copies them out. *)

(* {1 Unchecked byte accessors}

   Bounds are the caller's responsibility — [parse] and the walker
   validate every offset before these are used. *)

let get_u8 s off = Char.code (String.unsafe_get s off)
let get_u16 s off = (get_u8 s off lsl 8) lor get_u8 s (off + 1)
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

(* {1 Strict name walker}

   Mirrors the legacy strict walker's validation order exactly (so error
   classes agree under differential fuzzing), with one deliberate
   semantic change, shared with {!Legacy}: a compression pointer must
   point *strictly backward*.  Each pointer's
   target must lie before the start of the walk so far (before the name
   itself for the first pointer, before the previous target after a
   jump), as real resolvers require — a chain of jumps is strictly
   decreasing, so termination needs no hop bound.  The permissive
   Connman-shaped walker in {!Name.expand_like_connman} is untouched:
   the Listing-1 exploit depends on its forward/self pointers. *)

(* The walker core returns the consumed count, or a negative error code
   (mapped to the shared error strings below) — no result boxing, no
   per-call closures, so validating a name allocates nothing.  Callers
   that want the [result] API go through {!walk}. *)
let e_ptr_loop = -1
let e_trunc_name = -2
let e_ptr_range = -3
let e_ptr_forward = -4
let e_label_len = -5
let e_trunc_label = -6
let e_expansion = -7

let walk_error = function
  | -1 -> "compression pointer loop"
  | -2 -> "truncated name"
  | -3 -> "pointer out of range"
  | -4 -> "forward compression pointer"
  | -5 -> "invalid label length"
  | -6 -> "truncated label"
  | -7 -> "name expansion too large"
  | _ -> "malformed name"

(* [bound]: every pointer target must be < bound; starts at the name's
   own offset and drops to each target after a jump. *)
let rec walk_go msg len off ~emit pos bound hops consumed_at_top jumped acc_len =
  if hops > len then e_ptr_loop
  else if pos < 0 || pos >= len then e_trunc_name
  else
    let b = get_u8 msg pos in
    if b = 0 then if jumped then consumed_at_top else pos + 1 - off
    else if b >= 0xC0 then
      if pos + 1 >= len then e_trunc_name
      else
        let target = ((b land 0x3F) lsl 8) lor get_u8 msg (pos + 1) in
        if target >= len then e_ptr_range
        else if target >= bound then e_ptr_forward
        else
          let consumed_at_top =
            if jumped then consumed_at_top else pos + 2 - off
          in
          walk_go msg len off ~emit target target (hops + 1) consumed_at_top
            true acc_len
    else if b > 63 then e_label_len
    else if pos + 1 + b > len then e_trunc_label
    else begin
      emit ~pos:(pos + 1) ~len:b;
      let acc_len = acc_len + 1 + b in
      if acc_len > 65536 then e_expansion
      else
        walk_go msg len off ~emit (pos + 1 + b) bound hops consumed_at_top
          jumped acc_len
    end

let noop_emit ~pos:_ ~len:_ = ()

let walk_raw msg off ~emit =
  walk_go msg (String.length msg) off ~emit off off 0 0 false 0

let skip_raw msg off = walk_raw msg off ~emit:noop_emit

let walk msg off ~emit =
  let r = walk_raw msg off ~emit in
  if r < 0 then Error (walk_error r) else Ok r

let skip_name msg off = walk msg off ~emit:noop_emit

(* {2 Name utilities over borrowed buffers} *)

let substring_eq msg pos label len =
  let rec eq i =
    i >= len || (String.unsafe_get msg (pos + i) = String.unsafe_get label i && eq (i + 1))
  in
  String.length label = len && eq 0

(* [name_equal_consumed msg off labels]: walk the wire name and compare
   it label-by-label against [labels] without materializing anything.
   Returns [Ok (equal, consumed)] or the walker's error. *)
let name_equal_consumed msg off labels =
  let remaining = ref labels in
  let matched = ref true in
  let emit ~pos ~len =
    match !remaining with
    | [] -> matched := false
    | l :: rest ->
        if substring_eq msg pos l len then remaining := rest else matched := false
  in
  match walk msg off ~emit with
  | Error _ as e -> e
  | Ok consumed -> Ok (!matched && !remaining = [], consumed)

let name_labels msg off =
  let acc = ref [] in
  let emit ~pos ~len = acc := String.sub msg pos len :: !acc in
  match walk msg off ~emit with
  | Error _ as e -> e
  | Ok consumed -> Ok (List.rev !acc, consumed)

(* Dotted rendering of a wire name.  Offsets are expected to come from a
   successfully parsed {!view}, so a malformed name here is a caller
   bug. *)
let name_to_string msg off =
  let buf = Buffer.create 32 in
  let emit ~pos ~len =
    if Buffer.length buf > 0 then Buffer.add_char buf '.';
    Buffer.add_substring buf msg pos len
  in
  match walk msg off ~emit with
  | Error e -> invalid_arg ("Dns.Wire.name_to_string: malformed name: " ^ e)
  | Ok _ -> if Buffer.length buf = 0 then "." else Buffer.contents buf

(* {1 Decoding: the reusable view} *)

(* Questions pack 2 ints per entry, resource records 5.  The arrays are
   grown geometrically and never shrunk, so a long-lived view reaches a
   steady state where [parse] allocates nothing for the message shapes
   it keeps seeing. *)

let q_stride = 2
let rr_stride = 5

type view = {
  mutable msg : string;  (* borrowed until the next [parse] *)
  mutable v_id : int;
  mutable v_flags : int;
  mutable v_qd : int;
  mutable v_an : int;
  mutable v_ns : int;
  mutable v_ar : int;
  mutable qs : int array;  (* per question: name_off, qtype code *)
  mutable n_qs : int;
  mutable rrs : int array;  (* per RR: name_off, rtype, ttl, rdlen, rdata_off *)
  mutable n_rrs : int;  (* answers, authorities, additionals — wire order *)
}

let create_view () =
  {
    msg = "";
    v_id = 0;
    v_flags = 0;
    v_qd = 0;
    v_an = 0;
    v_ns = 0;
    v_ar = 0;
    qs = Array.make (4 * q_stride) 0;
    n_qs = 0;
    rrs = Array.make (8 * rr_stride) 0;
    n_rrs = 0;
  }

let grow a needed =
  let cap = Array.length a in
  if needed <= cap then a
  else begin
    let bigger = Array.make (max needed (2 * cap)) 0 in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let push_q v name_off qtype =
  let base = v.n_qs * q_stride in
  v.qs <- grow v.qs (base + q_stride);
  v.qs.(base) <- name_off;
  v.qs.(base + 1) <- qtype;
  v.n_qs <- v.n_qs + 1

let push_rr v name_off rtype ttl rdlen rdata_off =
  let base = v.n_rrs * rr_stride in
  v.rrs <- grow v.rrs (base + rr_stride);
  v.rrs.(base) <- name_off;
  v.rrs.(base + 1) <- rtype;
  v.rrs.(base + 2) <- ttl;
  v.rrs.(base + 3) <- rdlen;
  v.rrs.(base + 4) <- rdata_off;
  v.n_rrs <- v.n_rrs + 1

(* RDATA of these types is a (possibly compressed) domain name; decoding
   must validate it against the whole message, exactly as the legacy
   decoder does. *)
let rtype_is_name rt = rt = 2 (* NS *) || rt = 5 (* CNAME *) || rt = 12 (* PTR *)

(* Parsing follows the same no-allocation discipline as the walker:
   the section loops return the next offset or a negative error code. *)
let e_trunc = -8
let e_trunc_rdata = -9
let e_rdata_overrun = -10

let parse_error = function
  | -8 -> "truncated"
  | -9 -> "truncated rdata"
  | -10 -> "rdata name overruns rdlen"
  | e -> walk_error e

let rec p_questions v msg len n off =
  if n = 0 then off
  else
    let used = skip_raw msg off in
    if used < 0 then used
    else if off + used + 4 > len then e_trunc
    else begin
      push_q v off (get_u16 msg (off + used));
      p_questions v msg len (n - 1) (off + used + 4)
    end

let rec p_rrs v msg len n off =
  if n = 0 then off
  else
    let used = skip_raw msg off in
    if used < 0 then used
    else
      let name_off = off in
      let off = off + used in
      if off + 10 > len then e_trunc
      else
        let rt = get_u16 msg off in
        let ttl = get_u32 msg (off + 4) in
        let rdlen = get_u16 msg (off + 8) in
        if off + 10 + rdlen > len then e_trunc_rdata
        else
          let rd_err =
            if rtype_is_name rt then
              let used = skip_raw msg (off + 10) in
              if used < 0 then used
              else if used > rdlen then e_rdata_overrun
              else 0
            else 0
          in
          if rd_err < 0 then rd_err
          else begin
            push_rr v name_off rt ttl rdlen (off + 10);
            p_rrs v msg len (n - 1) (off + 10 + rdlen)
          end

let ok_unit : (unit, string) result = Ok ()

let parse v msg =
  let len = String.length msg in
  if len < 12 then Error "message shorter than header"
  else begin
    v.msg <- msg;
    v.v_id <- get_u16 msg 0;
    v.v_flags <- get_u16 msg 2;
    v.v_qd <- get_u16 msg 4;
    v.v_an <- get_u16 msg 6;
    v.v_ns <- get_u16 msg 8;
    v.v_ar <- get_u16 msg 10;
    v.n_qs <- 0;
    v.n_rrs <- 0;
    let off = p_questions v msg len v.v_qd 12 in
    let off = if off < 0 then off else p_rrs v msg len v.v_an off in
    let off = if off < 0 then off else p_rrs v msg len v.v_ns off in
    let off = if off < 0 then off else p_rrs v msg len v.v_ar off in
    if off < 0 then Error (parse_error off) else ok_unit
  end

(* {2 View accessors} *)

let id v = v.v_id
let flags v = v.v_flags
let qr v = (v.v_flags lsr 15) land 1 = 1
let opcode v = (v.v_flags lsr 11) land 0xF
let aa v = (v.v_flags lsr 10) land 1 = 1
let tc v = (v.v_flags lsr 9) land 1 = 1
let rd v = (v.v_flags lsr 8) land 1 = 1
let ra v = (v.v_flags lsr 7) land 1 = 1
let rcode v = v.v_flags land 0xF
let qdcount v = v.v_qd
let ancount v = v.v_an
let nscount v = v.v_ns
let arcount v = v.v_ar
let question_name v i = v.qs.(i * q_stride)
let question_qtype v i = v.qs.((i * q_stride) + 1)

(* RRs are indexed 0 .. an+ns+ar-1 in wire order; [answer i] is just
   index [i], authorities start at [ancount], additionals after. *)
let rr_name v i = v.rrs.(i * rr_stride)
let rr_rtype v i = v.rrs.((i * rr_stride) + 1)
let rr_ttl v i = v.rrs.((i * rr_stride) + 2)
let rr_rdlen v i = v.rrs.((i * rr_stride) + 3)
let rr_rdata v i = v.rrs.((i * rr_stride) + 4)

(* {1 Encoding: the reusable arena} *)

type arena = {
  mutable out : Bytes.t;
  mutable pos : int;
  (* Compression table: offsets (always < 0x4000) at which a name suffix
     was written.  Suffixes are compared by re-reading the output buffer
     (following pointers), so the table itself is just ints. *)
  mutable noffs : int array;
  mutable n_noffs : int;
}

let arena ?(capacity = 512) () =
  { out = Bytes.create (max 16 capacity); pos = 0; noffs = Array.make 16 0; n_noffs = 0 }

let reset a =
  a.pos <- 0;
  a.n_noffs <- 0

let length a = a.pos
let contents a = Bytes.sub_string a.out 0 a.pos

let ensure a extra =
  let needed = a.pos + extra in
  let cap = Bytes.length a.out in
  if needed > cap then begin
    let bigger = Bytes.create (max needed (2 * cap)) in
    Bytes.blit a.out 0 bigger 0 a.pos;
    a.out <- bigger
  end

let add_u8 a v =
  ensure a 1;
  Bytes.unsafe_set a.out a.pos (Char.unsafe_chr (v land 0xFF));
  a.pos <- a.pos + 1

let add_u16 a v =
  ensure a 2;
  Bytes.unsafe_set a.out a.pos (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set a.out (a.pos + 1) (Char.unsafe_chr (v land 0xFF));
  a.pos <- a.pos + 2

let add_u32 a v =
  add_u16 a ((v lsr 16) land 0xFFFF);
  add_u16 a (v land 0xFFFF)

let add_string a s =
  let n = String.length s in
  ensure a n;
  Bytes.blit_string s 0 a.out a.pos n;
  a.pos <- a.pos + n

let add_substring a s off len =
  ensure a len;
  Bytes.blit_string s off a.out a.pos len;
  a.pos <- a.pos + len

(* Does the (already written) name at [off] — following pointers — spell
   exactly [suffix]?  Recorded names only ever point backward at other
   recorded names, so the chase terminates.  Every read is bounded by
   [a.pos]: the offsets recorded for the name currently being written
   are followed by not-yet-written bytes, and reading those would make
   a name spuriously self-match against buffer garbage. *)
let rec suffix_eq_at a off suffix =
  off < a.pos
  &&
  let b = Char.code (Bytes.unsafe_get a.out off) in
  if b = 0 then suffix = []
  else if b >= 0xC0 then
    off + 2 <= a.pos
    &&
    let target =
      ((b land 0x3F) lsl 8) lor Char.code (Bytes.unsafe_get a.out (off + 1))
    in
    suffix_eq_at a target suffix
  else
    match suffix with
    | [] -> false
    | label :: rest ->
        String.length label = b
        && off + 1 + b <= a.pos
        && (let rec eq i =
              i >= b
              || (Bytes.unsafe_get a.out (off + 1 + i) = String.unsafe_get label i
                 && eq (i + 1))
            in
            eq 0)
        && suffix_eq_at a (off + 1 + b) rest

let find_suffix a suffix =
  let rec go i =
    if i >= a.n_noffs then -1
    else if suffix_eq_at a a.noffs.(i) suffix then a.noffs.(i)
    else go (i + 1)
  in
  go 0

let record_suffix a off =
  if a.n_noffs = Array.length a.noffs then begin
    let bigger = Array.make (2 * a.n_noffs) 0 in
    Array.blit a.noffs 0 bigger 0 a.n_noffs;
    a.noffs <- bigger
  end;
  a.noffs.(a.n_noffs) <- off;
  a.n_noffs <- a.n_noffs + 1

(* Same decision procedure as the legacy Hashtbl encoder: point at a
   previously written equal suffix (offsets are only recorded below
   0x4000, the pointer's reach), otherwise record this suffix's offset
   and write the leading label.  Label lengths are validated here so a
   bad length can never reach the wire as a reserved/pointer bit
   pattern; the message matches the legacy encoder's. *)
let add_name a ~compress labels =
  let rec go suffix =
    match suffix with
    | [] -> add_u8 a 0
    | label :: rest ->
        let off = if compress then find_suffix a suffix else -1 in
        if off >= 0 then add_u16 a (0xC000 lor off)
        else begin
          if compress && a.pos < 0x4000 then record_suffix a a.pos;
          let n = String.length label in
          if n = 0 || n > 63 then
            invalid_arg ("Dns.Packet.encode: bad label length " ^ string_of_int n);
          add_u8 a n;
          add_string a label;
          go rest
        end
  in
  go labels
