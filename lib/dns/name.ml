type t = string list

(* Construction is total over its stated domain: anything accepted here
   encodes, and [to_string] round-trips it.  Silently dropping empty
   labels ("a..b" -> ["a"; "b"]) or letting a 200-byte label through
   only to explode later inside [encode] made malformed input
   indistinguishable from a clean name until far from its source. *)
let of_string s =
  match s with
  | "" | "." -> []
  | s ->
      (* A single trailing dot is the standard fully-qualified spelling;
         strip it before splitting so "a.b." parses like "a.b". *)
      let n = String.length s in
      let s = if s.[n - 1] = '.' then String.sub s 0 (n - 1) else s in
      let labels = String.split_on_char '.' s in
      List.iter
        (fun l ->
          if l = "" then
            invalid_arg ("Dns.Name.of_string: empty label in " ^ Printf.sprintf "%S" s);
          if String.length l > 63 then
            invalid_arg
              ("Dns.Name.of_string: label exceeds 63 bytes: " ^ Printf.sprintf "%S" l))
        labels;
      labels

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let to_string = function [] -> "." | labels -> String.concat "." labels

let valid labels =
  List.for_all (fun l -> String.length l >= 1 && String.length l <= 63) labels
  && List.fold_left (fun acc l -> acc + 1 + String.length l) 1 labels <= 255

let encoded_size labels =
  List.fold_left
    (fun size label ->
      let n = String.length label in
      if n = 0 || n > 63 then
        invalid_arg ("Dns.Name.encode: bad label length " ^ string_of_int n);
      size + 1 + n)
    1 labels

let rec write_encoded b pos = function
  | [] -> Bytes.set b pos '\x00'
  | label :: rest ->
      let n = String.length label in
      Bytes.set b pos (Char.chr n);
      Bytes.blit_string label 0 b (pos + 1) n;
      write_encoded b (pos + 1 + n) rest

let encode labels =
  let b = Bytes.create (encoded_size labels) in
  write_encoded b 0 labels;
  Bytes.unsafe_to_string b

(* The permissive walker behind {!expand_like_connman}: [emit] receives
   each label's length byte and raw bytes.  Pointer loops are detected by
   bounding the number of pointer hops by the message size.  Compression
   pointers may point anywhere in the message, forward and at themselves
   included, and label lengths 64–191 are accepted: the Listing-1 exploit
   depends on Connman-style forward/self pointers, and the exploit matrix
   pins {!expand_like_connman} byte-for-byte.  The strict walk real
   resolvers need is {!Wire.walk}. *)
let walk msg off ~emit =
  let len = String.length msg in
  let byte i =
    if i < 0 || i >= len then Error "truncated name" else Ok (Char.code msg.[i])
  in
  let rec go pos hops consumed_at_top jumped acc_len =
    if hops > len then Error "compression pointer loop"
    else
      match byte pos with
      | Error _ as e -> e
      | Ok 0 ->
          let consumed = if jumped then consumed_at_top else pos + 1 - off in
          Ok consumed
      | Ok b when b >= 0xC0 -> (
          match byte (pos + 1) with
          | Error _ as e -> e
          | Ok lo ->
              let target = ((b land 0x3F) lsl 8) lor lo in
              if target >= len then Error "pointer out of range"
              else
                let consumed_at_top =
                  if jumped then consumed_at_top else pos + 2 - off
                in
                go target (hops + 1) consumed_at_top true acc_len)
      | Ok b ->
          if pos + 1 + b > len then Error "truncated label"
          else begin
            emit b (String.sub msg (pos + 1) b);
            let acc_len = acc_len + 1 + b in
            if acc_len > 65536 then Error "name expansion too large"
            else go (pos + 1 + b) hops consumed_at_top jumped acc_len
          end
  in
  go off 0 0 false 0

let expand_like_connman ?(limit = 65536) msg off =
  let buf = Buffer.create 64 in
  let overrun = ref false in
  let emit len label =
    if Buffer.length buf < limit then begin
      Buffer.add_char buf (Char.chr len);
      Buffer.add_string buf label
    end
    else overrun := true
  in
  match walk msg off ~emit with
  | Ok consumed ->
      if !overrun then Error "expansion exceeds simulation limit"
      else Ok (Buffer.contents buf, consumed)
  | Error e -> Error e
