type value =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then pos := !pos + l
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let hex_val c =
    if c >= '0' && c <= '9' then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
    else Char.code c - Char.code 'A' + 10
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'
          | Some '\\' -> advance (); Buffer.add_char b '\\'
          | Some '/' -> advance (); Buffer.add_char b '/'
          | Some 'b' -> advance (); Buffer.add_char b '\b'
          | Some 'f' -> advance (); Buffer.add_char b '\012'
          | Some 'n' -> advance (); Buffer.add_char b '\n'
          | Some 'r' -> advance (); Buffer.add_char b '\r'
          | Some 't' -> advance (); Buffer.add_char b '\t'
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some c when is_hex c ->
                    code := (!code * 16) + hex_val c;
                    advance ()
                | _ -> fail "bad \\u escape"
              done;
              (* Keep it byte-simple: BMP code points UTF-8-encoded, no
                 surrogate-pair recombination — our own writers never emit
                 non-ASCII escapes. *)
              let c = !code in
              if c < 0x80 then Buffer.add_char b (Char.chr c)
              else if c < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (c lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (c lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
              end
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some c ->
          advance ();
          Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let digits () =
    let start = !pos in
    while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected digit"
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some c when c >= '1' && c <= '9' -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) in
    match if integral then int_of_string_opt lit else None with
    | Some n -> Int n
    | None -> Num (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (string_lit ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some 't' -> literal "true"; Bool true
    | Some 'f' -> literal "false"; Bool false
    | Some 'n' -> literal "null"; Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad (!pos, "trailing garbage"));
    Ok v
  with Bad (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let validate s = Result.map (fun (_ : value) -> ()) (parse s)

(* --- accessors ----------------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_float = function Int n -> Some (float_of_int n) | Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None

(* --- printer ------------------------------------------------------------- *)

let fixed d x = Num (float_of_string (Printf.sprintf "%.*f" d x))

(* Shortest of %.15g/%.16g/%.17g that reads back as [f]: a float that
   some decimal of <= 15 significant digits names is printed as that
   decimal by %.15g, so the first hit is the shortest.  A "." is added
   when the digits alone would read back as an integer. *)
let number f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json.print: %h is not a JSON number" f);
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_container = function Arr _ | Obj _ -> true | _ -> false

(* A container at depth 0 or 1 holding a container gets one member per
   line, indented two spaces per level; everything else is one line. *)
let print v =
  let b = Buffer.create 4096 in
  let rec value depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> escape b s
    | Arr vs -> container depth '[' ']' (List.map (fun v -> (None, v)) vs)
    | Obj kvs -> container depth '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  and container depth opening closing members =
    let multiline = depth <= 1 && List.exists (fun (_, v) -> is_container v) members in
    let indent = String.make (2 * (depth + 1)) ' ' in
    Buffer.add_char b opening;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_string b (if multiline then "," else ", ");
        if multiline then (Buffer.add_char b '\n'; Buffer.add_string b indent);
        Option.iter (fun k -> escape b k; Buffer.add_string b ": ") key;
        value (depth + 1) v)
      members;
    if multiline then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (2 * depth) ' ')
    end;
    Buffer.add_char b closing
  in
  value 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
