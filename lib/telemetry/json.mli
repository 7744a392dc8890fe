(** Minimal JSON: the one printer every experiment, trace and bench
    document goes through, and the parser the smoke tests ("the exported
    file must parse") and the bench regression comparator read them
    back with, without pulling a JSON library into the dependency set. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val print : value -> string
(** Deterministic rendering: object members in list order, output ends
    with one newline.  A container at depth 0 or 1 that holds at least
    one container is written one member per line, indented two spaces
    per level; every other container is written on one line as
    [{"k": v, "k2": v}] or [[a, b]], empty ones as [{}] and [[]].
    Strings escape the double quote and the backslash, write newline,
    carriage return and tab as their two-character escapes and the
    other bytes below 0x20 as [\u00XX]; bytes from 0x80 up pass through
    raw.  [Int] prints in decimal; [Num] prints as the shortest decimal
    that reads back as the same float, always with a decimal point or
    an exponent.
    @raise Invalid_argument on a NaN or infinite [Num]. *)

val fixed : int -> float -> value
(** [fixed d x] is [x] rounded to [d] decimals (printf's [%.*f]), as a
    [Num].  Emitters quantize through it so that results which agree to
    [d] decimals print the same bytes. *)

val parse : string -> (value, string) result
(** Parses exactly one JSON value (surrounded by optional whitespace);
    [Error msg] pinpoints the offending byte offset otherwise.  An
    integer literal that fits an [int] becomes [Int], every other number
    [Num]; object member order is preserved. *)

val validate : string -> (unit, string) result
(** [parse] with the value discarded — syntax check only. *)

val member : string -> value -> value option
(** First member with that key of an [Obj]; [None] otherwise. *)

val to_list : value -> value list option
val to_int : value -> int option

val to_float : value -> float option
(** Accepts both [Int] and [Num]. *)

val to_string : value -> string option
