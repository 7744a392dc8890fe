(* SplitMix64, truncated to OCaml's 63-bit native int.  Chosen for
   determinism and statelessness across platforms; quality is ample for
   layout randomization and simulation jitter. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_raw t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Keep 62 bits so the result is always a non-negative native int. *)
let next64 t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let split t =
  let seed = next64 t in
  { state = Int64.of_int seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next64 t mod bound

let bits t n =
  if n < 0 || n > 30 then invalid_arg "Rng.bits: n must be in [0, 30]";
  if n = 0 then 0 else next64 t land ((1 lsl n) - 1)

let bool t = next64 t land 1 = 1

(* A draw adds [golden] to the state and mixes a copy, so [n] draws add
   [n * golden] (mod 2^64) and leave nothing else behind. *)
let skip t n =
  if n < 0 then invalid_arg "Rng.skip: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden)

let float t = Float.of_int (next64 t land ((1 lsl 53) - 1)) /. Float.of_int (1 lsl 53)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
