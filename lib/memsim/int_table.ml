(* Fibonacci hashing: the multiply spreads the low bits of the key
   (page indices are dense, stack slots share their low two bits) over
   the high bits, and the shift brings well-mixed bits down to where
   [Hashtbl] masks. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = (x * 0x9E3779B1) lsr 16
end)
