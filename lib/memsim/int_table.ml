(* [Stdlib.Hashtbl]'s chained table written out for [int] keys, so the
   hash and the key compare are inline code rather than calls through a
   functor argument (which, without flambda, [Hashtbl.Make] makes on
   every probe).  The buckets, the initial size, the growth rule (double
   once the table holds more than twice as many bindings as buckets) and
   the order a resize keeps within a bucket are [Hashtbl]'s, so a fold
   visits the bindings in exactly the order [Hashtbl.Make] over the same
   hash would.

   Fibonacci hashing: the multiply spreads the low bits of the key (page
   indices are dense, stack slots share their low two bits) over the high
   bits, and the shift brings well-mixed bits down to where the bucket
   mask takes them. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable data : 'a bucket array; initial_size : int }

let[@inline] index h key = ((key * 0x9E3779B1) lsr 16) land (Array.length h.data - 1)

let create n =
  let rec power_2_above x = if x >= n || x * 2 > Sys.max_array_length then x else power_2_above (x * 2) in
  let s = power_2_above 16 in
  { size = 0; data = Array.make s Empty; initial_size = s }

let reset h =
  if Array.length h.data = h.initial_size then begin
    if h.size > 0 then begin
      h.size <- 0;
      Array.fill h.data 0 (Array.length h.data) Empty
    end
  end
  else begin
    h.size <- 0;
    h.data <- Array.make h.initial_size Empty
  end

let length h = h.size

(* Double the buckets, appending each binding to the tail of its new
   bucket in old-bucket order, as [Hashtbl]'s in-place resize does. *)
let rec insert h ndata tails = function
  | Empty -> ()
  | Cons c as cell ->
      let next = c.next in
      let i = index h c.key in
      (match tails.(i) with Empty -> ndata.(i) <- cell | Cons t -> t.next <- cell);
      tails.(i) <- cell;
      insert h ndata tails next

let resize h =
  let odata = h.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    h.data <- ndata;
    Array.iter (insert h ndata tails) odata;
    Array.iter (function Empty -> () | Cons t -> t.next <- Empty) tails
  end

let push h i key data =
  h.data.(i) <- Cons { key; data; next = h.data.(i) };
  h.size <- h.size + 1;
  if h.size > Array.length h.data lsl 1 then resize h

let add h key data = push h (index h key) key data

let rec remove_in h i key prec = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = key then begin
        h.size <- h.size - 1;
        match prec with Empty -> h.data.(i) <- c.next | Cons p -> p.next <- c.next
      end
      else remove_in h i key cell c.next

let remove h key =
  let i = index h key in
  remove_in h i key Empty h.data.(i)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let find h key = find_in key (Array.unsafe_get h.data (index h key))

let rec find_or_in key default = function
  | Empty -> default
  | Cons c -> if c.key = key then c.data else find_or_in key default c.next

let find_or h key ~default = find_or_in key default (Array.unsafe_get h.data (index h key))

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt h key = find_opt_in key (Array.unsafe_get h.data (index h key))

let rec mem_in key = function Empty -> false | Cons c -> c.key = key || mem_in key c.next
let mem h key = mem_in key (Array.unsafe_get h.data (index h key))

(* Rebinds the key in place; false when it has no binding. *)
let rec replace_in key data = function
  | Empty -> false
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        true
      end
      else replace_in key data c.next

let replace h key data =
  let i = index h key in
  if not (replace_in key data h.data.(i)) then push h i key data

let fold f h init =
  let rec go acc = function Empty -> acc | Cons c -> go (f c.key c.data acc) c.next in
  Array.fold_left go init h.data
