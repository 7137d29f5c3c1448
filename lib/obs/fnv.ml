type t = int64

let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let word h x = Int64.mul (Int64.logxor h x) prime
let int h i = word h (Int64.of_int i)
let float h f = word h (Int64.bits_of_float f)

(* A plain loop: checkpoint content hashes fold whole serialised
   snapshots through here. *)
let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := word !h (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  !h

let hex h = Printf.sprintf "%016Lx" h
