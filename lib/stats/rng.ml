type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; a lxor (b lsl 7) |]

(* The stdlib's [Random.State.float] draw, computed here: the top 53
   bits of one [bits64], redrawn when zero. As an int it crosses module
   boundaries unboxed; the float is made where it is used. *)
let rec bits53 t =
  let n = Int64.to_int (Int64.shift_right_logical (Random.State.bits64 t) 11) in
  if n <> 0 then n else bits53 t

let[@inline] uniform t = Float.of_int (bits53 t) *. 0x1.p-53
let float t bound = uniform t *. bound
let uniform_in t lo hi = lo +. float t (hi -. lo)
let int t bound = Random.State.int t bound
let bool t = Random.State.bool t
let bernoulli t p = uniform t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(Random.State.int t (Array.length a))

