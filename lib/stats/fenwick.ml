type t = {
  tree : float array; (* 1-based Fenwick array *)
  weights : float array; (* exact current weights, source of truth *)
  n : int;
  mutable pow2 : int; (* largest power of two <= n, for find_prefix *)
}

let top_power_of_two n =
  let p = ref 1 in
  while !p * 2 <= n do
    p := !p * 2
  done;
  !p

let create n =
  if n < 0 then invalid_arg "Fenwick.create: negative size";
  {
    tree = Array.make (n + 1) 0.0;
    weights = Array.make n 0.0;
    n;
    pow2 = (if n = 0 then 0 else top_power_of_two n);
  }

let[@inline] add_internal t i delta =
  let i = ref (i + 1) in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) +. delta;
    i := !i + (!i land - !i)
  done

(* Cell j holds the in-order fold, from 0.0, of the weights in
   (j - lowbit j, j], 1-based: the floats [add_internal] leaves there
   after one add per weight in index order. For lowbit j >= 2 the
   cell j - lowbit j / 2 already holds the fold of that range's first
   half, so j continues from it over the second half only. *)
let build t =
  let tree = t.tree and weights = t.weights in
  for j = 1 to t.n do
    let low = j land -j in
    let acc = ref (if low = 1 then 0.0 else tree.(j - (low / 2))) in
    for i = j - ((low + 1) / 2) to j - 1 do
      acc := !acc +. weights.(i)
    done;
    tree.(j) <- !acc
  done

let of_array weights =
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Fenwick.of_array: negative weight")
    weights;
  let t = create (Array.length weights) in
  Array.blit weights 0 t.weights 0 t.n;
  build t;
  t

let get t i = t.weights.(i)

let[@inline] set t i w =
  if w < 0.0 then invalid_arg "Fenwick.set: negative weight";
  let delta = w -. t.weights.(i) in
  t.weights.(i) <- w;
  add_internal t i delta

(* The hot functions below are [@inline], and [uniform] below is
   [Rng.uniform] made here, so the floats of [sample] and
   [propose_complement] stay unboxed: without flambda a float that
   crosses a function call is boxed. *)
let[@inline] prefix_sum t i =
  let acc = ref 0.0 in
  let i = ref i in
  while !i > 0 do
    acc := !acc +. t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

let[@inline] total t = prefix_sum t t.n

(* Standard Fenwick descent: find smallest index whose inclusive prefix
   sum exceeds u. Clamps to the last index to absorb float round-off at
   the upper boundary. *)
let[@inline] find_prefix t u =
  if t.n = 0 then invalid_arg "Fenwick.find_prefix: empty tree";
  let pos = ref 0 in
  let remaining = ref u in
  let step = ref t.pow2 in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.n && t.tree.(next) <= !remaining then begin
      pos := next;
      remaining := !remaining -. t.tree.(next)
    end;
    step := !step / 2
  done;
  if !pos >= t.n then t.n - 1 else !pos

let[@inline] uniform rng = Float.of_int (Rng.bits53 rng) *. 0x1.p-53

let sample rng t =
  let z = total t in
  if not (z > 0.0) then invalid_arg "Fenwick.sample: zero total weight";
  find_prefix t (uniform rng *. z)

let complement t i = set t i (1.0 -. t.weights.(i))

let propose_complement rng t =
  let z = total t in
  if not (z > 0.0) then -1
  else begin
    let i = find_prefix t (uniform rng *. z) in
    (* Complementing w_i makes the total Z' = Z + 1 - 2 w_i *)
    let z' = z +. 1.0 -. (2.0 *. t.weights.(i)) in
    let a = if z < z' then z /. z' else 1.0 in
    if uniform rng <= a then i else -1
  end

let rebuild = build
