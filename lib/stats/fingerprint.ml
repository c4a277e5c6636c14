type t = { mutable h : int64 }

let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let create () = { h = fnv_offset_basis }
let resume h = { h }

(* Every [add_*] below folds its bytes into a local [int64] that the
   compiler keeps unboxed, and stores into [t.h] once per call: the
   stored value is what a byte-at-a-time fold gives, but only the final
   store boxes. *)

let add_byte t b =
  t.h <- Int64.mul (Int64.logxor t.h (Int64.of_int (b land 0xff))) fnv_prime

(* the eight bytes of [x], low byte first, folded into [h] *)
let[@inline] fold_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))
        fnv_prime
  done;
  !h

let add_int64 t x = t.h <- fold_int64 t.h x
let add_int t x = add_int64 t (Int64.of_int x)
let add_float t x = add_int64 t (Int64.bits_of_float x)
let add_bool t b = add_byte t (if b then 1 else 0)

let add_string t s =
  let h = ref t.h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  (* length fold keeps ["ab";"c"] distinct from ["a";"bc"] *)
  t.h <- fold_int64 !h (Int64.of_int (String.length s))

let add_floats t xs =
  let h = ref t.h in
  for i = 0 to Array.length xs - 1 do
    h := fold_int64 !h (Int64.bits_of_float xs.(i))
  done;
  t.h <- fold_int64 !h (Int64.of_int (Array.length xs))

let add_float_pairs t xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Fingerprint.add_float_pairs: length mismatch";
  let h = ref t.h in
  for i = 0 to Array.length xs - 1 do
    h := fold_int64 !h (Int64.bits_of_float xs.(i));
    h := fold_int64 !h (Int64.bits_of_float ys.(i))
  done;
  t.h <- !h

let add_ints t xs =
  let h = ref t.h in
  for i = 0 to Array.length xs - 1 do
    h := fold_int64 !h (Int64.of_int xs.(i))
  done;
  t.h <- fold_int64 !h (Int64.of_int (Array.length xs))

let value t = t.h

let to_hex t =
  (* [Printf.sprintf "%016Lx"] spelled out, so a digest allocates only
     its 16-byte string *)
  let digits = "0123456789abcdef" in
  let h = t.h in
  let s = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble =
      Int64.to_int (Int64.logand (Int64.shift_right_logical h (4 * (15 - i))) 0xfL)
    in
    Bytes.unsafe_set s i digits.[nibble]
  done;
  Bytes.unsafe_to_string s

let to_seed t =
  (* fold to a non-negative OCaml int, mixing the top bit back in *)
  let x = t.h in
  let folded = Int64.logxor x (Int64.shift_right_logical x 61) in
  Int64.to_int (Int64.logand folded 0x3fffffffffffffffL)
