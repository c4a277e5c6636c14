(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so spreads printed here match the ones
   computed over result files with the standard library. They differ
   from [Iflow_stats.Descriptive.quantile], which interpolates between
   order statistics over [0, n - 1] and serves every other order
   statistic here. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (xs.(0), xs.(0), xs.(0))
  else
    let data = Array.copy xs in
    Array.sort Float.compare data;
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta))
      +. (data.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* A growable float buffer that a client thread appends latencies to. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end
