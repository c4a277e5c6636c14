open Iflow_stats

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ---------- Special functions ---------- *)

let test_log_gamma_reference () =
  check_close "lgamma 1" 0.0 (Special.log_gamma 1.0);
  check_close "lgamma 2" 0.0 (Special.log_gamma 2.0);
  check_close ~eps:1e-10 "lgamma 0.5" 0.5723649429247001 (Special.log_gamma 0.5);
  check_close ~eps:1e-10 "lgamma 5" 3.1780538303479458 (Special.log_gamma 5.0);
  check_close ~eps:1e-9 "lgamma 10" 12.801827480081469 (Special.log_gamma 10.0);
  check_close ~eps:1e-8 "lgamma 0.1" 2.252712651734206 (Special.log_gamma 0.1)

let test_log_gamma_recurrence () =
  (* Gamma(x+1) = x Gamma(x) over a sweep of x. *)
  let x = ref 0.3 in
  while !x < 30.0 do
    let lhs = Special.log_gamma (!x +. 1.0) in
    let rhs = Special.log_gamma !x +. Float.log !x in
    check_close ~eps:1e-8 (Printf.sprintf "recurrence at %g" !x) rhs lhs;
    x := !x +. 0.7
  done

let test_log_gamma_invalid () =
  Alcotest.check_raises "x = 0" (Invalid_argument "Special.log_gamma: x = 0 <= 0")
    (fun () -> ignore (Special.log_gamma 0.0))

let test_log_beta () =
  (* B(1,1) = 1; B(2,3) = 1/12; B(0.5,0.5) = pi *)
  check_close "logB(1,1)" 0.0 (Special.log_beta 1.0 1.0);
  check_close ~eps:1e-10 "logB(2,3)" (Float.log (1.0 /. 12.0))
    (Special.log_beta 2.0 3.0);
  check_close ~eps:1e-10 "logB(.5,.5)" (Float.log Float.pi)
    (Special.log_beta 0.5 0.5)

let test_log_choose () =
  check_close "C(10,3)" (Float.log 120.0) (Special.log_choose 10 3);
  check_close "C(5,0)" 0.0 (Special.log_choose 5 0);
  check_close "C(5,5)" 0.0 (Special.log_choose 5 5);
  check_close ~eps:1e-8 "C(50,25)"
    (Float.log 126410606437752.0) (Special.log_choose 50 25)

let test_betai_reference () =
  check_close "I_x(1,1) = x" 0.42 (Special.betai 1.0 1.0 0.42);
  check_close ~eps:1e-10 "I_.5(2,2)" 0.5 (Special.betai 2.0 2.0 0.5);
  (* I_x(2,5) = P(Binomial(6, .3) >= 2) at x = .3 *)
  check_close ~eps:1e-9 "I_.3(2,5)" 0.579825 (Special.betai 2.0 5.0 0.3);
  check_close "I_0" 0.0 (Special.betai 3.0 4.0 0.0);
  check_close "I_1" 1.0 (Special.betai 3.0 4.0 1.0)

let test_betai_symmetry () =
  (* I_x(a,b) = 1 - I_{1-x}(b,a) *)
  List.iter
    (fun (a, b, x) ->
      check_close ~eps:1e-9
        (Printf.sprintf "symmetry a=%g b=%g x=%g" a b x)
        (1.0 -. Special.betai b a (1.0 -. x))
        (Special.betai a b x))
    [ (2.0, 3.0, 0.2); (5.5, 1.2, 0.7); (10.0, 10.0, 0.5); (0.5, 8.0, 0.01) ]

let test_betai_inv_roundtrip () =
  List.iter
    (fun (a, b, p) ->
      let x = Special.betai_inv a b p in
      check_close ~eps:1e-7
        (Printf.sprintf "roundtrip a=%g b=%g p=%g" a b p)
        p (Special.betai a b x))
    [ (1.0, 1.0, 0.3); (2.0, 5.0, 0.95); (16.0, 4.0, 0.025); (3.0, 3.0, 0.5) ]

(* ---------- Distributions ---------- *)

let rng () = Rng.create 42

let test_gaussian_moments () =
  let r = rng () in
  let xs = Array.init 20000 (fun _ -> Dist.gaussian r ~mean:2.0 ~std:3.0) in
  check_close ~eps:0.1 "mean" 2.0 (Descriptive.mean xs);
  check_close ~eps:0.15 "std" 3.0 (Descriptive.std xs)

let test_gaussian_log_pdf () =
  check_close ~eps:1e-12 "standard normal at 0"
    (-0.5 *. Float.log (2.0 *. Float.pi))
    (Dist.gaussian_log_pdf ~mean:0.0 ~std:1.0 0.0);
  check_close ~eps:1e-12 "shifted"
    (Dist.gaussian_log_pdf ~mean:0.0 ~std:1.0 1.5)
    (Dist.gaussian_log_pdf ~mean:2.0 ~std:1.0 3.5)

let test_gamma_moments () =
  let r = rng () in
  let xs = Array.init 20000 (fun _ -> Dist.gamma r ~shape:3.0 ~scale:2.0) in
  check_close ~eps:0.15 "mean" 6.0 (Descriptive.mean xs);
  (* var = shape * scale^2 = 12 *)
  check_close ~eps:0.6 "variance" 12.0 (Descriptive.variance xs);
  let small = Array.init 20000 (fun _ -> Dist.gamma r ~shape:0.5 ~scale:1.0) in
  check_close ~eps:0.05 "small-shape mean" 0.5 (Descriptive.mean small)

let test_binomial_bounds_and_mean () =
  let r = rng () in
  List.iter
    (fun (n, p) ->
      let xs = Array.init 5000 (fun _ -> Dist.binomial r ~n ~p) in
      Array.iter
        (fun k ->
          if k < 0 || k > n then Alcotest.failf "binomial out of range: %d" k)
        xs;
      let mean = Descriptive.mean (Array.map float_of_int xs) in
      let expect = float_of_int n *. p in
      let tol = 4.0 *. Float.sqrt (float_of_int n *. p *. (1.0 -. p)) /. Float.sqrt 5000.0 +. 0.02 in
      check_close ~eps:tol (Printf.sprintf "mean n=%d p=%g" n p) expect mean)
    [ (1, 0.3); (10, 0.5); (100, 0.05); (500, 0.9) ];
  Alcotest.(check int) "p=0" 0 (Dist.binomial r ~n:50 ~p:0.0);
  Alcotest.(check int) "p=1" 50 (Dist.binomial r ~n:50 ~p:1.0)

let test_binomial_log_pmf () =
  (* Binomial(4, .5): pmf(2) = 6/16 *)
  check_close ~eps:1e-12 "pmf(2;4,.5)" (Float.log (6.0 /. 16.0))
    (Dist.binomial_log_pmf ~n:4 ~p:0.5 2);
  check_close "pmf(0; n, 0)" 0.0 (Dist.binomial_log_pmf ~n:7 ~p:0.0 0);
  Alcotest.(check bool) "impossible" true
    (Dist.binomial_log_pmf ~n:7 ~p:0.0 1 = neg_infinity);
  (* sums to 1 *)
  let total =
    List.fold_left
      (fun acc k -> acc +. Float.exp (Dist.binomial_log_pmf ~n:12 ~p:0.37 k))
      0.0
      (List.init 13 (fun k -> k))
  in
  check_close ~eps:1e-10 "normalised" 1.0 total

let test_categorical () =
  let r = rng () in
  let weights = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10000 do
    let i = Dist.categorical r weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  check_close ~eps:0.03 "ratio" 0.25
    (float_of_int counts.(0) /. 10000.0)

(* ---------- Beta distribution ---------- *)

let test_beta_moments () =
  let b = Dist.Beta.v 16.0 4.0 in
  check_close "mean" 0.8 (Dist.Beta.mean b);
  check_close ~eps:1e-12 "variance" (16.0 *. 4.0 /. (400.0 *. 21.0))
    (Dist.Beta.variance b);
  check_close ~eps:1e-12 "mode" (15.0 /. 18.0) (Dist.Beta.mode b)

let test_beta_cdf_quantile () =
  let b = Dist.Beta.v 2.0 5.0 in
  check_close ~eps:1e-9 "cdf" 0.579825 (Dist.Beta.cdf b 0.3);
  let lo, hi = Dist.Beta.interval b 0.95 in
  check_close ~eps:1e-6 "interval mass" 0.95
    (Dist.Beta.cdf b hi -. Dist.Beta.cdf b lo);
  Alcotest.(check bool) "lo < mean < hi" true
    (lo < Dist.Beta.mean b && Dist.Beta.mean b < hi)

let test_beta_sampling () =
  let r = rng () in
  let b = Dist.Beta.v 3.0 7.0 in
  let xs = Array.init 20000 (fun _ -> Dist.Beta.sample r b) in
  Array.iter
    (fun x -> if x < 0.0 || x > 1.0 then Alcotest.failf "out of range %g" x)
    xs;
  check_close ~eps:0.01 "mean" 0.3 (Descriptive.mean xs);
  check_close ~eps:0.005 "variance" (Dist.Beta.variance b)
    (Descriptive.variance xs)

let test_beta_fit_moments () =
  let b = Dist.Beta.v 5.0 9.0 in
  (match
     Dist.Beta.fit_moments ~mean:(Dist.Beta.mean b)
       ~variance:(Dist.Beta.variance b)
   with
  | None -> Alcotest.fail "fit failed"
  | Some fitted ->
    check_close ~eps:1e-9 "alpha" 5.0 fitted.Dist.Beta.alpha;
    check_close ~eps:1e-9 "beta" 9.0 fitted.Dist.Beta.beta);
  Alcotest.(check bool) "impossible variance" true
    (Dist.Beta.fit_moments ~mean:0.5 ~variance:0.3 = None);
  Alcotest.(check bool) "degenerate mean" true
    (Dist.Beta.fit_moments ~mean:0.0 ~variance:0.01 = None)

let test_beta_of_counts () =
  let b = Dist.Beta.of_counts ~successes:3 ~failures:1 in
  check_close "alpha" 4.0 b.Dist.Beta.alpha;
  check_close "beta" 2.0 b.Dist.Beta.beta

let test_beta_log_pdf_normalised () =
  (* numeric integration of pdf over a grid *)
  let b = Dist.Beta.v 2.5 4.0 in
  let steps = 20000 in
  let h = 1.0 /. float_of_int steps in
  let total = ref 0.0 in
  for i = 0 to steps - 1 do
    let x = (float_of_int i +. 0.5) *. h in
    total := !total +. (Float.exp (Dist.Beta.log_pdf b x) *. h)
  done;
  check_close ~eps:1e-4 "integrates to 1" 1.0 !total

(* ---------- Fenwick ---------- *)

let test_fenwick_basic () =
  let t = Fenwick.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "total" 10.0 (Fenwick.total t);
  check_close "prefix 0" 0.0 (Fenwick.prefix_sum t 0);
  check_close "prefix 2" 3.0 (Fenwick.prefix_sum t 2);
  Fenwick.set t 1 5.0;
  check_close "after set" 13.0 (Fenwick.total t);
  check_close "get" 5.0 (Fenwick.get t 1);
  Alcotest.(check int) "find 0.5" 0 (Fenwick.find_prefix t 0.5);
  Alcotest.(check int) "find 1.5" 1 (Fenwick.find_prefix t 1.5);
  Alcotest.(check int) "find 12.9" 3 (Fenwick.find_prefix t 12.9)

let test_fenwick_zero_weight_skipped () =
  let t = Fenwick.of_array [| 0.0; 1.0; 0.0; 2.0 |] in
  let r = rng () in
  for _ = 1 to 2000 do
    let i = Fenwick.sample r t in
    if i = 0 || i = 2 then Alcotest.failf "sampled zero-weight index %d" i
  done

let test_fenwick_sampling_distribution () =
  let weights = [| 0.5; 0.0; 2.0; 1.5; 0.25 |] in
  let t = Fenwick.of_array weights in
  let r = rng () in
  let counts = Array.make 5 0 in
  let n = 40000 in
  for _ = 1 to n do
    let i = Fenwick.sample r t in
    counts.(i) <- counts.(i) + 1
  done;
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  Array.iteri
    (fun i w ->
      check_close ~eps:0.02
        (Printf.sprintf "frequency %d" i)
        (w /. total_weight)
        (float_of_int counts.(i) /. float_of_int n))
    weights

let test_fenwick_rebuild () =
  let t = Fenwick.of_array (Array.init 100 (fun i -> float_of_int i /. 7.0)) in
  let r = rng () in
  for _ = 1 to 10000 do
    Fenwick.set t (Rng.int r 100) (Rng.uniform r)
  done;
  let before = Fenwick.total t in
  Fenwick.rebuild t;
  check_close ~eps:1e-9 "rebuild preserves total" before (Fenwick.total t)

let prop_fenwick_matches_naive =
  QCheck.Test.make ~count:200 ~name:"fenwick prefix sums match naive"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 10.0))
    (fun weights ->
      let arr = Array.of_list (List.map Float.abs weights) in
      let t = Fenwick.of_array arr in
      let ok = ref true in
      let acc = ref 0.0 in
      Array.iteri
        (fun i w ->
          if Float.abs (Fenwick.prefix_sum t i -. !acc) > 1e-9 then ok := false;
          acc := !acc +. w)
        arr;
      !ok && Float.abs (Fenwick.total t -. !acc) < 1e-9)

(* The build [of_array] replaced: one [set] per index, in order. The
   new build must leave bit for bit the same sums, since the MH chain's
   proposals read them. *)
let prop_fenwick_build_matches_sets =
  QCheck.Test.make ~count:300 ~name:"of_array sums equal per-index sets bit for bit"
    QCheck.(list_of_size Gen.(0 -- 300) (float_bound_inclusive 10.0))
    (fun weights ->
      let arr = Array.of_list (List.map Float.abs weights) in
      let n = Array.length arr in
      let built = Fenwick.of_array arr and oracle = Fenwick.create n in
      Array.iteri (Fenwick.set oracle) arr;
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let ok = ref (same (Fenwick.total built) (Fenwick.total oracle)) in
      for i = 0 to n do
        if not (same (Fenwick.prefix_sum built i) (Fenwick.prefix_sum oracle i))
        then ok := false
      done;
      if n > 0 then begin
        let r1 = Rng.create n and r2 = Rng.create n in
        for _ = 1 to 50 do
          if not (same (Fenwick.total built) 0.0) then
            if Fenwick.sample r1 built <> Fenwick.sample r2 oracle then ok := false
        done;
        Fenwick.rebuild built;
        for i = 0 to n do
          if not (same (Fenwick.prefix_sum built i) (Fenwick.prefix_sum oracle i))
          then ok := false
        done
      end;
      !ok)

let prop_fenwick_find_prefix_correct =
  QCheck.Test.make ~count:200 ~name:"find_prefix returns covering index"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 30) (float_bound_inclusive 5.0))
        (float_bound_inclusive 0.999))
    (fun (weights, frac) ->
      let arr = Array.of_list (List.map (fun w -> Float.abs w +. 0.01) weights) in
      let t = Fenwick.of_array arr in
      let u = frac *. Fenwick.total t in
      let i = Fenwick.find_prefix t u in
      Fenwick.prefix_sum t i <= u +. 1e-9
      && u < Fenwick.prefix_sum t (i + 1) +. 1e-9)

(* ---------- Descriptive ---------- *)

let test_descriptive_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_close "mean" 3.0 (Descriptive.mean xs);
  check_close "variance" 2.5 (Descriptive.variance xs);
  check_close "median" 3.0 (Descriptive.median xs);
  check_close "q0" 1.0 (Descriptive.quantile xs 0.0);
  check_close "q1" 5.0 (Descriptive.quantile xs 1.0);
  check_close "q.25" 2.0 (Descriptive.quantile xs 0.25);
  let lo, hi = Descriptive.min_max xs in
  check_close "min" 1.0 lo;
  check_close "max" 5.0 hi

let test_autocorrelation () =
  let constant = Array.make 50 3.0 in
  check_close "constant series" 0.0 (Descriptive.autocorrelation constant ~lag:1);
  let alternating = Array.init 100 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_close ~eps:1e-9 "lag 0" 1.0 (Descriptive.autocorrelation alternating ~lag:0);
  Alcotest.(check bool) "alternating lag 1 negative" true
    (Descriptive.autocorrelation alternating ~lag:1 < -0.9);
  Alcotest.(check bool) "alternating lag 2 positive" true
    (Descriptive.autocorrelation alternating ~lag:2 > 0.9);
  let r = rng () in
  let iid = Array.init 5000 (fun _ -> Rng.uniform r) in
  check_close ~eps:0.05 "iid lag 1 near zero" 0.0
    (Descriptive.autocorrelation iid ~lag:1)

let test_effective_sample_size () =
  let r = rng () in
  let n = 4000 in
  let iid = Array.init n (fun _ -> Rng.uniform r) in
  let ess = Descriptive.effective_sample_size iid in
  Alcotest.(check bool)
    (Printf.sprintf "iid ESS %.0f near n" ess)
    true
    (ess > 0.7 *. float_of_int n);
  (* a sticky AR(1)-style chain has far fewer effective samples *)
  let sticky = Array.make n 0.0 in
  for i = 1 to n - 1 do
    sticky.(i) <- (0.95 *. sticky.(i - 1)) +. Rng.uniform r
  done;
  let ess_sticky = Descriptive.effective_sample_size sticky in
  Alcotest.(check bool)
    (Printf.sprintf "sticky ESS %.0f much smaller" ess_sticky)
    true
    (ess_sticky < 0.2 *. float_of_int n)

let test_histogram () =
  let xs = [| 0.05; 0.15; 0.15; 0.95; -0.5; 1.5 |] in
  let h = Descriptive.histogram ~lo:0.0 ~hi:1.0 ~bins:10 xs in
  Alcotest.(check int) "bin 0" 1 h.Descriptive.counts.(0);
  Alcotest.(check int) "bin 1" 2 h.Descriptive.counts.(1);
  Alcotest.(check int) "bin 9" 1 h.Descriptive.counts.(9);
  Alcotest.(check int) "underflow" 1 h.Descriptive.underflow;
  Alcotest.(check int) "overflow" 1 h.Descriptive.overflow;
  check_close "center" 0.05 (Descriptive.histogram_bin_center h 0)

(* ---------- Measures ---------- *)

let p e o = { Measures.estimate = e; outcome = o }

let test_brier () =
  check_close "perfect" 0.0 (Measures.brier [ p 1.0 true; p 0.0 false ]);
  check_close "worst" 1.0 (Measures.brier [ p 0.0 true; p 1.0 false ]);
  check_close "half" 0.25 (Measures.brier [ p 0.5 true; p 0.5 false ])

let test_normalised_likelihood () =
  check_close ~eps:1e-6 "certain correct" (1.0 -. 1e-6)
    (Measures.normalised_likelihood [ p 1.0 true ]);
  check_close ~eps:1e-9 "uniform" 0.5
    (Measures.normalised_likelihood [ p 0.5 true; p 0.5 false ]);
  (* geometric mean of 0.8 and 0.4: answers 0.8-true and 0.6-true *)
  check_close ~eps:1e-9 "geometric mean"
    (Float.sqrt (0.8 *. 0.4))
    (Measures.normalised_likelihood [ p 0.8 true; p 0.6 false ])

let test_middle_values () =
  let preds = [ p 0.0 false; p 0.5 true; p 1.0 true; p 0.99 true ] in
  Alcotest.(check int) "filtered" 2 (List.length (Measures.middle_values preds))

let test_rmse () =
  check_close "zero" 0.0
    (Measures.rmse ~expected:[| 1.0; 2.0 |] ~actual:[| 1.0; 2.0 |]);
  check_close "known" (Float.sqrt 0.5)
    (Measures.rmse ~expected:[| 0.0; 0.0 |] ~actual:[| 1.0; 0.0 |] *. Float.sqrt 1.0);
  check_close "mae" 0.5 (Measures.mae ~expected:[| 0.0; 0.0 |] ~actual:[| 1.0; 0.0 |])

let test_table_row () =
  let row =
    Measures.table_row ~label:"x" [ p 0.0 false; p 0.6 true; p 0.7 false ]
  in
  Alcotest.(check int) "count all" 3 row.Measures.count_all;
  Alcotest.(check int) "count middle" 2 row.Measures.count_middle;
  Alcotest.(check bool) "middle brier present" true
    (row.Measures.brier_middle <> None)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_close "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* streams should differ *)
  let same = ref true in
  for _ = 1 to 20 do
    if Rng.uniform a <> Rng.uniform c then same := false
  done;
  Alcotest.(check bool) "split diverges" false !same

(* ---------- Fingerprint ---------- *)

(* FNV-1a one byte at a time, as the digest format defines it: integers
   as 8 little-endian bytes, floats as their IEEE-754 bits, strings and
   arrays with their length folded after their contents. *)
module Fnv_reference = struct
  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

  let int64 h x =
    let h = ref h in
    for i = 0 to 7 do
      h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
    done;
    !h

  let int h x = int64 h (Int64.of_int x)
  let float h x = int64 h (Int64.bits_of_float x)

  let string h s =
    int (String.fold_left (fun h c -> byte h (Char.code c)) h s) (String.length s)

  let floats h xs = int (Array.fold_left float h xs) (Array.length xs)
  let ints h xs = int (Array.fold_left int h xs) (Array.length xs)

  let float_pairs h xs ys =
    let h = ref h in
    Array.iteri (fun i x -> h := float (float !h x) ys.(i)) xs;
    !h
end

type fp_input =
  | Byte of int
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float
  | Str of string
  | Floats of float array
  | Ints of int array
  | Pairs of float array * float array

let reference h = function
  | Byte b -> Fnv_reference.byte h b
  | Bool b -> Fnv_reference.byte h (if b then 1 else 0)
  | Int x -> Fnv_reference.int h x
  | Int64 x -> Fnv_reference.int64 h x
  | Float x -> Fnv_reference.float h x
  | Str s -> Fnv_reference.string h s
  | Floats xs -> Fnv_reference.floats h xs
  | Ints xs -> Fnv_reference.ints h xs
  | Pairs (xs, ys) -> Fnv_reference.float_pairs h xs ys

let feed fp = function
  | Byte b -> Fingerprint.add_byte fp b
  | Bool b -> Fingerprint.add_bool fp b
  | Int x -> Fingerprint.add_int fp x
  | Int64 x -> Fingerprint.add_int64 fp x
  | Float x -> Fingerprint.add_float fp x
  | Str s -> Fingerprint.add_string fp s
  | Floats xs -> Fingerprint.add_floats fp xs
  | Ints xs -> Fingerprint.add_ints fp xs
  | Pairs (xs, ys) -> Fingerprint.add_float_pairs fp xs ys

let gen_fp_inputs =
  let open QCheck.Gen in
  let special =
    oneofl
      [ 0.0; -0.0; Float.nan; Int64.float_of_bits 0x7ff8_0000_dead_beefL; infinity;
        neg_infinity; Float.min_float; Float.max_float; 5e-324; 1.0 ]
  in
  let fl = frequency [ (1, special); (3, float) ] in
  let input =
    frequency
      [
        (1, map (fun b -> Byte b) (int_range (-300) 300));
        (1, map (fun b -> Bool b) bool);
        (2, map (fun x -> Int x) (oneof [ int; oneofl [ 0; -1; max_int; min_int ] ]));
        (1, map (fun x -> Int64 x) (map Int64.of_int int));
        (2, map (fun x -> Float x) fl);
        (2, map (fun s -> Str s) (string_size (0 -- 20)));
        (2, map (fun xs -> Floats xs) (array_size (0 -- 30) fl));
        (1, map (fun xs -> Ints xs) (array_size (0 -- 30) int));
        ( 1,
          map
            (fun xys -> Pairs (Array.map fst xys, Array.map snd xys))
            (array_size (0 -- 30) (pair fl fl)) );
      ]
  in
  pair (list_size (0 -- 12) input) nat

(* Every entry point gives the byte-at-a-time value, and so does a
   fingerprint resumed from any prefix's [value]. *)
let prop_fingerprint_matches_reference =
  QCheck.Test.make ~count:500 ~name:"fingerprint = byte-at-a-time FNV-1a"
    (QCheck.make gen_fp_inputs)
    (fun (inputs, cut) ->
      let expected = List.fold_left reference 0xcbf29ce484222325L inputs in
      let fp = Fingerprint.create () in
      List.iter (feed fp) inputs;
      let cut = cut mod (List.length inputs + 1) in
      let prefix = Fingerprint.create () in
      List.iteri (fun i x -> if i < cut then feed prefix x) inputs;
      let resumed = Fingerprint.resume (Fingerprint.value prefix) in
      List.iteri (fun i x -> if i >= cut then feed resumed x) inputs;
      Fingerprint.value fp = expected
      && Fingerprint.value resumed = expected
      && Fingerprint.to_hex fp = Printf.sprintf "%016Lx" expected)

let test_fingerprint_known_values () =
  Alcotest.(check string) "offset basis" "cbf29ce484222325"
    (Fingerprint.to_hex (Fingerprint.create ()));
  (* FNV-1a 64 of "a" is af63dc4c8601ec8c; add_string folds the length
     after the byte *)
  let fp = Fingerprint.create () in
  Fingerprint.add_byte fp (Char.code 'a');
  Alcotest.(check string) "FNV-1a \"a\"" "af63dc4c8601ec8c" (Fingerprint.to_hex fp);
  Alcotest.check_raises "pair lengths"
    (Invalid_argument "Fingerprint.add_float_pairs: length mismatch") (fun () ->
      Fingerprint.add_float_pairs fp [| 1.0 |] [||])

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let () =
  Alcotest.run "iflow_stats"
    [
      ( "special",
        [
          Alcotest.test_case "log_gamma reference" `Quick test_log_gamma_reference;
          Alcotest.test_case "log_gamma recurrence" `Quick test_log_gamma_recurrence;
          Alcotest.test_case "log_gamma invalid" `Quick test_log_gamma_invalid;
          Alcotest.test_case "log_beta" `Quick test_log_beta;
          Alcotest.test_case "log_choose" `Quick test_log_choose;
          Alcotest.test_case "betai reference" `Quick test_betai_reference;
          Alcotest.test_case "betai symmetry" `Quick test_betai_symmetry;
          Alcotest.test_case "betai_inv roundtrip" `Quick test_betai_inv_roundtrip;
        ] );
      ( "dist",
        [
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "gaussian log pdf" `Quick test_gaussian_log_pdf;
          Alcotest.test_case "gamma moments" `Quick test_gamma_moments;
          Alcotest.test_case "binomial bounds/mean" `Quick test_binomial_bounds_and_mean;
          Alcotest.test_case "binomial log pmf" `Quick test_binomial_log_pmf;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "beta",
        [
          Alcotest.test_case "moments" `Quick test_beta_moments;
          Alcotest.test_case "cdf and quantile" `Quick test_beta_cdf_quantile;
          Alcotest.test_case "sampling" `Quick test_beta_sampling;
          Alcotest.test_case "fit moments" `Quick test_beta_fit_moments;
          Alcotest.test_case "of_counts" `Quick test_beta_of_counts;
          Alcotest.test_case "pdf normalised" `Quick test_beta_log_pdf_normalised;
        ] );
      ( "fenwick",
        [
          Alcotest.test_case "basic" `Quick test_fenwick_basic;
          Alcotest.test_case "zero weights skipped" `Quick test_fenwick_zero_weight_skipped;
          Alcotest.test_case "sampling distribution" `Quick test_fenwick_sampling_distribution;
          Alcotest.test_case "rebuild" `Quick test_fenwick_rebuild;
        ]
        @ qcheck
            [
              prop_fenwick_matches_naive;
              prop_fenwick_build_matches_sets;
              prop_fenwick_find_prefix_correct;
            ] );
      ( "fingerprint",
        Alcotest.test_case "known values" `Quick test_fingerprint_known_values
        :: qcheck [ prop_fingerprint_matches_reference ] );
      ( "descriptive",
        [
          Alcotest.test_case "basics" `Quick test_descriptive_basics;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
          Alcotest.test_case "effective sample size" `Quick test_effective_sample_size;
        ] );
      ( "measures",
        [
          Alcotest.test_case "brier" `Quick test_brier;
          Alcotest.test_case "normalised likelihood" `Quick test_normalised_likelihood;
          Alcotest.test_case "middle values" `Quick test_middle_values;
          Alcotest.test_case "rmse" `Quick test_rmse;
          Alcotest.test_case "table row" `Quick test_table_row;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        ] );
    ]
