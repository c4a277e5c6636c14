(* Machine speed, read with fixed kernels that run none of the program's
   code.

   The benchmark was built on a shared 2-vCPU VM whose cores run at a
   speed that varies by up to 1.6x, in episodes from a fraction of a
   second to many minutes, with no steal time to show for it. Every
   CPU-bound metric moves with that speed: ten raw runs of one commit
   spread by up to 30% between the first and third quartile, and a set
   of runs made an hour later can be slower throughout.

   So the harness reads the machine's speed right before and right after
   every measured slice and every set-up, while the clients are paused
   and the server is idle, and divides the times it measured by the
   slowdown those readings give (see README.md, "Machine speed"). Three
   kernels make a reading: scattered reads of a 2 MiB
   table, data-dependent branches, and floating-point arithmetic. Each
   runs [runs] times; a reading is the geometric mean of their median
   times. A fourth candidate, a pointer chase through the same table,
   tracked the program worse and swung fivefold, so it is not used. The
   kernels allocate nothing, so the garbage the clients left in this
   process never costs a reading a collection. *)

(* a typical reading on the reference VM; it only sets the scale *)
let reference_ms = 1.7

let runs = 8
let size = 1 lsl 18

let table =
  lazy
    (let a = Array.init size Fun.id in
     let s = ref 12345 in
     for i = size - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3fffffff;
       let j = !s mod (i + 1) in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let reads () =
  let a = Lazy.force table in
  let acc = ref 0 in
  for i = 1 to 300_000 do
    acc := !acc + a.((i * 7919) land (size - 1))
  done;
  ignore (Sys.opaque_identity !acc)

let branches () =
  let acc = ref 0 and h = ref 88172645463325252 in
  for _ = 1 to 300_000 do
    h := !h lxor (!h lsl 13);
    h := !h lxor (!h lsr 7);
    h := !h lxor (!h lsl 17);
    if !h land 3 = 0 then incr acc else acc := !acc lxor !h
  done;
  ignore (Sys.opaque_identity !acc)

let arithmetic () =
  let f = ref 1.0 in
  for i = 1 to 300_000 do
    f := sqrt ((!f *. 1.0000001) +. float_of_int (i land 7))
  done;
  ignore (Sys.opaque_identity !f)

let median_ms kernel =
  let t =
    Array.init runs (fun _ ->
        let t0 = Iflow_obs.Clock.now_ns () in
        kernel ();
        float_of_int (Iflow_obs.Clock.now_ns () - t0) /. 1e6)
  in
  Iflow_stats.Descriptive.median t

(* One reading, in ms. *)
let sample () =
  ignore (Lazy.force table);
  exp ((log (median_ms reads) +. log (median_ms branches) +. log (median_ms arithmetic)) /. 3.0)

(* The program slows more than the kernels do: over 160 runs of the four
   workloads in four sets, its times grew as this power of the readings'.
   Spreads between the quartiles of ten runs were at most 8% with it,
   against 13% with 1 or 2. *)
let exponent = 1.5

(* The slowdown against the reference of something measured between two
   readings: above 1 when slower. *)
let factor ~before ~after = ((before +. after) /. (2.0 *. reference_ms)) ** exponent
