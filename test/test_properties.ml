(* Cross-module property and fuzz tests. *)
open Iflow_core
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Rng = Iflow_stats.Rng
module Tweet = Iflow_twitter.Tweet
module Preprocess = Iflow_twitter.Preprocess
module Estimator = Iflow_mcmc.Estimator
module Conditions = Iflow_mcmc.Conditions
module Delay = Iflow_mcmc.Delay

let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

(* ---------- tweet parser fuzz ---------- *)

let printable_string =
  QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.printable)

let prop_parser_total =
  QCheck.Test.make ~count:500 ~name:"tweet parsers never raise" printable_string
    (fun text ->
      let _ = Tweet.mentions text in
      let _ = Tweet.hashtags text in
      let _ = Tweet.urls text in
      let _ = Tweet.retweet_chain text in
      true)

let prop_chain_root_is_suffix =
  QCheck.Test.make ~count:500 ~name:"retweet-chain root is a suffix"
    printable_string
    (fun text ->
      let _, root = Tweet.retweet_chain text in
      let n = String.length text and r = String.length root in
      r <= n && String.sub text (n - r) r = root)

let prop_chain_names_are_mentions =
  QCheck.Test.make ~count:300 ~name:"chain ancestors appear as mentions"
    QCheck.(pair (list_of_size Gen.(1 -- 4) (string_gen_of_size (Gen.return 3) (Gen.char_range 'a' 'z'))) printable_string)
    (fun (names, tail) ->
      let text =
        List.fold_right (fun n acc -> Printf.sprintf "RT @%s: %s" n acc) names tail
      in
      let chain, _ = Tweet.retweet_chain text in
      let mentions = Tweet.mentions text in
      List.for_all (fun n -> List.mem n mentions) chain)

let prop_cascades_total =
  QCheck.Test.make ~count:100 ~name:"cascade reconstruction never raises"
    QCheck.(list_of_size Gen.(0 -- 10) (pair printable_string small_nat))
    (fun rows ->
      let tweets =
        List.mapi
          (fun i (text, time) ->
            Tweet.make ~id:i ~author:(Printf.sprintf "u%d" (i mod 3)) ~time
              ~text)
          rows
      in
      let _ = Preprocess.cascades tweets in
      let _ = Preprocess.users tweets in
      true)

(* ---------- conditional sampling vs brute force ---------- *)

let prop_conditional_matches_brute_force =
  QCheck.Test.make ~count:5 ~name:"conditional MH matches brute force"
    QCheck.(int_range 0 500)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:6 ~edges:12 in
      let icm =
        Icm.create g (Array.init 12 (fun _ -> 0.15 +. (0.7 *. Rng.uniform rng)))
      in
      let conditions = [ (0, 2, true); (1, 5, false) ] in
      match Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:4 with
      | truth -> (
        match
          Estimator.flow_probability
            ~conditions:(Conditions.v conditions)
            rng icm
            { Estimator.burn_in = 1500; thin = 8; samples = 4000 }
            ~src:0 ~dst:4
        with
        | estimate -> Float.abs (estimate -. truth) < 0.05
        | exception Failure _ -> false)
      | exception Failure _ -> true (* conditions infeasible: nothing to test *))

(* Generated graphs of at most 12 edges, some with p = 0 or p = 1, each
   with 1-3 generated conditions of either sign on one or several
   sources. The start never refuses a feasible set and never accepts an
   infeasible one, it satisfies C with positive probability, and MH from
   it matches brute force. *)
let prop_generated_conditions =
  QCheck.Test.make ~count:300
    ~name:"generated conditions: start iff feasible, MH matches brute force"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 5 in
      let edges = 1 + Rng.int rng (min 12 (nodes * (nodes - 1))) in
      let g = Gen.gnm rng ~nodes ~edges in
      let icm =
        Icm.create g
          (Array.init edges (fun _ ->
               match Rng.int rng 6 with
               | 0 -> 0.0
               | 1 -> 1.0
               | _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
      in
      let conditions =
        List.fold_left
          (fun acc (u, v, r) ->
            if List.exists (fun (u', v', _) -> u = u' && v = v') acc then acc
            else acc @ [ (u, v, r) ])
          []
          (List.init (1 + Rng.int rng 3) (fun _ ->
               (Rng.int rng nodes, Rng.int rng nodes, Rng.bool rng)))
      in
      let src = Rng.int rng nodes and dst = Rng.int rng nodes in
      let truth =
        match Exact.brute_force_conditional icm ~conditions ~src ~dst with
        | p -> Some p
        | exception Failure _ -> None
      in
      let self_negative =
        List.exists (fun (u, v, r) -> u = v && not r) conditions
      in
      match Conditions.v conditions with
      | exception Invalid_argument _ ->
        (* a source always holds its own object: (u, u, false) is
           refused up front, the only set refused here *)
        if not self_negative || truth <> None then
          QCheck.Test.fail_reportf "refused a set with no self-negative condition";
        true
      | _ when self_negative ->
        QCheck.Test.fail_reportf "self-negative condition accepted"
      | c -> (
        match (truth, Conditions.initial_state rng icm c) with
        | None, None -> true
        | None, Some _ -> QCheck.Test.fail_reportf "start for an infeasible set"
        | Some _, None -> QCheck.Test.fail_reportf "no start for a feasible set"
        | Some p, Some s ->
          if not (Conditions.satisfied icm s c) then
            QCheck.Test.fail_reportf "start violates C";
          if not (Float.is_finite (Pseudo_state.log_prob icm s)) then
            QCheck.Test.fail_reportf "start has probability 0";
          (* 2,000 retained samples: worst error over these seeds is under
             half the tolerance *)
          let estimate =
            Estimator.flow_probability ~conditions:c rng icm
              { Estimator.burn_in = 1000; thin = 5; samples = 2000 }
              ~src ~dst
          in
          if Float.abs (estimate -. p) > 0.06 then
            QCheck.Test.fail_reportf "MH %.4f, brute force %.4f" estimate p;
          true))

(* ---------- grow/remove round trip ---------- *)

let prop_grow_remove_roundtrip =
  QCheck.Test.make ~count:50 ~name:"grow then remove restores the model"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:6 ~edges:10 in
      let model = Generator.default_beta_icm rng ~nodes:6 ~edges:0 in
      ignore model;
      let betas =
        Array.init 10 (fun _ ->
            Iflow_stats.Dist.Beta.v
              (1.0 +. Rng.uniform rng)
              (1.0 +. Rng.uniform rng))
      in
      let model = Beta_icm.create g betas in
      (* pick a fresh edge to add *)
      let rec fresh () =
        let s = Rng.int rng 6 and d = Rng.int rng 6 in
        if s <> d && not (Digraph.mem_edge g ~src:s ~dst:d) then (s, d)
        else fresh ()
      in
      let s, d = fresh () in
      let grown =
        Beta_icm.grow model ~new_nodes:0
          ~new_edges:[ (s, d, Iflow_stats.Dist.Beta.v 3.0 4.0) ]
      in
      let restored = Beta_icm.remove_edges grown [ (s, d) ] in
      Beta_icm.n_edges restored = 10
      && List.for_all
           (fun e ->
             let b = Beta_icm.edge_beta model e in
             let pair = (Digraph.edge_src g e, Digraph.edge_dst g e) in
             match
               Digraph.find_edge (Beta_icm.graph restored) ~src:(fst pair)
                 ~dst:(snd pair)
             with
             | Some e' ->
               let b' = Beta_icm.edge_beta restored e' in
               b.Iflow_stats.Dist.Beta.alpha = b'.Iflow_stats.Dist.Beta.alpha
               && b.Iflow_stats.Dist.Beta.beta = b'.Iflow_stats.Dist.Beta.beta
             | None -> false)
           (List.init 10 (fun e -> e)))

(* ---------- delay monotonicity ---------- *)

let prop_delay_monotone_in_active_set =
  QCheck.Test.make ~count:100
    ~name:"activating more edges never delays arrival"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:8 ~edges:20 in
      let icm = Icm.const g 1.0 in
      let delays = Array.init 20 (fun _ -> Rng.uniform rng *. 5.0) in
      let active1 = Array.init 20 (fun _ -> Rng.bool rng) in
      let active2 = Array.mapi (fun _ a -> a || Rng.bool rng) active1 in
      let arrival active =
        Delay.earliest_arrival icm
          ~active:(fun e -> active.(e))
          ~delay:(fun e -> delays.(e))
          ~src:0 ~dst:7
      in
      match (arrival active1, arrival active2) with
      | None, _ -> true
      | Some _, None -> false
      | Some t1, Some t2 -> t2 <= t1 +. 1e-9)

(* ---------- summary totals ---------- *)

let prop_summary_totals =
  QCheck.Test.make ~count:80
    ~name:"summary observations bounded by usable traces"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:8 ~edges:20 in
      let icm = Icm.create g (Array.init 20 (fun _ -> Rng.uniform rng)) in
      let traces =
        List.init 40 (fun _ -> Cascade.run_trace rng icm ~sources:[ Rng.int rng 8 ])
      in
      let sink = Rng.int rng 8 in
      let s = Summary.build g traces ~sink in
      Summary.total_observations s <= 40
      && Summary.total_leaks s <= Summary.total_observations s)

(* ---------- impact conservation ---------- *)

let prop_impact_samples_bounded =
  QCheck.Test.make ~count:10 ~name:"impact samples bounded by n - 1"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:7 ~edges:14 in
      let icm = Icm.create g (Array.init 14 (fun _ -> Rng.uniform rng)) in
      let samples =
        Estimator.impact_samples rng icm
          { Estimator.burn_in = 100; thin = 2; samples = 100 }
          ~src:0
      in
      Array.for_all (fun k -> k >= 0 && k <= 6) samples)

(* ---------- binary log reader fuzz ---------- *)

module Binlog = Iflow_stream.Binlog
module Event = Iflow_stream.Event

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* segment [k]'s header and its frames, from a valid log small enough
   to roll over several segments *)
let binlog_parts =
  lazy
    (let base = Filename.temp_file "iflow_fuzz_src" ".ibl" in
     let w = Binlog.Writer.create ~segment_bytes:128 base in
     for i = 0 to 29 do
       Binlog.Writer.append w
         (match i mod 4 with
         | 0 -> Event.Attributed { sources = [ i ]; nodes = [ i; i + 1 ]; edges = [ (i, i + 1) ] }
         | 1 -> Event.Trace { sources = [ i ]; times = [ (i + 2, 1) ] }
         | 2 -> Event.Add_nodes { count = i }
         | _ -> Event.Remove_edges { edges = [ (i, 0); (0, i) ] })
     done;
     Binlog.Writer.close w;
     let segments =
       Array.init (Binlog.Writer.segments w) (fun k ->
           let path = Binlog.segment_path base k in
           let s = read_file path in
           Sys.remove path;
           s)
     in
     let h = Binlog.header_size in
     ( Array.map (fun s -> String.sub s 0 h) segments,
       String.concat ""
         (Array.to_list
            (Array.map (fun s -> String.sub s h (String.length s - h)) segments))
     ))

(* a segment body: random bytes, or random slices of valid frames with
   an occasional flipped byte *)
let fuzz_body st frames =
  let b = Buffer.create 256 in
  if Random.State.bool st then
    for _ = 1 to Random.State.int st 200 do
      Buffer.add_char b (Char.chr (Random.State.int st 256))
    done
  else
    for _ = 1 to 1 + Random.State.int st 6 do
      let start = Random.State.int st (String.length frames) in
      let len = Random.State.int st (min 60 (String.length frames - start) + 1) in
      Buffer.add_string b (String.sub frames start len)
    done;
  let body = Buffer.to_bytes b in
  if Bytes.length body > 0 && Random.State.int st 3 = 0 then begin
    let i = Random.State.int st (Bytes.length body) in
    Bytes.set body i
      (Char.chr (Char.code (Bytes.get body i) lxor (1 lsl Random.State.int st 8)))
  end;
  Bytes.to_string body

let prop_binlog_reader_total =
  QCheck.Test.make ~count:400
    ~name:"binlog reader answers arbitrary bytes with typed errors"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let headers, frames = Lazy.force binlog_parts in
      let base = Filename.temp_file "iflow_fuzz" ".ibl" in
      let n_segments = 1 + Random.State.int st (min 3 (Array.length headers)) in
      let sizes =
        List.init n_segments (fun k ->
            let path = Binlog.segment_path base k in
            let s = headers.(k) ^ fuzz_body st frames in
            write_file path s;
            (path, String.length s))
      in
      Fun.protect
        ~finally:(fun () -> List.iter (fun (p, _) -> Sys.remove p) sizes)
        (fun () ->
          (* every slot consumes at least one byte past a header *)
          let budget =
            List.fold_left (fun n (_, len) -> n + len) 0 sizes
            - (n_segments * Binlog.header_size)
          in
          let read ~skip =
            let r = Binlog.Reader.open_ base in
            let skipped = Binlog.Reader.skip r skip in
            let rec go acc left =
              match Binlog.Reader.next r with
              | None -> List.rev acc
              | Some _ when left = 0 ->
                QCheck.Test.fail_reportf "reader did not end within %d slots"
                  budget
              | Some slot -> go (slot :: acc) (left - 1)
            in
            let slots = go [] (budget - skipped) in
            (skipped, Binlog.Reader.events_seen r, slots)
          in
          let _, seen, slots = read ~skip:0 in
          let n = List.length slots in
          if seen <> n then
            QCheck.Test.fail_reportf "events_seen %d after %d slots" seen n;
          List.iter
            (function
              | Ok _ -> ()
              | Error (e : Binlog.error) -> (
                match List.assoc_opt e.Binlog.segment sizes with
                | Some len
                  when e.Binlog.offset >= Binlog.header_size
                       && e.Binlog.offset < len -> ()
                | _ ->
                  QCheck.Test.fail_reportf "error outside its segment: %s"
                    (Binlog.error_message e)))
            slots;
          let k = Random.State.int st (n + 3) in
          let skipped, seen', rest = read ~skip:k in
          skipped = min k n && seen' = n
          && rest = List.filteri (fun i _ -> i >= skipped) slots))

let () =
  Alcotest.run "iflow_properties"
    [
      ( "parser fuzz",
        qcheck
          [
            prop_parser_total; prop_chain_root_is_suffix;
            prop_chain_names_are_mentions; prop_cascades_total;
          ] );
      ( "sampling",
        qcheck
          [
            prop_conditional_matches_brute_force; prop_generated_conditions;
            prop_impact_samples_bounded;
          ]
      );
      ("models", qcheck [ prop_grow_remove_roundtrip; prop_summary_totals ]);
      ("delay", qcheck [ prop_delay_monotone_in_active_set ]);
      ("binlog fuzz", qcheck [ prop_binlog_reader_total ]);
    ]
