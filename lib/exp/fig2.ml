open Iflow_core
module Digraph = Iflow_graph.Digraph
module Rng = Iflow_stats.Rng
module Measures = Iflow_stats.Measures
module Estimator = Iflow_mcmc.Estimator
module Conditions = Iflow_mcmc.Conditions
module Bucket = Iflow_bucket.Bucket

type result = {
  radius : int;
  known_flows : int;
  bucket : Bucket.t;
}

(* Predictions for one focus user at one radius. For every held-out
   cascade from the focus we predict flow to one random sink; with
   [known_flows] > 0 we reveal up to that many other activations from
   the same cascade as positive flow conditions. *)
let focus_predictions rng (lab : Twitter_lab.t) config ~focus ~radius
    ~known_flows ~max_tweets =
  let sub_model, node_of_sub, sub_focus =
    Twitter_lab.subgraph_around lab ~centre:focus ~radius
  in
  let sub_n = Beta_icm.n_nodes sub_model in
  if sub_n < 3 || sub_focus < 0 then []
  else begin
    let icm = Beta_icm.expected_icm sub_model in
    let outcomes = Twitter_lab.cascade_outcomes lab ~source:focus in
    let outcomes = List.filteri (fun i _ -> i < max_tweets) outcomes in
    List.filter_map
      (fun (_, active) ->
        let sink = Rng.int rng sub_n in
        if sink = sub_focus then None
        else begin
          let z = active.(node_of_sub.(sink)) in
          (* candidate known flows: other active sub-nodes *)
          let conditions =
            if known_flows = 0 then Conditions.empty
            else begin
              let candidates = ref [] in
              Array.iteri
                (fun v' v ->
                  if v' <> sub_focus && v' <> sink && active.(v) then
                    (* only feasible conditions: the subgraph must allow
                       the flow at all *)
                    if
                      Iflow_graph.Traverse.reaches
                        (Beta_icm.graph sub_model)
                        ~src:sub_focus ~dst:v'
                    then candidates := v' :: !candidates)
                node_of_sub;
              let chosen = List.filteri (fun i _ -> i < known_flows) !candidates in
              Conditions.v (List.map (fun v' -> (sub_focus, v', true)) chosen)
            end
          in
          match
            Estimator.flow_probability ~conditions rng icm config
              ~src:sub_focus ~dst:sink
          with
          | estimate -> Some { Measures.estimate; outcome = z }
          | exception Invalid_argument _ -> None
        end)
      outcomes
  end

let run scale rng lab =
  let config = Scale.mcmc scale in
  let focus_count = Scale.pick scale ~quick:8 ~full:50 in
  let max_tweets = Scale.pick scale ~quick:25 ~full:100 in
  let focuses = Twitter_lab.interesting_users lab ~count:focus_count in
  List.map
    (fun (radius, known_flows) ->
      let predictions =
        List.concat_map
          (fun focus ->
            focus_predictions rng lab config ~focus ~radius ~known_flows
              ~max_tweets)
          focuses
      in
      let label =
        Printf.sprintf "Fig 2 radius %d, %d known flows" radius known_flows
      in
      { radius; known_flows; bucket = Bucket.run ~bins:30 ~label predictions })
    [ (1, 0); (2, 0); (1, 5); (2, 5) ]

let report scale rng lab ppf =
  let results = run scale rng lab in
  Format.fprintf ppf "@[<v>== Fig 2: attributed Twitter bucket experiments ==@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "-- radius %d, %d known flows --@,%a" r.radius
        r.known_flows Bucket.pp r.bucket)
    results;
  Format.fprintf ppf "@,@]";
  results
