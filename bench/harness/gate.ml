(* The correctness gate. Sampled served answers must be bit-identical to
   an in-process [Engine.query] on the same model version, seed and
   configuration; after an ingest, the digest /healthz reports must
   equal the one an in-process [Runner.run] replay of the same evidence
   reaches. Checks run after the measured windows, so they never share
   the CPU with a measurement. *)

module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl
module Wire = Iflow_serve.Wire
module Runner = Iflow_stream.Runner
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Drift = Iflow_stream.Drift

(* what `infoflow serve` builds from Net.server_flags: --samples 100
   becomes rounds of min 250 100 and a cap of 100 x chains; the CLI's
   default seed is 42. The domain count never changes an answer. *)
let engine_config =
  {
    Engine.default_config with
    Engine.chains = 2;
    domains = Some 1;
    burn_in = 200;
    thin = Iflow_mcmc.Estimator.default_config.Iflow_mcmc.Estimator.thin;
    round_samples = 100;
    max_samples = 200;
    rhat_target = 1.2;
    mcse_target = 0.05;
  }

let engine_seed = 42

(* the server's learner publishes a version every 256 applied events *)
let batch = Runner.default_config.Runner.batch

type t = {
  model : Inputs.model;
  evidence : string array;  (** the lines ingest_live posts, in order *)
  lock : Mutex.t;
  mutable answers : (int * string * string) list;  (** version, query, served *)
  mutable digests : (int * string) list;  (** version, served digest *)
}

let create model evidence =
  { model; evidence; lock = Mutex.create (); answers = []; digests = [] }

let answer t ~version ~query ~served =
  Mutex.protect t.lock (fun () -> t.answers <- (version, query, served) :: t.answers)

let digest t ~version d =
  Mutex.protect t.lock (fun () -> t.digests <- (version, d) :: t.digests)

(* the wire carries every non-finite diagnostic (nan, or the infinite
   R-hat of zero-variance chains) as null, which reads back as nan *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || ((not (Float.is_finite a)) && not (Float.is_finite b))

(* everything but [cached], which depends on what was asked before *)
let same (a : Engine.result) (b : Engine.result) =
  same_float a.Engine.estimate b.Engine.estimate
  && same_float a.Engine.rhat b.Engine.rhat
  && same_float a.Engine.ess b.Engine.ess
  && same_float a.Engine.mcse b.Engine.mcse
  && a.Engine.total_samples = b.Engine.total_samples
  && a.Engine.chains_used = b.Engine.chains_used
  && a.Engine.partial = b.Engine.partial
  && a.Engine.model_digest = b.Engine.model_digest
  && a.Engine.plan = b.Engine.plan

(* Verify everything recorded since the last call; returns the number
   of mismatches, each also reported on stderr. *)
let verify t =
  let answers, digests =
    Mutex.protect t.lock (fun () ->
        let a = (t.answers, t.digests) in
        t.answers <- [];
        t.digests <- [];
        a)
  in
  let bad = ref 0 in
  let fail fmt =
    incr bad;
    Printf.eprintf ("correctness: " ^^ fmt ^^ "\n%!")
  in
  let check engine v =
    List.iter
      (fun (v', query, served) ->
        if v' = v then
          match (Query.of_line (String.trim query), Jsonl.parse served) with
          | Ok q, Ok json -> (
            match Wire.parsed_result json with
            | Ok (r, _) ->
              let mine = Engine.query engine q in
              if not (same r mine) then
                fail "%s on %s version %d: served %s, in-process estimate %.17g"
                  (String.trim query) t.model.Inputs.name v served
                  mine.Engine.estimate
            | Error e -> fail "undecodable answer %s (%s)" served e)
          | _ -> fail "undecodable query %s or answer %s" query served)
      answers;
    List.iter
      (fun (v', d) ->
        if v' = v && d <> Engine.digest engine then
          fail "%s version %d: served digest %s, replay digest %s"
            t.model.Inputs.name v d (Engine.digest engine))
      digests
  in
  let engine = Engine.create ~config:engine_config ~seed:engine_seed t.model.Inputs.icm in
  check engine 0;
  let top =
    List.fold_left max 0
      (List.map (fun (v, _, _) -> v) answers @ List.map fst digests)
  in
  if top > 0 then begin
    let lines = Array.sub t.evidence 0 (batch * top) in
    let online = Online.create ~drift:Drift.default_config t.model.Inputs.beta in
    let snapshot = Snapshot.create t.model.Inputs.beta in
    ignore
      (Runner.run ~engine
         ~on_publish:(fun v -> check engine v.Snapshot.id)
         Runner.default_config online snapshot
         (Runner.lines_of_list (Array.to_list lines)))
  end;
  !bad
