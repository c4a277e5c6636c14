(** The serving wire format: one JSON object per line, in both
    directions, shared by the raw JSONL dialect and the HTTP
    [POST /query] body.

    Requests are {!Iflow_engine.Query} objects, optionally extended
    with ["id"] (any string, echoed back verbatim so pipelined clients
    can match answers to questions) and ["tenant"] (quota accounting;
    the HTTP dialect defaults it from the [X-Tenant] header).

    Every response line is either an answer or a {e typed} error — an
    ["error"] code machine-matchable by clients, never prose alone —
    so shed load ([over_capacity], [quota_exceeded]) is distinguishable
    from bad input ([bad_request], [bad_query]) and from engine faults
    ([chains_failed]). Estimates are printed with round-trip float
    precision: a client parsing the line recovers bit-identical values
    to what {!Iflow_engine.Engine.query} returned. Non-finite
    diagnostics (rhat over zero-variance samples) serialize as [null]
    and parse back as [nan] — JSON has no nan/inf literals. *)

type error_code =
  | Bad_request      (** undecodable line (message carries line/offset) *)
  | Bad_query        (** decoded, but unanswerable (node out of range,
                         unsatisfiable conditions) *)
  | Over_capacity    (** admission queue full — retry later *)
  | Quota_exceeded   (** tenant token bucket dry — retry after hint *)
  | Chains_failed    (** engine lost too many chains to vouch for an
                         answer; the server stays up *)
  | Shutting_down
  | Deadline_exceeded
      (** the request's deadline passed before an answer converged
          (and no partial answer was available) *)
  | Deadline_unmeetable
      (** rejected at admission: recent queue-wait/serialize stats say
          the deadline cannot be met — retry with a larger one *)

val code_string : error_code -> string
(** ["bad_request"], ["over_capacity"], ... — the wire spelling. *)

val result_line :
  ?id:string -> ?request_id:string -> ?version:int -> ?degraded:bool ->
  Iflow_engine.Engine.result -> string
(** Serialise an answer (no trailing newline). [request_id] is the
    server-side request id (client-supplied via the ["request_id"]
    field / [X-Request-Id] header, or minted at admission), echoed as
    ["request_id"] so a wire line can be joined to its
    {!Iflow_obs.Flight} record and trace flow. [version] is the id the
    query's model was tagged with, beside that model's digest; [degraded]
    (default false) marks answers completed from surviving chains
    only — the server computes it from the engine's configured chain
    count (exact-planned answers are never degraded). The answer's
    {!Iflow_engine.Engine.plan} is carried as ["plan":"exact"] with
    ["plan_cone"], or ["plan":"mh"] /
    ["plan":"direct"] (the {!Iflow_engine.Engine.sampler}) with an
    optional ["plan_fallback"] reason label. Anytime answers cut short
    by a deadline carry ["partial":true] (absent-as-false for peers
    predating the field). *)

val error_line :
  ?id:string -> ?request_id:string -> ?retry_after_ms:int ->
  error_code -> string -> string

val parsed_result :
  Iflow_engine.Jsonl.value ->
  (Iflow_engine.Engine.result * int option, string) result
(** Client-side decode of a {!result_line} (tests, bench): the result
    with [model_digest] restored and the version field. Lines from
    older peers are accepted: a missing ["plan"] reads as MH, a missing
    ["partial"] as false, and a ["plan_validated"] member is
    ignored. *)

val escape : string -> string
(** JSON string escaping (quotes included). *)
