#!/usr/bin/env python3
"""Smoke test for `infoflow serve`: concurrent query load over both wire
dialects while streamed evidence hot-swaps model versions underneath.

Expects a server already listening (the CI job backgrounds one). Stdlib
only. Asserts:

  - every query from every concurrent session gets a well-formed answer
    (an "estimate" plus the "version"/"digest" pair it was computed on);
  - the (version, digest) mapping is consistent across all answers and
    every /healthz poll — a version id never shows up with two digests,
    i.e. no answer or health report is torn across a hot-swap;
  - POSTed evidence is applied before its 202 returns: the first
    /healthz after a POST holding more than one --batch of events
    already reports a newer version, while the query load still runs;
  - every answer carries a "plan" tag ("exact", "mh" or "direct"), a self-flow
    query is answered by the exact planner (plan "exact", estimate 1.0,
    not degraded), and the iflow_plan_exact_hits_total counter moved;
  - every answer echoes a non-empty "request_id" (server-minted when
    the client sent none), a client-supplied X-Request-Id comes back in
    both the body and the response header, and GET /debug/requests
    shows flight records for both exact-planned and MH answers with
    the phase decomposition filled in;
  - /healthz reports ok and /metrics scrapes non-trivially, including
    the iflow_serve_phase_seconds histograms (saved for the exposition
    format check and artifact upload).

Writes client-side latency percentiles to --latency-out and the raw
/metrics exposition (including the iflow_serve_request_seconds
histogram) to --metrics-out. Every request carries a socket timeout
(--request-timeout) and the whole run a wall-clock budget (--budget):
a wedged server fails the job in minutes, never at the CI timeout.
Exits non-zero on any failure.
"""

import argparse
import json
import os
import socket
import sys
import threading
import time
import urllib.request

FAILURES = []
FAIL_LOCK = threading.Lock()

# per-request socket timeout; overridden by --request-timeout in main()
REQUEST_TIMEOUT = 30.0


def fail(msg):
    with FAIL_LOCK:
        FAILURES.append(msg)


def http(host, port, method, path, body=None, headers=None):
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body.encode() if body is not None else None,
        method=method,
        headers=headers or {},
    )
    with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT) as resp:
        return resp.status, resp.read().decode()


def healthz(host, port):
    _, body = http(host, port, "GET", "/healthz")
    return json.loads(body)


RETRYABLE = ("over_capacity", "quota_exceeded")
MAX_RETRIES = 60
RETRY_SLEEP = 0.25


class Recorder:
    """Thread-safe latency samples + (version, digest) consistency."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies = []
        self.version_digest = {}
        self.answers = 0
        self.sheds = 0

    def shed(self):
        with self.lock:
            self.sheds += 1

    def answer(self, reply, dt):
        with self.lock:
            self.latencies.append(dt)
            self.answers += 1
            if reply.get("plan") not in ("exact", "mh", "direct"):
                fail(f"answer without a plan tag: {reply}")
            if not reply.get("request_id"):
                fail(f"answer without a request_id: {reply}")
            self._pair(reply, "answer")

    def health(self, h):
        """Check a /healthz body's pair against the answers' map."""
        with self.lock:
            self._pair(h, "/healthz")

    def _pair(self, reply, what):
        v, d = reply.get("version"), reply.get("digest")
        if v is None or d is None:
            fail(f"{what} without version/digest: {reply}")
            return
        if self.version_digest.setdefault(v, d) != d:
            fail(
                f"torn hot-swap: {what} says version {v} has digest {d}, "
                f"but {self.version_digest[v]} was seen before"
            )


def jsonl_session(host, port, queries, rec):
    """One raw-TCP session: send each query, read each answer line.
    Typed sheds (over_capacity / quota_exceeded) are retried with
    backoff — that is the client contract admission control assumes."""
    try:
        with socket.create_connection((host, port),
                                      timeout=REQUEST_TIMEOUT) as sock:
            f = sock.makefile("rwb")
            for q in queries:
                for attempt in range(MAX_RETRIES):
                    t0 = time.monotonic()
                    f.write((json.dumps(q) + "\n").encode())
                    f.flush()
                    line = f.readline()
                    dt = time.monotonic() - t0
                    if not line:
                        fail("server closed a JSONL session mid-stream")
                        return
                    reply = json.loads(line)
                    if "estimate" in reply:
                        rec.answer(reply, dt)
                        break
                    if reply.get("error") in RETRYABLE:
                        rec.shed()
                        time.sleep(RETRY_SLEEP * (1 + attempt))
                        continue
                    fail(f"query refused: {reply}")
                    break
                else:
                    fail(f"query still shed after {MAX_RETRIES} retries: {q}")
    except Exception as e:  # noqa: BLE001 - anything here is a failure
        fail(f"jsonl session: {e!r}")


def http_session(host, port, queries, rec):
    """The same queries through POST /query, one batch per request;
    shed lines are collected and re-POSTed with backoff."""
    try:
        pending = list(queries)
        for attempt in range(MAX_RETRIES):
            body = "\n".join(json.dumps(q) for q in pending)
            t0 = time.monotonic()
            status, text = http(host, port, "POST", "/query", body)
            dt = (time.monotonic() - t0) / max(1, len(pending))
            if status != 200:
                fail(f"POST /query -> {status}")
                return
            retry = []
            for q, line in zip(pending, text.splitlines()):
                reply = json.loads(line)
                if "estimate" in reply:
                    rec.answer(reply, dt)
                elif reply.get("error") in RETRYABLE:
                    rec.shed()
                    retry.append(q)
                else:
                    fail(f"http query refused: {reply}")
            if not retry:
                return
            pending = retry
            time.sleep(RETRY_SLEEP * (1 + attempt))
        fail(f"queries still shed after {MAX_RETRIES} retries: {pending}")
    except Exception as e:  # noqa: BLE001
        fail(f"http session: {e!r}")


def percentile(sorted_xs, p):
    return sorted_xs[min(len(sorted_xs) - 1, int(p * len(sorted_xs)))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--nodes", type=int, default=40,
                    help="node count of the served model")
    ap.add_argument("--sessions", type=int, default=100,
                    help="concurrent client sessions")
    ap.add_argument("--queries-per-session", type=int, default=2)
    ap.add_argument("--evidence-events", type=int, default=200)
    ap.add_argument("--latency-out", default="serve-latency.json")
    ap.add_argument("--metrics-out", default="serve-metrics.prom")
    ap.add_argument("--request-timeout", type=float, default=30.0,
                    help="per-socket timeout: no single read may hang")
    ap.add_argument("--budget", type=float, default=600.0,
                    help="wall-clock budget for the whole smoke run")
    args = ap.parse_args()
    host, port, n = args.host, args.port, args.nodes

    global REQUEST_TIMEOUT
    REQUEST_TIMEOUT = args.request_timeout

    # hard wall-clock backstop: per-request timeouts bound each read,
    # this bounds the sum (retry loops included)
    def overdue():
        print(f"\nFAIL: smoke exceeded its {args.budget}s wall-clock "
              "budget", file=sys.stderr)
        os._exit(2)

    watchdog = threading.Timer(args.budget, overdue)
    watchdog.daemon = True
    watchdog.start()

    v0 = healthz(host, port)
    print(f"healthz before load: {v0}")
    if v0.get("status") not in ("ok", "degraded"):
        fail(f"unexpected initial health: {v0}")

    # concurrent load: each session asks its own (src, dst) pairs, so
    # the mix covers both cache misses and hits across sessions
    rec = Recorder()
    rec.health(v0)
    threads = []
    for i in range(args.sessions):
        queries = [
            {"type": "flow", "src": (i + k) % n, "dst": (i + k + 1 + i % 7) % n}
            for k in range(args.queries_per_session)
            if (i + k) % n != (i + k + 1 + i % 7) % n
        ]
        target = jsonl_session if i % 2 == 0 else http_session
        threads.append(threading.Thread(target=target,
                                        args=(host, port, queries, rec)))
    for t in threads:
        t.start()

    # while that load runs: post evidence, which hot-swaps before 202.
    # add_edges first so the attributed events reference known edges —
    # one edge per line, because the generated graph may already contain
    # some of them and a duplicate only quarantines its own line.
    edges = [[0, 3], [3, 5], [5, 7]]
    events = [{"type": "add_edges", "edges": [e]} for e in edges]
    for k in range(args.evidence_events):
        events.append({
            "type": "attributed",
            "sources": [0],
            "nodes": [0, 3, 5, 7][: 2 + k % 3],
            "edges": edges[: 1 + k % 3],
        })
    status, body = http(host, port, "POST", "/evidence",
                        "\n".join(json.dumps(e) for e in events))
    if status != 202:
        fail(f"POST /evidence -> {status}: {body}")
    else:
        print(f"evidence accepted: {body.strip()}")

    # the 202 leaves only after the lines are applied, and the body holds
    # more events than one --batch: the very next /healthz must already
    # serve a newer version, with no polling
    base = v0.get("version", 0)
    swapped = healthz(host, port)
    rec.health(swapped)
    if swapped.get("version", 0) <= base:
        fail(f"first /healthz after the evidence POST still at version "
             f"{swapped.get('version')}; expected > {base}")
        swapped = None
    else:
        print(f"hot-swapped under load: version {base} -> "
              f"{swapped['version']} (digest {swapped['digest']})")

    for t in threads:
        t.join()
    rec.health(healthz(host, port))

    expected = sum(1 for i in range(args.sessions)
                   for k in range(args.queries_per_session)
                   if (i + k) % n != (i + k + 1 + i % 7) % n)
    print(f"answers: {rec.answers}/{expected} "
          f"across versions {sorted(rec.version_digest)} "
          f"({rec.sheds} sheds retried)")
    if rec.answers != expected:
        fail(f"expected {expected} answers, got {rec.answers}")

    # a few queries after the swap must answer from the new version
    post = Recorder()
    jsonl_session(host, port,
                  [{"type": "flow", "src": 0, "dst": d} for d in (3, 5, 7)],
                  post)
    if swapped is not None and post.version_digest:
        if max(post.version_digest) < swapped["version"]:
            fail(f"post-swap queries still answered from "
                 f"{sorted(post.version_digest)}; expected "
                 f">= {swapped['version']}")

    # a self-flow is certainty: the planner must answer it exactly over
    # HTTP, tagged as such and never degraded
    status, text = http(host, port, "POST", "/query",
                        json.dumps({"type": "flow", "src": 0, "dst": 0}))
    if status != 200:
        fail(f"self-flow POST /query -> {status}")
    else:
        reply = json.loads(text.splitlines()[0])
        if reply.get("plan") != "exact":
            fail(f"self-flow not planned exact: {reply}")
        if reply.get("estimate") != 1.0:
            fail(f"self-flow estimate is not 1.0: {reply}")
        if reply.get("degraded"):
            fail(f"exact answer marked degraded: {reply}")
        print(f"self-flow answered exactly: {text.splitlines()[0]}")

    # client-supplied request ids round-trip: body field and header
    req = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps({"type": "flow", "src": 0, "dst": 3}).encode(),
        method="POST",
        headers={"X-Request-Id": "smoke-rid-1"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        echoed = resp.headers.get("X-Request-Id")
        reply = json.loads(resp.read().decode().splitlines()[0])
    if echoed != "smoke-rid-1":
        fail(f"X-Request-Id header not echoed: {echoed!r}")
    if reply.get("request_id") != "smoke-rid-1":
        fail(f"client request_id not echoed in body: {reply}")
    print("request id round-trip: OK")

    # the flight recorder must hold records for both answer paths of
    # the storm above: MH-sampled flows and the exact-planned self-flow
    status, body = http(host, port, "GET", "/debug/requests?n=256")
    if status != 200:
        fail(f"GET /debug/requests -> {status}")
    else:
        records = json.loads(body)
        paths = {}
        for r in records:
            paths.setdefault(r.get("path"), 0)
            paths[r.get("path")] += 1
            if not r.get("request_id"):
                fail(f"flight record without request_id: {r}")
            for field in ("queue_wait_ns", "plan_ns", "sample_ns",
                          "serialize_ns", "seq", "version"):
                if not isinstance(r.get(field), int):
                    fail(f"flight record missing {field}: {r}")
        if not paths.get("mh"):
            fail(f"no MH answers in the flight recorder: {paths}")
        if not paths.get("exact"):
            fail(f"no exact-planned answers in the flight recorder: {paths}")
        mine = [r for r in records if r.get("request_id") == "smoke-rid-1"]
        if not mine:
            fail("smoke-rid-1 not found in /debug/requests")
        elif mine[0].get("serialize_ns", 0) <= 0:
            fail(f"smoke-rid-1 record has no serialize time: {mine[0]}")
        print(f"flight recorder: {len(records)} records, paths {paths}")

    # scrape /metrics for the format check + latency histogram artifact
    status, exposition = http(host, port, "GET", "/metrics")
    if status != 200 or "iflow_serve_request_seconds" not in exposition:
        fail(f"/metrics scrape unusable (status {status})")
    if "iflow_serve_phase_seconds" not in exposition:
        fail("iflow_serve_phase_seconds missing from /metrics")
    # the exact-planned answer above must have moved the planner counter
    # (the registry always records; the CI job starts the server with no
    # metrics flag)
    hits = [
        line.split()[-1]
        for line in exposition.splitlines()
        if line.startswith("iflow_plan_exact_hits_total")
    ]
    if not hits:
        fail("iflow_plan_exact_hits_total missing from /metrics")
    elif float(hits[0]) < 1:
        fail(f"iflow_plan_exact_hits_total = {hits[0]}, expected >= 1")
    with open(args.metrics_out, "w") as f:
        f.write(exposition)
    print(f"wrote {args.metrics_out} ({len(exposition)} bytes)")

    lat = sorted(rec.latencies)
    with open(args.latency_out, "w") as f:
        json.dump({
            "sessions": args.sessions,
            "answers": rec.answers,
            "sheds_retried": rec.sheds,
            "versions_seen": {str(v): d
                              for v, d in sorted(rec.version_digest.items())},
            "client_latency_ms": {
                "p50": round(1e3 * percentile(lat, 0.50), 3),
                "p99": round(1e3 * percentile(lat, 0.99), 3),
                "max": round(1e3 * lat[-1], 3),
            } if lat else None,
        }, f, indent=2)
    print(f"wrote {args.latency_out}")

    watchdog.cancel()
    if FAILURES:
        print("\nFAILURES:", file=sys.stderr)
        for msg in FAILURES:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
