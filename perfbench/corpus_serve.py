"""corpus-serve: ``repro serve`` on a sharded, replicated corpus.

:data:`DOCUMENTS` seeded DBLP-shaped p-documents of
:data:`PUBLICATIONS` records each, plus the fixed fault-probe document,
are built into :data:`SHARDS` hash shards with :data:`REPLICAS`
replicas each and served by ``repro serve`` in a child process (result
and match caches of :data:`CACHE` entries per shard replica, the
``--cache-size`` default).

:data:`CLIENTS` keep-alive clients run a closed loop of ``POST
/search`` (eager, k=10).  Each draws Zipf-skewed (:data:`SKEW`)
queries from a pool of :data:`POOL` distinct 2-term queries,
:data:`POOL_PER_CACHE` times a replica's result cache, so some requests
replay and some evict.  Every :data:`MID_EVERY`-th popularity rank
holds a mid-band query and the others selective ones.  The skew, the
pool size and the band mix are assumptions, not measured traffic (see
README.md).  A round is :data:`ROUND` draws plus one ``{author, conf}``
probe request, which fails every round.  The first :data:`WARMUP_S`
seconds fill the caches and are not measured (their answers are
checked and counted all the same).  The server and the client threads
share one CPU (:data:`ONE_CPU`).  A traced run also sends
:data:`RELOADS` ``POST /reload`` requests after each half's measured
window, so the reload path is measured here too.

Reference: unsharded ``topk_search`` over the documents concatenated
under one root, computed in this process after the run.  The probe
document comes first in the corpus: its ``1.0000000000000002`` answer
then shows in the merged answer whatever the seeded documents are.
"""

from __future__ import annotations

import os
import random
import threading
import time
from bisect import bisect_left
from types import SimpleNamespace
from typing import Dict, Iterator, List, Tuple

from perfbench import checker, inputs, metrics
from perfbench.common import (K, Server, log, median, now, request,
                              snapshot_mb)

DOCUMENTS = 8
PUBLICATIONS = 250
SHARDS = 4
REPLICAS = 2
#: Result and match-entry cache entries per shard replica (the
#: ``repro serve --cache-size`` default).
CACHE = 256
#: The pool is this many times a replica's result cache: more distinct
#: queries than even a replica that saw every one could hold.
POOL_PER_CACHE = 4
POOL = POOL_PER_CACHE * CACHE
#: Zipf's law in its classic form (exponent 1).
SKEW = 1.0
MID_EVERY = 4
ROUND = 24
CLIENTS = 2
STARTS = 3
WARMUP_S = 3.0
#: Requests per throughput window (the figure is the windows' median).
WINDOW = 500
#: ``POST /reload`` requests after each half of a traced run.
RELOADS = 2
#: The server and the client threads share one CPU.  Measured side by
#: side on the reference machine (seeds 601-604, selective pool), the
#: server on one virtual CPU and the clients on the other answered
#: 318-386 requests/s with 20-23% of CPU time stolen by the host; all
#: on one CPU answered 620-647 requests/s with 5-6% stolen.  Every
#: request crosses between client and server twice, and waking the
#: other virtual CPU costs more than the work.  The client threads' own
#: CPU time per request is reported as ``client.cpu_ms``, so the
#: harness's share of the round trip can be told from the server's.
ONE_CPU = {min(os.sched_getaffinity(0))}


def prepare(seed: int, workdir) -> SimpleNamespace:
    """Build the corpus and draw the query pool; ``build_s`` times the
    documents and the corpus build."""
    from repro.corpus import build_corpus, concat_documents
    from repro.index.storage import Database

    start = now()
    documents = [("probe", inputs.probe_document())] + [
        (f"dblp-{i:02d}", inputs.dblp(PUBLICATIONS, i))
        for i in range(DOCUMENTS)]
    corpus_dir = workdir.join("corpus")
    build_corpus(documents, corpus_dir, shards=SHARDS, replicas=REPLICAS)
    build_s = now() - start

    oracle = Database.from_document(concat_documents(documents))
    sampler = inputs.QuerySampler(oracle.index,
                                  random.Random(inputs.mix(seed, 11)),
                                  exclude=[inputs.PROBE_QUERY])
    pool: List[List[str]] = []
    for rank in range(POOL):
        band = "mid" if rank % MID_EVERY == MID_EVERY - 1 else "selective"
        query = sampler.draw(band)
        if query is None:
            raise RuntimeError(f"corpus-serve: {band} band exhausted")
        pool.append(query)
    return SimpleNamespace(corpus_dir=corpus_dir, build_s=build_s,
                           oracle=oracle, pool=pool)


def client_rounds(pool, seed: int, number: int) -> Iterator[List[int]]:
    """Client ``number``'s rounds: :data:`ROUND` Zipf draws (pool
    slots, slot ``i`` holding popularity rank ``i + 1``) and the probe
    (slot -1)."""
    cumulative = inputs.zipf_weights(len(pool), SKEW)
    rng = random.Random(inputs.mix(seed, 13, number))
    while True:
        yield [bisect_left(cumulative, rng.random() * cumulative[-1])
               for _ in range(ROUND)] + [-1]


def run(seed: int, seconds: float, trace: bool, workdir) -> Dict:
    from repro.corpus.builder import load_corpus_manifest

    prepared = prepare(seed, workdir)
    corpus_dir, pool = prepared.corpus_dir, prepared.pool
    oracle = prepared.oracle
    phases = [(False, seconds / 2.0), (True, seconds / 2.0)] if trace \
        else [(False, float(seconds))]
    starts = []
    runs = []
    for traced, length in phases:
        for _ in range(STARTS - 1 if not (traced or runs) else 0):
            began = now()
            server = Server(corpus_dir, workdir, "corpus",  # set-up timing
                            cpus=ONE_CPU)
            starts.append(now() - began)
            server.stop()
        began = now()
        with Server(corpus_dir, workdir, "corpus", traced=traced,
                    cpus=ONE_CPU) as server:
            starts.append(now() - began)
            measured = _drive(server, pool, seed, length, traced)
            if trace:
                measured["reload_ms"] = _reloads(server)
            measured["layers"] = server.stop()
        measured["peak_rss_mb"] = server.peak_rss_mb
        runs.append(measured)

    matches = checker.Matches(oracle.index)
    references = {}
    attempted = failed = wrong = 0
    verdicts = {}
    for run_ in runs:
        run_["shown"] = 0  # seeded requests showing the fault
        for slot, _ms, codes, probs, partial, _, _ in run_["ops"]:
            attempted += 1
            key = (slot, tuple(codes), tuple(probs), partial)
            if key not in verdicts:
                if slot not in references:
                    references[slot] = _oracle(
                        oracle, pool[slot] if slot >= 0
                        else inputs.PROBE_QUERY)
                verdicts[key] = _verdict(slot, codes, probs, partial, pool,
                                         references[slot], matches)
            verdict = verdicts[key]
            if verdict == checker.FAULT_ABOVE_ONE:
                if slot < 0:
                    failed += 1
                else:
                    run_["shown"] += 1
            elif verdict == checker.WRONG:
                wrong += 1
    log(f"corpus-serve: {len(references) - 1} of {POOL} pool queries "
        f"served; {sum(run_['shown'] for run_ in runs)} seeded requests "
        f"show the probability-above-1 fault")

    setup_s = prepared.build_s + median(starts)
    out = {"correct": wrong == 0, "attempted": attempted,
           "failed": failed}
    manifest = load_corpus_manifest(corpus_dir)
    store = sum(snapshot_mb(directory)
                for shard in range(manifest.shard_count)
                for directory in manifest.replica_dirs(shard))
    if not trace:
        measured = runs[0]
        latencies = [op[1] for op in measured["measured"]]
        out["metrics"] = metrics.end_to_end(
            latencies, measured["windows"], setup_s,
            measured["peak_rss_mb"], store)
    else:
        plain, traced = runs
        out["metrics"] = metrics.per_layer(_layer_values(plain, traced))
    return out


def _oracle(database, query) -> checker.Answer:
    """Unsharded answer: k+1 results minus the synthetic root, cut to
    k (the corpus merge filters that root the same way)."""
    from repro.core.api import topk_search
    outcome = topk_search(database, list(query), K + 1)
    return [(str(result.code), result.probability)
            for result in outcome.results
            if len(result.code.positions) >= 2][:K]


def _verdict(slot, codes, probs, partial, pool, reference,
             matches: checker.Matches) -> str:
    answer = list(zip(codes, probs))
    terms = pool[slot] if slot >= 0 else inputs.PROBE_QUERY
    verdict, problems = checker.classify(answer, reference, K,
                                         matches.of(terms))
    if partial and verdict != checker.FAULT_ABOVE_ONE:
        verdict, problems = checker.WRONG, ["partial answer"]
    if verdict == checker.WRONG:
        log(f"corpus-serve WRONG {terms}: {problems[:3]}")
    return verdict


def _drive(server: Server, pool, seed: int, seconds: float,
           traced: bool) -> Dict:
    """Run the closed-loop clients for the warm-up plus ``seconds``;
    ops are ``[slot, ms, codes, probs, partial, started, client_ms]``
    (slot -1 = probe, ``started`` in seconds from the start,
    ``client_ms`` the client thread's CPU time for the request)."""
    results: List[List] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []
    start = now()

    def client(number: int) -> None:
        os.sched_setaffinity(0, ONE_CPU)  # this thread only
        ops = results[number]
        rounds = client_rounds(pool, seed, number)
        connection = server.connection()
        try:
            while now() - start < WARMUP_S + seconds:
                for slot in next(rounds):
                    terms = pool[slot] if slot >= 0 else inputs.PROBE_QUERY
                    t0, cpu0 = now(), time.thread_time()
                    reply = request(connection, "POST", "/search",
                                    {"keywords": list(terms), "k": K})
                    ms = (now() - t0) * 1000.0
                    cpu_ms = (time.thread_time() - cpu0) * 1000.0
                    rows = reply["results"]
                    ops.append([slot, ms, [row["code"] for row in rows],
                                [row["probability"] for row in rows],
                                reply["partial"], t0 - start, cpu_ms])
        except BaseException as error:  # reported by the caller
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(number,))
               for number in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    ops = [op for ops in results for op in ops]
    measured = [op for op in ops if op[5] >= WARMUP_S]
    out = {"ops": ops, "measured": measured,
           "windows": windows([op[5] for op in measured])}
    if traced:
        connection = server.connection()
        out["report"] = request(connection, "GET", "/metrics?format=json")
        connection.close()
    return out


def _reloads(server: Server) -> List[float]:
    """Wall time of :data:`RELOADS` ``POST /reload`` requests, sent after
    the measured window (every shard replica reloads its snapshot)."""
    connection = server.connection()
    times = []
    try:
        for _ in range(RELOADS):
            t0 = now()
            request(connection, "POST", "/reload")
            times.append((now() - t0) * 1000.0)
    finally:
        connection.close()
    return times


def windows(starts: List[float]) -> List[Tuple[int, float]]:
    """Throughput windows of :data:`WINDOW` consecutive requests:
    ``(requests, seconds between the first starts of two windows)``."""
    starts = sorted(starts)
    width = min(WINDOW, len(starts) - 1)
    return [(width, starts[i + width] - starts[i])
            for i in range(0, len(starts) - width, width)]


def baseline(seed: int, seconds: float, workdir) -> Dict[str, float]:
    """The unsharded in-process ``QueryService`` (256-entry caches) on
    this workload's query stream — both clients' rounds, alternating —
    with one caller: the figure a corpus speed-up must beat."""
    from repro import QueryService
    prepared = prepare(seed, workdir)
    service = QueryService(prepared.oracle)
    streams = [client_rounds(prepared.pool, seed, number)
               for number in range(CLIENTS)]
    latencies, starts = [], []
    start = now()
    turn = 0
    while now() - start < WARMUP_S + seconds:
        for slot in next(streams[turn % CLIENTS]):
            terms = prepared.pool[slot] if slot >= 0 else inputs.PROBE_QUERY
            t0 = now()
            service.search(terms, k=K)
            if t0 - start >= WARMUP_S:
                latencies.append((now() - t0) * 1000.0)
                starts.append(t0)
        turn += 1
    return {"latency_p50_ms": median(latencies),
            "throughput_qps": median(count / span
                                     for count, span in windows(starts))}


def _layer_values(plain: Dict, traced: Dict) -> Dict[str, float]:
    layers = traced["layers"]
    counters = traced["report"]["metrics"]["counters"]
    requests = len(traced["ops"])  # the spans cover every request
    values = metrics.layer_times(layers)
    values.update(metrics.counters_per_query(
        counters, counters.get("service.queries", 0)))
    values["serve.parse_ms"] = metrics.total_ms(layers, "serve.parse") \
        / requests
    values["serve.encode_ms"] = metrics.total_ms(layers, "serve.encode") \
        / requests
    round_trip = sum(op[1] for op in traced["ops"]) / requests
    # The rest of the round trip; the client's own share of it is
    # client.cpu_ms.
    values["serve.wait_ms"] = round_trip - values["serve.parse_ms"] \
        - values["serve.encode_ms"] - values["corpus.search_ms"]
    values["client.cpu_ms"] = sum(op[6] for op in traced["ops"]) / requests
    values["core.above_one_share"] = metrics.ratio(
        traced["shown"], sum(1 for op in traced["ops"] if op[0] >= 0))
    searches = counters.get("corpus.searches", 0)
    searched = counters.get("corpus.shards_searched", 0)
    skipped = counters.get("corpus.shards_pruned", 0) + \
        counters.get("corpus.shards_no_match", 0)
    values["corpus.visits_per_query"] = metrics.ratio(searched, searches)
    values["corpus.prune_rate"] = metrics.ratio(skipped, searched + skipped)
    for cache, name in (("results", "result_hit_rate"),
                        ("match_entries", "match_cache_hit_rate"),
                        ("code_lists", "code_list_hit_rate")):
        hits = counters.get(f"service.cache.{cache}.hits", 0)
        misses = counters.get(f"service.cache.{cache}.misses", 0)
        values[f"service.{name}"] = metrics.ratio(hits, hits + misses)
    untraced = [op[1] for op in plain["measured"]]
    values["reload_p50_ms"] = median(plain["reload_ms"])
    values["latency_p99_ms"] = metrics.tail(untraced)
    values["trace.overhead_pct"] = metrics.overhead_pct(
        untraced, [op[1] for op in traced["measured"]])
    return values
