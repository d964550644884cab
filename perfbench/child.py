"""The program side of the in-process workloads, one child process each.

Usage: ``python perfbench/child.py JOB.json``

The job names only generated inputs (snapshot directories and query
lists) plus the run length; the child opens the program on them, runs
the measured loop, and writes a JSON result to ``job["output"]``.
Kinds:

* ``engine`` (engine-cold): ``QueryService.search`` over a stream of
  never-repeated queries, each under both algorithms, in rounds that
  end with the fixed fault probe on a fresh service.
* ``batch`` (batch-process): ``QueryService.batch_search`` with the
  process executor over batches of distinct queries.

With ``trace`` set, the run is split: the first half is measured with
tracing off, then the per-layer spans are installed and the second half
is measured traced.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (children_peak_rss_mb, ensure_program,  # noqa: E402
                              now, self_peak_rss_mb)


def _answer(outcome):
    """One answer as a JSON string: a single untracked object, so the
    harness's bookkeeping adds nothing for the collector to scan."""
    return json.dumps([[str(result.code), result.probability]
                       for result in outcome.results])


def _open(directory, times):
    """Open the service ``times`` times; the last one serves."""
    from repro import QueryService
    seconds = []
    service = None
    for _ in range(times):
        service = None  # never hold two copies of the index
        start = now()
        service = QueryService(directory)
        seconds.append(now() - start)
    return service, seconds


def _phases(job):
    """``[(traced, seconds)]``: one untraced phase, or two halves."""
    if job["trace"]:
        half = job["seconds"] / 2.0
        return [(False, half), (True, half)]
    return [(False, float(job["seconds"]))]


def _install(job):
    from perfbench.layers import install
    return install(spool=job.get("spool"))


def run_engine(job):
    from repro import MetricsCollector, QueryService, load_database
    service, opens = _open(job["db"], job["opens"])
    probe = load_database(job["probe_db"])
    rounds = job["rounds"]
    algorithms = ("eager", "prstack")
    out = {"opens_s": opens, "phases": [], "exhausted": False}
    position = 0
    for traced, seconds in _phases(job):
        layers = _install(job) if traced else None
        collector = MetricsCollector() if traced else None
        caches_before = service.cache_stats()
        ops = []  # (round, slot, algorithm, ms, answer JSON)
        windows = []  # (operations, seconds) per round
        start = now()
        while now() - start < seconds:
            if position == len(rounds):
                out["exhausted"] = True
                break
            began, first = now(), len(ops)
            for slot, query in enumerate(rounds[position]):
                for algorithm in algorithms:
                    t0 = now()
                    outcome = service.search(query, k=job["k"],
                                             algorithm=algorithm,
                                             collector=collector)
                    ms = (now() - t0) * 1000.0
                    ops.append((position, slot, algorithm, ms,
                                _answer(outcome)))
            fresh = QueryService(probe)
            for algorithm in algorithms:
                t0 = now()
                outcome = fresh.search(job["probe_query"], k=job["k"],
                                       algorithm=algorithm,
                                       collector=collector)
                ms = (now() - t0) * 1000.0
                ops.append((position, -1, algorithm, ms, _answer(outcome)))
            windows.append((len(ops) - first, now() - began))
            position += 1
        phase = {"traced": traced, "windows": windows, "ops": ops,
                 "cache_before": caches_before,
                 "cache_after": service.cache_stats()}
        if traced:
            phase["layers"] = layers.totals()
            phase["counters"] = dict(collector.counters)
        out["phases"].append(phase)
    out["self_rss_mb"] = self_peak_rss_mb()
    return out


def run_batch(job):
    from repro import MetricsCollector, SpanTracer
    service, opens = _open(job["db"], job["opens"])
    batches = job["batches"]
    out = {"opens_s": opens, "phases": [], "exhausted": False}
    position = 0
    for traced, seconds in _phases(job):
        layers = _install(job) if traced else None
        if traced:
            service.collector = MetricsCollector()
        spans = []
        done = []  # [batch index, ms, [answer JSON, ...]]
        windows = []  # (queries, seconds) per batch
        start = now()
        while now() - start < seconds:
            if position == len(batches):
                out["exhausted"] = True
                break
            tracer = SpanTracer() if traced else None
            t0 = now()
            batch = service.batch_search(batches[position], k=job["k"],
                                         executor=job["executor"],
                                         workers=job["workers"],
                                         tracer=tracer)
            ms = (now() - t0) * 1000.0
            windows.append((len(batches[position]), ms / 1000.0))
            done.append([position, ms,
                         [_answer(outcome) for outcome in batch.outcomes]])
            if tracer is not None:
                spans.extend(record for record in tracer.export()
                             if record["name"] in ("chunk", "query",
                                                   "worker"))
            position += 1
        phase = {"traced": traced, "windows": windows, "batches": done}
        if traced:
            layers.absorb_spool()
            phase["layers"] = layers.totals()
            phase["spans"] = [{"name": record["name"],
                               "duration_ms": record["duration_ms"]}
                              for record in spans]
        out["phases"].append(phase)
    out["self_rss_mb"] = self_peak_rss_mb()
    out["children_rss_mb"] = children_peak_rss_mb()
    return out


KINDS = {"engine": run_engine, "batch": run_batch}


def main() -> int:
    ensure_program()
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    result = KINDS[job["kind"]](job)
    with open(job["output"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
