"""batch-process: ``QueryService.batch_search`` on the process executor.

One caller, closed loop: batches of :data:`BATCH` distinct 2-term
queries (mid band, then selective, alternating; no query repeats in a
run) over one mid-size XMark-shaped p-document (scale :data:`SCALE`),
each through ``batch_search(executor="process", workers=<cores, at
most 2>)``.  Every batch spawns a pool whose workers re-parse the
serialized document, so this workload measures the batch executor
layer: the spawn, the payload serialize/parse, and the worker metric
merges.

The batches are drawn from the seed and the index alone, by count
(:data:`BATCHES_PER_S` per second of run length); a run whose batches
run out before ``--seconds`` fails rather than measure less.

Reference: serial in-process PrStack (``topk_search`` straight on the
index) for every query the run answered, computed after the run.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict

from perfbench import checker, inputs, metrics
from perfbench.common import (K, load_threads, log, median, now,
                              run_python, snapshot_mb)

SCALE = 1
BATCH = 24
OPENS = 3
SAVES = 3
#: Batches drawn per second of run length.  A batch takes about 0.9 s
#: on the reference machine and about 55 ms on the serial executor, so
#: the process executor may get some nine times faster before a run's
#: batches run out.
BATCHES_PER_S = 10.0


def prepare(seed: int, seconds: float, workdir) -> SimpleNamespace:
    """The document's snapshot (saved :data:`SAVES` times) and the run's
    batches."""
    from repro import save_database
    from repro.index.storage import Database

    start = now()
    database = Database.from_document(inputs.xmark(SCALE))
    generate_s = now() - start
    db_dir = workdir.join("batch.db")
    saves = []
    for _ in range(SAVES):
        start = now()
        save_database(database, db_dir)
        saves.append(now() - start)

    sampler = inputs.QuerySampler(database.index,
                                  random.Random(inputs.mix(seed, 40)))
    wanted = int(BATCHES_PER_S * seconds + 1) * BATCH
    queries = inputs.draw_stream(sampler, ("mid", "selective"), wanted)
    batches = [queries[i:i + BATCH] for i in range(0, wanted, BATCH)]
    return SimpleNamespace(database=database, db_dir=db_dir, saves=saves,
                           setup_s=generate_s + median(saves),
                           batches=batches)


def baseline(seed: int, seconds: float, workdir) -> Dict[str, float]:
    """The same batches on the serial executor, in this process."""
    from repro import QueryService
    prepared = prepare(seed, seconds, workdir)
    service = QueryService(prepared.db_dir)
    latencies = []
    start = now()
    for batch in prepared.batches:
        if now() - start >= seconds:
            break
        t0 = now()
        service.batch_search(batch, k=K, executor="serial")
        latencies.append((now() - t0) * 1000.0)
    return {"latency_p50_ms": median(latencies),
            "throughput_qps": BATCH * 1000.0 / median(latencies)}


def run(seed: int, seconds: float, trace: bool, workdir) -> Dict:
    prepared = prepare(seed, seconds, workdir)
    database, db_dir = prepared.database, prepared.db_dir
    batches = prepared.batches

    result = run_python("child.py", {
        "kind": "batch", "db": db_dir, "batches": batches, "k": K,
        "executor": "process", "workers": load_threads(),
        "seconds": seconds, "trace": trace, "opens": OPENS,
        "spool": workdir.join("batch.spool"),
    }, workdir, "batch", timeout_s=seconds + 120)
    if result["exhausted"]:
        raise RuntimeError(f"batch-process: the {len(batches)} batches ran "
                           f"out before {seconds} s")

    matches = checker.Matches(database.index)
    attempted = wrong = 0
    shown = []  # per phase: operations showing the fault
    for phase in result["phases"]:
        shown.append(0)
        for position, _ms, answers in phase["batches"]:
            for slot, text in enumerate(answers):
                attempted += 1
                terms = batches[position][slot]
                reference = inputs.references(database, terms,
                                              ("prstack",))["prstack"]
                verdict, problems = checker.classify(
                    checker.loads(text), reference, K, matches.of(terms))
                if verdict == checker.FAULT_ABOVE_ONE:
                    shown[-1] += 1
                elif verdict == checker.WRONG:
                    wrong += 1
                    log(f"batch-process WRONG {terms}: {problems[:3]}")
    log(f"batch-process: {sum(shown)} of {attempted} operations show the "
        f"probability-above-1 fault")

    setup_s = prepared.setup_s + median(result["opens_s"])
    out = {"correct": wrong == 0, "attempted": attempted, "failed": 0}
    phases = result["phases"]
    if not trace:
        phase = phases[0]
        latencies = [done[1] for done in phase["batches"]]
        out["metrics"] = metrics.end_to_end(
            latencies, phase["windows"], setup_s,
            result["self_rss_mb"] + result["children_rss_mb"],
            snapshot_mb(db_dir))
    else:
        plain, traced = phases
        values = metrics.layer_times(traced["layers"])
        values.update(metrics.save_times(prepared.saves))
        spans = traced["spans"]
        for name, metric in (("chunk", "service.chunk_ms"),
                             ("query", "service.worker_search_ms")):
            durations = [span["duration_ms"] for span in spans
                         if span["name"] == name]
            values[metric] = sum(durations) / len(durations) \
                if durations else 0.0
        values["trace.overhead_pct"] = metrics.overhead_pct(
            [done[1] for done in plain["batches"]],
            [done[1] for done in traced["batches"]])
        values["core.above_one_share"] = metrics.ratio(
            shown[1], BATCH * len(traced["batches"]))
        out["metrics"] = metrics.per_layer(values)
    return out
