"""engine-cold: the paper's algorithms behind ``QueryService.search``.

One caller, closed loop, over one XMark-shaped p-document (scale
:data:`SCALE`).  The stream starts with the Table III X-queries and
then cycles through :data:`PATTERN` — sampled 2-term queries, mostly
mid-band so that the median lands inside one band; every query runs
once under each algorithm and none repeats, so the result cache never
hits.  A round is :data:`ROUND` stream queries (both
algorithms each) plus the fixed fault probe under both algorithms on a
fresh service; the probe's two operations fail every round.

The stream is sized by count, :data:`STREAM_PER_S` queries per second
of run length, drawn from the seed and the index alone; a run whose
stream runs out before ``--seconds`` fails rather than measure less.
The band pattern is an assumption, not taken from a query log: mostly
mid-band so that the median latency lands inside one band, with a
selective and a broad query in every six.

References: each service answer is checked against the *other*
algorithm's answer computed straight on the index (no service, no
caches), after the measured run, for the queries it ran; and a few
small subtrees of the document are checked against possible-worlds
enumeration.
"""

from __future__ import annotations

import random
from typing import Dict

from perfbench import checker, inputs, metrics
from perfbench.common import K, log, median, now, run_python, snapshot_mb

SCALE = 2
PATTERN = ("selective", "mid", "mid", "mid", "mid", "broad")
ROUND = 2 * len(PATTERN)
OPENS = 3
SAVES = 3
SLICES = 4
#: Stream queries drawn per second of run length: about four times the
#: rate the reference machine runs them at (both algorithms each).
STREAM_PER_S = 400
OTHER = {"eager": "prstack", "prstack": "eager"}


def run(seed: int, seconds: float, trace: bool, workdir) -> Dict:
    from repro import save_database
    from repro.datagen import QUERY_SETS, query_keywords
    from repro.index.storage import Database
    from repro.index.tokenizer import normalize_query

    start = now()
    database = Database.from_document(inputs.xmark(SCALE))
    generate_s = now() - start
    db_dir = workdir.join("engine.db")
    saves = []
    for _ in range(SAVES):
        start = now()
        save_database(database, db_dir)
        saves.append(now() - start)
    probe = Database.from_document(inputs.probe_document())
    probe_dir = workdir.join("probe.db")
    save_database(probe, probe_dir)
    probe_reference = inputs.references(probe, inputs.PROBE_QUERY)

    head = [sorted(normalize_query(query_keywords(qid)))
            for qid in QUERY_SETS["xmark"]]
    sampler = inputs.QuerySampler(database.index,
                                  random.Random(inputs.mix(seed, 3)),
                                  exclude=head)
    count = int(STREAM_PER_S * seconds) // ROUND * ROUND + ROUND
    queries = inputs.draw_stream(sampler, PATTERN, count, head=head)
    rounds = [queries[i:i + ROUND] for i in range(0, count, ROUND)]

    result = run_python("child.py", {
        "kind": "engine", "db": db_dir, "probe_db": probe_dir,
        "probe_query": list(inputs.PROBE_QUERY), "rounds": rounds,
        "k": K, "seconds": seconds, "trace": trace, "opens": OPENS,
    }, workdir, "engine", timeout_s=seconds + 120)
    if result["exhausted"]:
        raise RuntimeError(f"engine-cold: the stream of {count} queries "
                           f"ran out before {seconds} s")

    matches = checker.Matches(database.index)
    references = {}
    attempted = failed = wrong = 0
    shown = []  # per phase: seeded operations showing the fault
    for phase in result["phases"]:
        shown.append(0)
        for position, slot, algorithm, _ms, text in phase["ops"]:
            answer = checker.loads(text)
            attempted += 1
            if slot < 0:
                reference = probe_reference[OTHER[algorithm]]
                terms = None
            else:
                terms = rounds[position][slot]
                if (position, slot) not in references:
                    references[position, slot] = inputs.references(
                        database, terms)
                reference = references[position, slot][OTHER[algorithm]]
            verdict, problems = checker.classify(
                answer, reference, K,
                matches.of(terms) if terms else None)
            if verdict == checker.FAULT_ABOVE_ONE:
                if terms is None:
                    failed += 1
                else:
                    shown[-1] += 1
            elif verdict == checker.WRONG:
                wrong += 1
                log(f"engine-cold WRONG {terms or inputs.PROBE_QUERY} "
                    f"{algorithm}: {problems[:3]}")
    seeded = [sum(1 for op in phase["ops"] if op[1] >= 0)
              for phase in result["phases"]]
    ran = len({op[0] for phase in result["phases"] for op in phase["ops"]})
    log(f"engine-cold: {ran} of {len(rounds)} rounds run; {sum(shown)} of "
        f"{sum(seeded)} seeded operations show the probability-above-1 "
        f"fault")
    wrong += _check_slices(database.document, seed)

    setup_s = generate_s + median(saves) + median(result["opens_s"])
    phases = result["phases"]
    out = {"correct": wrong == 0, "attempted": attempted,
           "failed": failed}
    if not trace:
        phase = phases[0]
        latencies = [op[3] for op in phase["ops"]]
        out["metrics"] = metrics.end_to_end(
            latencies, phase["windows"], setup_s,
            result["self_rss_mb"], snapshot_mb(db_dir))
    else:
        plain, traced = phases
        layers = traced["layers"]
        values = metrics.layer_times(layers)
        values.update(metrics.counters_per_query(traced["counters"],
                                                 len(traced["ops"])))
        for cache, name in (("results", "result_hit_rate"),
                            ("match_entries", "match_cache_hit_rate"),
                            ("code_lists", "code_list_hit_rate")):
            values[f"service.{name}"] = metrics.hit_rate(
                traced["cache_before"], traced["cache_after"], cache)
        values.update(metrics.save_times(saves))
        values["latency_p99_ms"] = metrics.tail([op[3]
                                                 for op in plain["ops"]])
        values["trace.overhead_pct"] = metrics.overhead_pct(
            [op[3] for op in plain["ops"]], [op[3] for op in traced["ops"]])
        values["core.above_one_share"] = metrics.ratio(shown[1], seeded[1])
        out["metrics"] = metrics.per_layer(values)
    return out


def _check_slices(document, seed: int) -> int:
    """Check ``QueryService.search`` on small subtrees of the document
    against possible-worlds enumeration; returns the mismatch count.

    A slice answer showing the probability-above-1 fault is logged and
    not counted (slice checks are not measured operations)."""
    from repro import QueryService
    from repro.index.storage import Database
    from repro.index.tokenizer import node_terms

    rng = random.Random(inputs.mix(seed, 4))
    candidates = [node for node in document
                  if node.is_ordinary and node.children]
    rng.shuffle(candidates)
    wrong = checked = 0
    for node in candidates:
        if checked >= SLICES:
            break
        piece = inputs.subtree_document(node)
        if not 20 <= len(piece) <= 120 or \
                not 8 <= piece.theoretical_world_count() <= 4096:
            continue
        words = sorted({term for member in piece
                        for term in node_terms(member)})
        if len(words) < 2:
            continue
        terms = rng.sample(words, 2)
        expected = checker.brute_force(piece, terms, K)
        if not expected:
            continue
        checked += 1
        service = QueryService(Database.from_document(piece))
        for algorithm in ("eager", "prstack"):
            answer = checker.answer_of(service.search(terms, k=K,
                                                      algorithm=algorithm))
            verdict, problems = checker.classify(answer, expected, K)
            if verdict == checker.WRONG:
                wrong += 1
                log(f"engine-cold slice WRONG {terms} {algorithm}: "
                    f"{problems[:3]}")
            elif verdict == checker.FAULT_ABOVE_ONE:
                log(f"engine-cold slice {terms} {algorithm}: probability "
                    f"above 1 (known fault)")
    if checked < SLICES:
        log(f"engine-cold: only {checked} possible-worlds slices found")
        wrong += 1
    return wrong
