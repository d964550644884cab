"""Metric names, units and the helpers that fill them in.

End-to-end metrics are reported by every workload with tracing off;
per-layer metrics by every workload's traced run, 0 where the workload
does not exercise the layer (the README lists which workload moves
which metric).  Per-layer times are mean milliseconds per call of the
wrapped function(s) unless the README says per request.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from perfbench.common import median, percentile

END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
}

PER_LAYER = {
    "serve.parse_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.wait_ms": "ms",
    "corpus.search_ms": "ms",
    "corpus.self_ms": "ms",
    "corpus.visits_per_query": "count",
    "corpus.prune_rate": "ratio",
    "service.search_ms": "ms",
    "service.result_hit_rate": "ratio",
    "service.match_cache_hit_rate": "ratio",
    "service.code_list_hit_rate": "ratio",
    "service.reload_ms": "ms",
    "service.batch_ms": "ms",
    "service.chunk_ms": "ms",
    "service.worker_search_ms": "ms",
    "index.match_entries_ms": "ms",
    "index.match_entries_per_query": "count",
    "index.load_ms": "ms",
    "index.verify_ms": "ms",
    "index.postings_ms": "ms",
    "index.integrity_ms": "ms",
    "index.save_ms": "ms",
    "prxml.parse_ms": "ms",
    "prxml.serialize_ms": "ms",
    "encoding.encode_ms": "ms",
    "core.eager_ms": "ms",
    "core.prstack_ms": "ms",
    "core.prstack.entries_scanned": "count",
    "core.heap.offers": "count",
    "core.engine.frames_pushed": "count",
    "core.eager.prune_rate": "ratio",
    "slca.lookup_ms": "ms",
    "core.above_one_share": "ratio",
    "client.cpu_ms": "ms",
    "latency_p99_ms": "ms",
    "reload_p50_ms": "ms",
    "save_p50_ms": "ms",
    "trace.overhead_pct": "%",
}

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def end_to_end(latencies_ms: Sequence[float],
               windows: Sequence[Tuple[int, float]], setup_s: float,
               peak_rss_mb: float, store_mb: float
               ) -> Dict[str, Dict[str, object]]:
    """``windows`` are ``(queries answered, seconds)`` spans of the
    measured phase; throughput is their median rate, so a burst of
    lost CPU on a shared machine moves a few windows, not the figure."""
    values = {
        "latency_p50_ms": median(latencies_ms),
        "throughput_qps": median(count / seconds
                                 for count, seconds in windows),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "store_mb": store_mb,
    }
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in values.items()}


def per_layer(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}


def per_call(layers: Dict[str, Dict[str, float]], layer: str,
             self_time: bool = False) -> float:
    """Mean ms per (outermost) call of ``layer``; 0 when never called."""
    totals = layers.get(layer)
    if not totals or not totals["calls"]:
        return 0.0
    key = "self_ms" if self_time else "wall_ms"
    return totals[key] / totals["calls"]


def total_ms(layers: Dict[str, Dict[str, float]], layer: str) -> float:
    """Total wall ms of ``layer``'s outermost calls; 0 when never called."""
    totals = layers.get(layer)
    return totals["wall_ms"] if totals else 0.0


def layer_times(layers: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-call time metrics every workload reads the same way."""
    names = ("service.search", "service.reload", "service.batch",
             "index.match_entries", "index.load", "index.verify",
             "index.postings", "index.integrity", "index.save",
             "prxml.parse", "prxml.serialize", "encoding.encode",
             "slca.lookup", "corpus.search")
    values = {f"{name}_ms": per_call(layers, name) for name in names}
    values["core.eager_ms"] = per_call(layers, "core.eager", True)
    values["core.prstack_ms"] = per_call(layers, "core.prstack", True)
    values["corpus.self_ms"] = per_call(layers, "corpus.search", True)
    return values


def save_times(saves_s: Sequence[float]) -> Dict[str, float]:
    """``save_database`` calls timed by the workload's own setup (they
    run before any span is installed)."""
    return {"index.save_ms": sum(saves_s) * 1000.0 / len(saves_s),
            "save_p50_ms": median(saves_s) * 1000.0}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hit_rate(before: Dict, after: Dict, cache: str) -> float:
    """Hit share of lookups between two ``cache_stats()`` readings."""
    hits = after[cache]["hits"] - before[cache]["hits"]
    misses = after[cache]["misses"] - before[cache]["misses"]
    return ratio(hits, hits + misses)


def counters_per_query(counters: Dict[str, float], queries: int
                       ) -> Dict[str, float]:
    """Engine counts per query from a collector's counters."""
    return {
        "core.prstack.entries_scanned":
            ratio(counters.get("prstack.entries_scanned", 0), queries),
        "core.heap.offers": ratio(counters.get("heap.offers", 0), queries),
        "core.engine.frames_pushed":
            ratio(counters.get("engine.frames_pushed", 0), queries),
        "core.eager.prune_rate":
            ratio(counters.get("eager.pruned_path_bound", 0),
                  counters.get("eager.candidates_processed", 0)),
        "index.match_entries_per_query":
            ratio(counters.get("index.match_entries", 0), queries),
    }


def tail(latencies_ms: Sequence[float]) -> float:
    """p99 when at least :data:`TAIL_SAMPLES` samples lie beyond it."""
    if len(latencies_ms) * 0.01 < TAIL_SAMPLES:
        return 0.0
    return percentile(latencies_ms, 99.0)


def overhead_pct(untraced_ms: Iterable[float],
                 traced_ms: Iterable[float]) -> float:
    """Tracing overhead: traced over untraced median latency, in %."""
    base = median(untraced_ms)
    return (median(traced_ms) / base - 1.0) * 100.0
