"""Per-layer spans recorded from the benchmark's own code.

:func:`install` wraps public functions of the program's modules so that
every call records its wall time and its *self* time (wall time minus
the part covered by wrapped calls nested inside it on the same
thread).  Nothing in ``src/`` changes: the wrapper replaces the
function object wherever a ``repro`` module holds it, so callers that
imported it by name are covered too.

Calls made in forked worker processes (the batch executor's pool)
cannot reach the parent's totals, so a worker appends each record to
the spool file named by ``spool`` as one JSON line.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) — functions wrapped by :func:`install`.
#: A layer may wrap several functions; nested calls of one layer count
#: once, at the outermost call.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("serve.parse", "repro.serve.protocol", "parse_head"),
    ("serve.parse", "repro.serve.protocol", "parse_search_request"),
    ("serve.encode", "repro.serve.protocol", "outcome_payload"),
    ("serve.encode", "repro.serve.protocol", "json_response"),
    ("index.match_entries", "repro.index.matchlist", "build_match_entries"),
    ("index.load", "repro.index.storage", "load_database"),
    ("index.verify", "repro.index.storage", "verify_snapshot"),
    ("index.postings", "repro.index.storage", "read_postings"),
    ("index.save", "repro.index.storage", "save_database"),
    ("prxml.parse", "repro.prxml.parser", "parse_pxml"),
    ("prxml.parse", "repro.prxml.parser", "parse_pxml_file"),
    ("prxml.serialize", "repro.prxml.serializer", "serialize_pxml"),
    ("encoding.encode", "repro.encoding.encoder", "encode_document"),
    ("core.eager", "repro.core.eager", "eager_topk_search"),
    ("core.prstack", "repro.core.prstack", "prstack_search"),
    ("slca.lookup", "repro.slca.indexed_lookup", "indexed_lookup_eager"),
]

#: (layer, module, class, method) — methods wrapped on their class.
METHODS: List[Tuple[str, str, str, str]] = [
    ("corpus.search", "repro.corpus.service", "CorpusService", "search"),
    ("service.search", "repro.service.service", "QueryService", "search"),
    ("service.reload", "repro.service.service", "QueryService", "reload"),
    ("service.batch", "repro.service.service", "QueryService",
     "batch_search"),
    ("index.integrity", "repro.index.inverted", "InvertedIndex",
     "check_integrity"),
]


def _serve_only(layer: str, args: tuple, result: Any) -> bool:
    """Serve-layer spans count ``/search`` requests only (``/health``,
    ``/metrics`` and ``/reload`` share the same functions)."""
    if layer == "serve.parse":
        return getattr(result, "path", "/search") == "/search"
    if layer == "serve.encode":
        return any(hasattr(arg, "results")
                   or (isinstance(arg, dict) and "results" in arg)
                   for arg in args)
    return True


class Layers:
    """Per-layer call counts, wall and self seconds."""

    def __init__(self, spool: Optional[str] = None):
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spool = spool
        self._owner = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, function: Callable) -> Callable:
        layers = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = layers._stack()
            outer = next((frame for frame in reversed(stack)
                          if frame[0] == layer), None)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                wall = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                if _serve_only(layer, args, result):
                    layers.record(layer, wall, wall - frame[1],
                                  outermost=outer is None)
        return traced

    def record(self, layer: str, wall: float, self_s: float,
               outermost: bool) -> None:
        if os.getpid() != self._owner:
            if self.spool:
                with open(self.spool, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps([layer, wall, self_s,
                                             outermost]) + "\n")
            return
        with self._lock:
            self._add(layer, wall, self_s, outermost)

    def _add(self, layer: str, wall: float, self_s: float,
             outermost: bool) -> None:
        self.self_s[layer] += self_s
        if outermost:
            self.calls[layer] += 1
            self.wall[layer] += wall

    def absorb_spool(self) -> None:
        """Fold the worker processes' spooled records in."""
        if not self.spool or not os.path.exists(self.spool):
            return
        with open(self.spool, encoding="utf-8") as handle:
            for line in handle:
                layer, wall, self_s, outermost = json.loads(line)
                self._add(layer, wall, self_s, outermost)
        os.remove(self.spool)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "wall_ms", "self_ms"}}`` (totals)."""
        with self._lock:
            return {layer: {"calls": self.calls[layer],
                            "wall_ms": self.wall[layer] * 1000.0,
                            "self_ms": self.self_s[layer] * 1000.0}
                    for layer in set(self.calls) | set(self.self_s)}


def install(spool: Optional[str] = None) -> Layers:
    """Wrap every function in :data:`FUNCTIONS` and :data:`METHODS`."""
    import importlib
    import repro.cli  # noqa: F401 - load the modules holding names
    import repro.corpus.service  # noqa: F401
    import repro.serve.server  # noqa: F401

    layers = Layers(spool)
    for layer, module_name, attribute in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        wrapped = layers.wrap(layer, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    for layer, module_name, class_name, method in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, layers.wrap(layer, getattr(cls, method)))
    return layers
