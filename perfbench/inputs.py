"""Seeded inputs: documents, query streams and reference answers.

The p-documents are fixed: the generators' own seeds shape the
elements and words, and a fixed seed places the distributional nodes.
``--seed`` draws the queries (and their order and skew).  A document
seed moves a workload's figures by up to 15% — one distributional node
placed near the root changes the cost of every query — which would
swamp the run-to-run comparison the benchmark exists for.

The *fault probe* is fixed as well, on purpose: the DBLP-shaped document
``generate_dblp(100, seed=9)`` (made probabilistic with seed 9) answers
``{author, conf}`` with a probability of ``1.0000000000000002`` under
both algorithms, so an operation on it fails the same way in every run.

The query streams are drawn from ``--seed`` and the index alone, never
from the program's answers, so a change to the program's output cannot
change what a run measures.  A seeded query whose answer shows the
fault stays in its stream; its answer is checked with the faulty
probabilities taken as 1 and counted apart from the failed operations
(see README.md: a failure that depends on the seed would make the
failed share of a run depend on the seed).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from perfbench.checker import Answer, answer_of
from perfbench.common import K

#: The fixed fault probe (see the module docstring).
PROBE_QUERY = ("author", "conf")
PROBE_PUBLICATIONS = 100
PROBE_SEED = 9

#: Query frequency bands (document frequency of each term).  The broad
#: band is capped: beyond it a few label terms cost 100 ms or more a
#: query, and their share of a run would swing its throughput.
BANDS = {"selective": (2, 20), "mid": (20, 200), "broad": (200, 500)}


def mix(seed: int, *salt: int) -> int:
    """A derived integer seed (tuples of ints hash deterministically)."""
    return hash((seed, *salt)) & 0x7FFFFFFF


def xmark(scale: int):
    """The XMark-shaped p-document of ``scale``."""
    from repro.datagen import generate_xmark, make_probabilistic
    return make_probabilistic(generate_xmark(scale=scale), seed=100)


def dblp(publications: int, number: int):
    """DBLP-shaped p-document ``number`` of a corpus."""
    from repro.datagen import generate_dblp, make_probabilistic
    plain = generate_dblp(publications=publications, seed=1000 + number)
    return make_probabilistic(plain, seed=2000 + number)


def probe_document():
    from repro.datagen import generate_dblp, make_probabilistic
    plain = generate_dblp(publications=PROBE_PUBLICATIONS, seed=PROBE_SEED)
    return make_probabilistic(plain, seed=PROBE_SEED)


def subtree_document(node):
    """A p-document holding a copy of ``node``'s subtree (``node``
    becomes a certain root)."""
    from repro.prxml.model import PDocument, PNode
    root = PNode(node.label, node.node_type, node.text, 1.0)
    stack = [(node, root)]
    while stack:
        original, twin = stack.pop()
        if original.exp_subsets is not None:
            twin.exp_subsets = list(original.exp_subsets)
        for child in original.children:
            child_twin = PNode(child.label, child.node_type, child.text,
                               child.edge_prob)
            twin.add_child(child_twin)
            stack.append((child, child_twin))
    return PDocument(root)


def band_terms(index, band: str) -> List[str]:
    low, high = BANDS[band]
    return [term for term in index.vocabulary()
            if index.document_frequency(term) >= low
            and (high is None or index.document_frequency(term) <= high)]


class QuerySampler:
    """Distinct 2-term queries by band, never repeating a term set,
    each with at least one SLCA on the match skeleton."""

    def __init__(self, index, rng: random.Random,
                 exclude: Sequence[Sequence[str]] = ()):
        self.index = index
        self.rng = rng
        self.pools = {band: band_terms(index, band) for band in BANDS}
        self.seen = {tuple(sorted(query)) for query in exclude}

    def draw(self, band: str, attempts: int = 200) -> Optional[List[str]]:
        from repro.slca.indexed_lookup import indexed_lookup_eager
        pool = self.pools[band]
        codes = self.index.encoded.codes
        for _ in range(attempts):
            query = sorted(self.rng.sample(pool, 2))
            key = tuple(query)
            if key in self.seen:
                continue
            self.seen.add(key)
            lists = [[codes[i] for i in self.index.postings(term)]
                     for term in query]
            if indexed_lookup_eager(lists):
                return query
        return None


def references(database, query: Sequence[str],
               algorithms: Sequence[str] = ("eager", "prstack"),
               k: int = K) -> Dict[str, Answer]:
    """In-process ``topk_search`` answers, straight on the index (no
    service, no caches), one per algorithm."""
    from repro.core.api import topk_search
    return {algorithm: answer_of(topk_search(database, list(query), k,
                                             algorithm))
            for algorithm in algorithms}


def draw_stream(sampler: QuerySampler, bands: Sequence[str], count: int,
                head: Sequence[Sequence[str]] = ()) -> List[List[str]]:
    """``count`` queries: ``head``, then draws cycling through
    ``bands``."""
    queries = [list(query) for query in head][:count]
    turn = 0
    while len(queries) < count:
        query = sampler.draw(bands[turn % len(bands)])
        turn += 1
        if query is not None:
            queries.append(query)
        elif turn > 100 * count:
            raise RuntimeError(f"query bands {bands} exhausted after "
                               f"{len(queries)} queries")
    return queries


def zipf_weights(count: int, skew: float) -> List[float]:
    """Cumulative Zipf weights over ranks 1..count."""
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += 1.0 / rank ** skew
        cumulative.append(total)
    return cumulative
