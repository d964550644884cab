"""Answer checks: properties every top-k answer must have, a tie-aware
comparison against a reference answer, and a possible-worlds brute
force for small p-documents.

An answer is a list of ``(code, probability)`` pairs, ``code`` being a
Dewey string such as ``"1.M2.4"`` (kind prefixes are ignored: two
codes name the same node when their positions agree).

Several nodes often share a probability of about 1.0, and ulp noise in
either path can reorder them, so two answers *agree* when their i-th
probabilities match within ``eps`` and every node in only one of them
is within ``eps`` of the k-th (last) probability.  An exact comparison
would report such reorderings as mismatches.

A probability above 1 by at most ``eps`` is the program's known fault
(``Engine._finalize_ordinary`` emits ``path_prob * local`` with
``local`` the unclamped harvested mass, ``1.0000000000000002``).
:func:`classify` still checks the rest of such an answer, with its
probabilities taken as 1, and reports it as ``FAULT_ABOVE_ONE`` when
nothing else is wrong, so a workload can tell the fault from a wrong
answer.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Answer = List[Tuple[str, float]]
Positions = Tuple[int, ...]

#: Probability tolerance of the comparison.
EPS = 1e-9

#: :func:`classify` verdicts.
OK = "ok"
FAULT_ABOVE_ONE = "above_one"
WRONG = "wrong"

_COMPONENT = re.compile(r"^[A-Za-z]?(\d+)$")


def positions(code: str) -> Positions:
    """Dewey positions of a code string (kind prefixes dropped)."""
    parts = []
    for component in code.split("."):
        match = _COMPONENT.match(component)
        if match is None:
            raise ValueError(f"bad Dewey code {code!r}")
        parts.append(int(match.group(1)))
    return tuple(parts)


def above_one(answer: Answer) -> bool:
    return any(probability > 1.0 for _, probability in answer)


def property_problems(answer: Answer, k: int,
                      matches: Optional[Sequence[Sequence[Positions]]]
                      = None, ceiling: float = 1.0) -> List[str]:
    """What is wrong with ``answer`` on its own.

    Checks: at most ``k`` distinct nodes; the total result order
    (probability descending, then document order); every probability
    in [0, ``ceiling``]; and, when ``matches`` gives each keyword's
    sorted match positions, every node an ancestor-or-self of a match
    of each keyword.
    """
    problems: List[str] = []
    if len(answer) > k:
        problems.append(f"{len(answer)} results for k={k}")
    seen = set()
    keys = []
    for code, probability in answer:
        node = positions(code)
        if node in seen:
            problems.append(f"node {code} twice")
        seen.add(node)
        if not (isinstance(probability, float) and math.isfinite(probability)):
            problems.append(f"{code}: probability {probability!r}")
            continue
        if probability < 0.0 or probability > ceiling:
            problems.append(f"{code}: probability {probability!r} "
                            f"outside [0, 1]")
        keys.append((-probability, node, code))
    for before, after in zip(keys, keys[1:]):
        if not before[:2] < after[:2]:
            problems.append(f"order: {before[2]} before {after[2]}")
    if matches is not None:
        for code, _ in answer:
            node = positions(code)
            for term_matches in matches:
                if not _covers(node, term_matches):
                    problems.append(f"{code} is not an ancestor-or-self "
                                    f"of a match of every keyword")
                    break
    return problems


def _covers(node: Positions, sorted_matches: Sequence[Positions]) -> bool:
    """Whether some match lies in ``node``'s subtree: the first match at
    or after ``node`` in document order must start with it."""
    at = bisect.bisect_left(sorted_matches, node)
    return at < len(sorted_matches) and \
        sorted_matches[at][:len(node)] == node


def compare(answer: Answer, reference: Answer,
            eps: float = EPS) -> List[str]:
    """Tie-aware differences between ``answer`` and ``reference``."""
    if len(answer) != len(reference):
        return [f"{len(answer)} results, reference has {len(reference)}"]
    problems: List[str] = []
    for rank, ((code, p), (ref_code, q)) in enumerate(zip(answer,
                                                          reference)):
        if abs(p - q) > eps:
            problems.append(f"rank {rank + 1}: {code}={p!r}, reference "
                            f"{ref_code}={q!r}")
    if problems or not answer:
        return problems
    kth = min(answer[-1][1], reference[-1][1])
    ours = {positions(code): p for code, p in answer}
    theirs = {positions(code): q for code, q in reference}
    for node in ours.keys() ^ theirs.keys():
        p = ours.get(node, theirs.get(node))
        if abs(p - kth) > eps:
            side = "answer" if node in ours else "reference"
            problems.append(f"node {'.'.join(map(str, node))} only in "
                            f"the {side}, p={p!r} vs k-th {kth!r}")
    return problems


def classify(answer: Answer, reference: Answer, k: int,
             matches: Optional[Sequence[Sequence[Positions]]] = None
             ) -> Tuple[str, List[str]]:
    """One operation's verdict: ``OK``; ``FAULT_ABOVE_ONE`` when the
    answer is right but for probabilities above 1 by at most
    :data:`EPS` (the named fault); or ``WRONG`` with reasons.

    The order is checked on the values as returned; the range and the
    comparison with ``reference`` (which may show the fault too) take
    a probability up to ``1 + EPS`` as 1."""
    problems = property_problems(answer, k, matches, ceiling=1.0 + EPS) \
        + compare(answer, reference)
    if problems:
        return WRONG, problems
    return (FAULT_ABOVE_ONE if above_one(answer) else OK), []


class Matches:
    """Each term's sorted match positions in one ``InvertedIndex``,
    computed once per term (the ``matches`` argument of the checks)."""

    def __init__(self, index):
        self.index = index
        self.terms: Dict[str, List[Positions]] = {}

    def of(self, terms: Iterable[str]) -> List[List[Positions]]:
        codes = self.index.encoded.codes
        for term in terms:
            if term not in self.terms:
                self.terms[term] = sorted(
                    codes[node_id].positions
                    for node_id in self.index.postings(term))
        return [self.terms[term] for term in terms]


def loads(text: str) -> Answer:
    """An answer from the JSON ``[[code, probability], ...]`` form the
    program-side child process writes."""
    return [(code, probability) for code, probability in json.loads(text)]


def answer_of(outcome) -> Answer:
    """``(code, probability)`` pairs of an in-process SearchOutcome."""
    return [(str(result.code), result.probability)
            for result in outcome.results]


# -- possible-worlds brute force ------------------------------------------


def brute_force(document, terms: Sequence[str], k: int,
                max_worlds: int = 1 << 14) -> Answer:
    """Top-k SLCA answer of a small p-document by explicit enumeration:
    in every possible world, a node is an SLCA when its subtree holds
    every term and no child's subtree does; its probability is the
    total probability of the worlds where it is one.

    Uses the program's world enumeration and tokenizer (what a node
    *is* and which words it *matches*), and nothing of its search."""
    from repro.encoding import encode_document
    from repro.index.tokenizer import tokenize
    from repro.prxml.possible_worlds import enumerate_possible_worlds

    wanted = {term: 1 << bit for bit, term in enumerate(terms)}
    full = (1 << len(terms)) - 1
    probability: Dict[int, float] = {}
    for world in enumerate_possible_worlds(document, max_worlds):
        _slcas(world.root, wanted, full, tokenize, world.probability,
               probability)
    codes = encode_document(document).codes
    answer = [(str(codes[node_id]), p) for node_id, p in probability.items()]
    answer.sort(key=lambda row: (-row[1], positions(row[0])))
    return answer[:k]


def _slcas(node, wanted: Dict[str, int], full: int, tokenize,
           world_p: float, out: Dict[int, float]) -> Tuple[int, bool]:
    """Post-order: (term mask of the subtree, whether an SLCA lies in
    it); records the SLCAs of this world into ``out``."""
    mask = 0
    for word in tokenize(node.label) + (tokenize(node.text)
                                        if node.text else []):
        mask |= wanted.get(word, 0)
    below = False
    for child in node.children:
        child_mask, child_has = _slcas(child, wanted, full, tokenize,
                                       world_p, out)
        mask |= child_mask
        below = below or child_has
    if mask == full and not below:
        out[node.source_id] = out.get(node.source_id, 0.0) + world_p
        return mask, True
    return mask, below
