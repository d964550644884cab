"""Tests of the benchmark's answer checker.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from perfbench import checker, inputs  # noqa: E402
from perfbench.common import K  # noqa: E402

ONE_UP = 1.0000000000000002  # the fault's value: 1.0 plus one ulp
ONE_DOWN = 0.9999999999999999


def test_positions_ignore_kind_prefixes():
    assert checker.positions("1.M2.I3.4") == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        checker.positions("1..2")


def test_ties_reordered_by_ulp_noise_are_accepted():
    reference = [("1.2", 1.0), ("1.5", 1.0), ("1.7", 1.0)]
    answer = [("1.5", 1.0), ("1.2", ONE_DOWN), ("1.7", ONE_DOWN)]
    assert checker.compare(answer, reference) == []


def test_different_members_of_the_kth_tie_are_accepted():
    reference = [("1.1", 0.9), ("1.2", 0.5), ("1.3", 0.5)]
    answer = [("1.1", 0.9), ("1.2", 0.5), ("1.9", 0.5)]
    assert checker.compare(answer, reference) == []


def test_probability_mismatch_is_rejected():
    reference = [("1.1", 0.9), ("1.2", 0.5)]
    answer = [("1.1", 0.9), ("1.2", 0.49)]
    assert checker.compare(answer, reference)


def test_node_swap_above_the_kth_probability_is_rejected():
    reference = [("1.1", 0.9), ("1.2", 0.8), ("1.3", 0.5)]
    answer = [("1.4", 0.9), ("1.2", 0.8), ("1.3", 0.5)]
    problems = checker.compare(answer, reference)
    assert problems and "only in" in problems[0]


def test_length_mismatch_is_rejected():
    assert checker.compare([("1.1", 0.5)], [("1.1", 0.5), ("1.2", 0.4)])


def test_properties_of_a_good_answer():
    answer = [("1.2", 0.9), ("1.1", 0.5), ("1.3", 0.5)]
    matches = [[(1, 1), (1, 2, 1), (1, 3)], [(1, 1, 4), (1, 2), (1, 3, 2)]]
    assert checker.property_problems(answer, 3, matches) == []


@pytest.mark.parametrize("answer, k, fragment", [
    ([("1.1", 0.5), ("1.2", 0.4)], 1, "results for k=1"),
    ([("1.1", 0.5), ("1.1", 0.5)], 2, "twice"),
    ([("1.2", 0.5), ("1.1", 0.5)], 2, "order"),
    ([("1.1", 0.4), ("1.2", 0.5)], 2, "order"),
    ([("1.1", -0.1)], 1, "outside [0, 1]"),
    ([("1.1", ONE_UP)], 1, "outside [0, 1]"),
])
def test_property_violations(answer, k, fragment):
    problems = checker.property_problems(answer, k)
    assert any(fragment in problem for problem in problems), problems


def test_result_must_cover_a_match_of_every_keyword():
    matches = [[(1, 1, 1)], [(1, 2, 1)]]
    problems = checker.property_problems([("1.1", 0.5)], 1, matches)
    assert problems and "ancestor-or-self" in problems[0]
    assert checker.property_problems([("1", 0.5)], 1, matches) == []


def test_classify_flags_probability_above_one_as_the_fault():
    verdict, _ = checker.classify([("1.1", ONE_UP)], [("1.1", 1.0)], 1)
    assert verdict == checker.FAULT_ABOVE_ONE


def test_classify_checks_the_rest_of_a_faulty_answer():
    reference = [("1.1", 1.0), ("1.2", 0.5)]
    verdict, problems = checker.classify([("1.1", ONE_UP), ("1.2", 0.4)],
                                         reference, 2)
    assert verdict == checker.WRONG and problems
    verdict, problems = checker.classify([("1.2", ONE_UP), ("1.1", 1.0)],
                                         [("1.1", 1.0), ("1.2", 1.0)], 2,
                                         [[(1, 1), (1, 2)]])
    assert verdict == checker.FAULT_ABOVE_ONE, problems


def test_classify_rejects_a_probability_well_above_one():
    verdict, problems = checker.classify([("1.1", 1.5)], [("1.1", 1.5)], 1)
    assert verdict == checker.WRONG
    assert any("outside [0, 1]" in problem for problem in problems)


# -- the {author, conf} case on the DBLP-shaped probe document -------------


@pytest.fixture(scope="module")
def probe():
    from repro.index.storage import Database
    database = Database.from_document(inputs.probe_document())
    return database, inputs.references(database, inputs.PROBE_QUERY)


def test_probe_answer_shows_the_fault(probe):
    _, answers = probe
    for algorithm in ("eager", "prstack"):
        assert checker.above_one(answers[algorithm])
        verdict, _ = checker.classify(answers[algorithm],
                                      answers[algorithm], K)
        assert verdict == checker.FAULT_ABOVE_ONE


def test_probe_ties_reordered_at_one_are_accepted(probe):
    database, answers = probe
    answer = answers["eager"]
    # The same answer with the faulty value at exactly 1.0: the tie at
    # 1.0 now sorts by document order, so the node moves down the list.
    fixed = sorted(((code, min(p, 1.0)) for code, p in answer),
                   key=lambda row: (-row[1], checker.positions(row[0])))
    assert [code for code, _ in fixed] != [code for code, _ in answer]
    assert checker.compare(answer, fixed) == []
    matches = checker.Matches(database.index).of(inputs.PROBE_QUERY)
    assert checker.classify(fixed, answer, K, matches) == (checker.OK, [])


def test_probe_real_mismatch_is_rejected(probe):
    _, answers = probe
    answer = [(code, min(p, 1.0)) for code, p in answers["prstack"]]
    code, _ = answer[3]
    broken = answer[:3] + [(code, 0.75)] + answer[4:]
    broken.sort(key=lambda row: (-row[1], checker.positions(row[0])))
    verdict, problems = checker.classify(broken, answer, K)
    assert verdict == checker.WRONG and problems


# -- possible-worlds brute force ---------------------------------------------


def test_brute_force_matches_the_program_on_a_small_document():
    from repro import parse_pxml, topk_search
    document = parse_pxml("""
        <library>
          <book><title>keyword search</title>
            <mux><year prob="0.7">2010</year>
                 <year prob="0.3">2011</year></mux>
          </book>
          <ind><book prob="0.6"><title>keyword</title>
            <year>2010</year></book></ind>
        </library>""")
    expected = checker.brute_force(document, ["keyword", "2010"], 5)
    assert expected
    for algorithm in ("eager", "prstack"):
        answer = checker.answer_of(topk_search(document, ["keyword", "2010"],
                                               5, algorithm))
        assert checker.compare(answer, expected) == []


def test_brute_force_sees_a_wrong_probability():
    from repro import parse_pxml
    document = parse_pxml("""
        <a><ind><b prob="0.5">x y</b></ind><c>x</c><d>y</d></a>""")
    expected = checker.brute_force(document, ["x", "y"], 5)
    assert [p for _, p in expected] == [0.5, 0.5]
    assert checker.compare([("1.I1.1", 0.5), ("1", 0.4)], expected)
