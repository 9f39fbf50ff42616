"""Acceptance suite: every exit criterion, exact equality throughout.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines).
The random families are seeded, so reruns check identical cases.
"""

import dataclasses
import random
import re

from mixedpf import suites
from mixedpf.evaluator import partition_function, partition_function_many
from mixedpf.graph import circle_graph, disjoint_union
from mixedpf.models import EdgeColoringModel
from mixedpf.suites import (
    random_multigraph,
    random_sparse_model,
    suite_charpoly,
    suite_circuitpoly,
    suite_dglrs,
    suite_gram,
    suite_invariance,
    suite_matchings,
    suite_rank,
    suite_signs,
)


def report(number, name, ok, extra=""):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def failures(report_obj, limit=5):
    bad = [c for c in report_obj.cases if not c.passed]
    return "; ".join(f"{c.case_id}: {c.detail}" for c in bad[:limit])


def test_criterion_01_circle_values():
    ok = True
    for k, two_ell in ((1, 0), (0, 2), (1, 2), (2, 2), (2, 4)):
        h = EdgeColoringModel(k, two_ell, [])
        circle = circle_graph()
        ok = ok and partition_function(circle, h, "mixed").value == k - two_ell
        if two_ell == 0:
            ok = ok and partition_function(circle, h, "ordinary").value == k
        if k == 0:
            ok = ok and partition_function(circle, h, "skew").value == -two_ell
    report(1, "circle values", ok)


def test_criterion_02_matchings():
    rep = suite_matchings(seed=0, count=20, max_simple_vertices=5)
    report(2, "matchings vs oracle", rep.all_passed, failures(rep) or f"{len(rep.cases)} graphs")


def test_criterion_03_characteristic_polynomial():
    rep = suite_charpoly(max_vertices=4, max_edges=6)
    report(3, "characteristic polynomial", rep.all_passed, failures(rep) or f"{len(rep.cases)} graphs")


def test_criterion_04_dglrs_constraint():
    rep = suite_dglrs(k_values=(1, 2))
    report(4, "six-cycle family constraint", rep.all_passed, failures(rep) or "; ".join(c.detail for c in rep.cases))


def test_criterion_05_circuit_partition_identities():
    rep = suite_circuitpoly(max_vertices=4, max_edges=6)
    report(5, "circuit partition identities", rep.all_passed, failures(rep) or f"{len(rep.cases)} cases")


def test_criterion_06_orientation_pairing_invariance():
    rep = suite_invariance(seed=0, count=50, trials=10)
    report(6, "orientation/pairing invariance", rep.all_passed, failures(rep) or "50 triples x 10 states")


def test_criterion_07_matching_sign_lemma():
    rep = suite_signs(max_m=3)
    report(7, "matching signs exhaustive", rep.all_passed, failures(rep) or "; ".join(c.detail for c in rep.cases))


def test_criterion_08_gram_identities():
    rep = suite_gram(seed=0, pairs=30)
    report(8, "Gram identities", rep.all_passed, failures(rep) or "30 fragment pairs")


def test_criterion_09_rank_bounds():
    rep = suite_rank(t_values=(1, 2))
    detail = "; ".join(c.detail for c in rep.cases)
    report(9, "connection-matrix rank bounds", rep.all_passed, failures(rep) or detail)


def test_criterion_09_bounds_are_the_color_space_dimensions():
    # (k + 2l)^t: charpoly has k + 2l = 4 colors, circuit-odd?l=1 3, matchings 2
    rep = suite_rank(t_values=(0, 3), family_size=2)
    bounds = {c.case_id: int(re.search(r"bound=(\d+)", c.detail)[1]) for c in rep.cases}
    assert bounds == {
        f"rank-t{t}-{name}": base**t
        for t in (0, 3)
        for name, base in (("charpoly0", 4), ("circuit-odd1", 3), ("matchings", 2))
    }


def test_criterion_10_specialization_and_multiplicativity():
    rng = random.Random(0)
    ok = True
    # mixed == ordinary when two_ell = 0, mixed == skew when k = 0
    for case in range(10):
        g = random_multigraph(rng, max_vertices=4, max_edges=6)
        cap = max(g.max_degree(), 1)
        h_sym = random_sparse_model(rng, 2, 0, cap)
        ok = ok and (
            partition_function(g, h_sym, "mixed").value
            == partition_function(g, h_sym, "ordinary").value
        )
        h_ext = random_sparse_model(rng, 0, 2, cap)
        ok = ok and (
            partition_function(g, h_ext, "mixed").value
            == partition_function(g, h_ext, "skew").value
        )
    # multiplicativity over disjoint unions
    for case in range(20):
        g = random_multigraph(rng, max_vertices=3, max_edges=4)
        h_graph = random_multigraph(rng, max_vertices=3, max_edges=4)
        cap = max(g.max_degree(), h_graph.max_degree(), 1)
        model = random_sparse_model(rng, 1, 2, cap)
        # the subset sum over the whole union, which no cut rests on
        [left] = partition_function_many(disjoint_union(g, h_graph), [model], "mixed")
        right = (
            partition_function_many(g, [model], "mixed")[0].value
            * partition_function_many(h_graph, [model], "mixed")[0].value
        )
        ok = ok and left.value == right
    report(10, "specialization and multiplicativity", ok)


# -- negative controls: the suites report FAIL on a planted fault -------------------


def test_criterion_08_fails_on_an_offset_pairing(monkeypatch):
    orig = suites.gram_pairing
    monkeypatch.setattr(suites, "gram_pairing", lambda a, b: orig(a, b) + 1)
    rep = suite_gram(seed=0, pairs=30)
    # the empty subsets come first and always agree at every label
    assert rep.n_failed == len(rep.cases) == 30
    assert all(re.fullmatch(r"H1=\[\] H2=\[\]: pairing \S+ != \S+", c.detail) for c in rep.cases)


def test_criterion_08_fails_on_a_pairing_that_is_never_zero(monkeypatch):
    orig = suites.gram_pairing
    monkeypatch.setattr(suites, "gram_pairing", lambda a, b: orig(a, b) or 1)
    rep = suite_gram(seed=0, pairs=30)
    details = [c.detail for c in rep.cases if not c.passed]
    assert len(details) == 25
    mismatched = [d for d in details if d.startswith("expected 0 on label mismatch, got 1")]
    assert len(mismatched) == 6
    assert all(re.fullmatch(r"H1=.* H2=.*: pairing 1 != 0", d) for d in details if d not in mismatched)


def test_criterion_08_reads_the_whole_glued_graph(monkeypatch):
    """The summed pairing is checked against the subset sum over the whole
    glued graph, not against partition_function, whose cuts rest on the
    identity under test."""

    def refuse(*args):
        raise AssertionError("the gram suite evaluated by parts")

    monkeypatch.setattr(suites, "partition_function", refuse)
    rep = suite_gram(seed=0, pairs=30)
    assert rep.n_failed == 0 and len(rep.cases) == 30


def test_criterion_05_fails_on_an_offset_skew_value(monkeypatch):
    orig = suites.partition_function

    def offset(g, h, mode):
        result = orig(g, h, mode)
        if mode == "skew":
            result = dataclasses.replace(result, value=result.value + 1)
        return result

    assert suite_circuitpoly(max_vertices=2, max_edges=3).all_passed
    monkeypatch.setattr(suites, "partition_function", offset)
    rep = suite_circuitpoly(max_vertices=2, max_edges=3)
    # every case evaluates J(-2) in skew mode
    assert rep.cases and rep.n_failed == len(rep.cases)
