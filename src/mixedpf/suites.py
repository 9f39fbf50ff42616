"""Verification suites: every identity the engine must reproduce, checked
against the independent oracles over enumerated or seeded-random inputs.

Each suite returns a RunReport whose rendering is byte-stable for fixed
inputs and flags (timing excluded).  Random cases come from an explicit
generator seeded through ``random.Random``, so failures are reproducible
from the seed alone.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GaussianRational
from .connection import (
    DirectedMatching,
    connection_matrix,
    dglrs_constraint_sum,
    exact_rank,
    fragment_tensor,
    FragmentTensor,
    gram_pairing,
    matching_sign,
)
from .evaluator import eulerian_sum, partition_function, partition_function_many
from .graph import (
    Fragment,
    MultiGraph,
    circle_graph,
    disjoint_union,
    enumerate_eulerian_subsets,
    eulerian_state,
    glue_with_maps,
)
from .models import (
    EdgeColoringModel,
    charpoly_model,
    circuit_neg_model,
    circuit_odd_model,
    circuit_pos_model,
    matchings_model,
    _compositions,
)
from .oracles import (
    _all_pairings,
    adjacency_determinant,
    charpoly_oracle,
    circuit_partition_oracle,
    matching_count_oracle,
    permutation_sign_oracle,
    sachs_oracle,
)


@dataclass
class CaseResult:
    case_id: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    suite: str
    options: dict
    cases: list
    elapsed: float

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def render(self, show_timing: bool = True) -> str:
        opts = " ".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        lines = [f"suite {self.suite}" + (f" [{opts}]" if opts else "")]
        for case in sorted(self.cases, key=lambda c: c.case_id):
            lines.append(f"{'PASS' if case.passed else 'FAIL'} {case.case_id} {case.detail}")
        lines.append(f"summary {len(self.cases)} cases, {self.n_failed} failed")
        if show_timing:
            lines.append(f"time {self.elapsed:.3f}s")
        return "\n".join(lines) + "\n"


def _report(suite, options, cases):
    start = time.perf_counter()
    out = list(cases)
    return RunReport(suite, options, out, time.perf_counter() - start)


# -- deterministic and seeded input generators --------------------------------


def enumerate_multigraphs(max_vertices: int, max_edges: int):
    """All labeled multigraphs (loops and multiedges allowed) within bounds."""
    for n in range(max_vertices + 1):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                yield MultiGraph(n, combo)


def enumerate_fragments(t: int, max_internal: int, max_edges: int):
    """All t-fragments within bounds; isomorphic duplicates are permitted.

    A fragment with n internal vertices has them as 0..n-1 and its labels
    as n..n+t-1, and each label has exactly one edge.  Fragments come by
    n, then by edge count, then by edge list in the order of
    ``itertools.combinations_with_replacement`` over the vertex pairs:
    internal pairs, then (internal, label) pairs, then (label, label)
    pairs.  An edge list is thus a multiset of internal pairs, then one
    (internal, label) edge for some labels, then a perfect matching of the
    labels left; it is built in that order, and an edge is added only
    while the edges left can still give every label its one edge.  Each
    label needs an edge end of its own, so there are none when
    t > 2 * max_edges."""
    if t > 2 * max_edges:
        return
    for n_int in range(max_internal + 1):
        labels = tuple(n_int + i for i in range(t))
        inner = [(u, v) for u in range(n_int) for v in range(u, n_int)]
        attach = [(u, lab) for u in range(n_int) for lab in labels]
        for m in range(max_edges + 1):
            for edges in _fragment_edges(inner, attach, labels, m, 0):
                yield Fragment(MultiGraph(n_int + t, edges), labels)


def _fragment_edges(inner, attach, labels, m: int, start: int):
    """The edge lists of m edges that begin with internal pairs from
    ``inner[start:]`` and give each label one edge."""
    if m - 1 >= (len(labels) + 1) // 2:  # one more internal pair leaves room
        for i in range(start, len(inner)):
            for tail in _fragment_edges(inner, attach, labels, m - 1, i):
                yield (inner[i],) + tail
    yield from _label_edges(attach, 0, labels, m)


def _label_edges(attach, start: int, free: tuple, m: int):
    """The lists of m edges that give each label of ``free`` one edge:
    (internal, label) pairs from ``attach[start:]``, then (label, label)
    pairs."""
    need = 2 * m - len(free)  # the labels that take an (internal, label) edge
    if need == 0:
        yield from _label_matchings(free)
        return
    if not 0 < need <= len(free):
        return
    for j in range(start, len(attach) - need + 1):
        u, lab = attach[j]
        if lab in free:
            rest = tuple(x for x in free if x != lab)
            for tail in _label_edges(attach, j + 1, rest, m - 1):
                yield ((u, lab),) + tail


def _label_matchings(free: tuple):
    """The perfect matchings of ``free`` by (label, label) edges, in order."""
    if not free:
        yield ()
        return
    for i in range(1, len(free)):
        for tail in _label_matchings(free[1:i] + free[i + 1 :]):
            yield ((free[0], free[i]),) + tail


def random_multigraph(rng, max_vertices=4, max_edges=6) -> MultiGraph:
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    return MultiGraph(n, edges)


def random_gaussian(rng) -> GaussianRational:
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
        if value:
            return value


def random_sparse_model(
    rng, k: int, two_ell: int, max_degree: int, density: float = 0.4
) -> EdgeColoringModel:
    """A random finitely-supported model covering all degrees up to max_degree."""
    entries = []
    for ext_size in range(two_ell + 1):
        for ext in itertools.combinations(range(1, two_ell + 1), ext_size):
            for sym_total in range(max_degree - ext_size + 1):
                for sym in _compositions(sym_total, k):
                    if rng.random() < density:
                        entries.append((sym, ext, random_gaussian(rng)))
    return EdgeColoringModel(k, two_ell, entries)


def random_fragment(rng, t: int, max_internal=2, max_edges=4) -> Fragment:
    n_int = rng.randint(1 if t % 2 else 0, max_internal)
    labels = tuple(n_int + i for i in range(t))
    edges = []
    unattached = list(range(t))
    while unattached:
        i = unattached.pop(0)
        if n_int == 0 or (unattached and rng.random() < 0.3):
            j = unattached.pop(rng.randrange(len(unattached)))
            edges.append((labels[i], labels[j]))
        else:
            edges.append((rng.randrange(n_int), labels[i]))
    while len(edges) < max_edges and n_int and rng.random() < 0.6:
        edges.append((rng.randrange(n_int), rng.randrange(n_int)))
    return Fragment(MultiGraph(n_int + t, tuple(edges)), labels)


def _gdesc(g: MultiGraph) -> str:
    base = f"n={g.n_vertices} edges={sorted(g.edges)}"
    if g.n_circles:
        base += f" circles={g.n_circles}"
    return base


# -- suites -------------------------------------------------------------------


def suite_invariance(seed: int = 0, count: int = 50, trials: int = 10) -> RunReport:
    """Subset values agree across seeded orientation/pairing choices."""
    if count < 1:
        raise ValueError(f"count must be at least 1 (a case to check), got {count}")
    if trials < 2:
        raise ValueError(f"trials must be at least 2 (a second state to compare), got {trials}")
    rng = random.Random(seed)
    signatures = [(1, 2), (2, 2), (0, 2), (1, 4)]

    def cases():
        for case in range(count):
            g = random_multigraph(rng, max_vertices=4, max_edges=5)
            subsets = enumerate_eulerian_subsets(g)
            subset = rng.choice(subsets)
            k, two_ell = signatures[case % len(signatures)]
            h = random_sparse_model(rng, k, two_ell, max(g.max_degree(), 1))
            # the default state is the one seed 0 builds
            value = eulerian_sum(g, subset, h)
            ok = all(
                eulerian_sum(g, subset, h, eulerian_state(g, subset, seed)) == value
                for seed in range(1, trials)
            )
            yield CaseResult(
                f"invariance-{case:03d}",
                ok,
                f"{_gdesc(g)} F={sorted(subset)} (k,2l)=({k},{two_ell}) value={value}",
            )

    return _report("invariance", {"seed": seed, "count": count, "trials": trials}, cases())


def suite_charpoly(
    max_vertices: int = 4, max_edges: int = 6, t_values=(0, 1, -2, Fraction(3, 2))
) -> RunReport:
    """Mixed partition function vs two oracles of det(tI - A): the
    Faddeev-LeVerrier trace recurrence and the subgraph expansion."""
    cap = 2 * max_edges
    models = [charpoly_model(t, cap=cap) for t in t_values]

    def cases():
        for idx, g in enumerate(enumerate_multigraphs(max_vertices, max_edges)):
            results = partition_function_many(g, models, "mixed")
            poly = charpoly_oracle(g)
            checks = []
            ok = True
            for t, res in zip(t_values, results):
                expected = poly.evaluate(t)
                sachs = sachs_oracle(g, t)
                good = res.value == expected == sachs
                ok = ok and good
                checks.append(f"t={t}:{res.value}")
            yield CaseResult(
                f"charpoly-{idx:05d}",
                ok,
                f"{_gdesc(g)} {' '.join(checks)}",
            )

    return _report(
        "charpoly",
        {"max_vertices": max_vertices, "max_edges": max_edges},
        cases(),
    )


def suite_circuitpoly(max_vertices: int = 4, max_edges: int = 6) -> RunReport:
    """Circuit-polynomial evaluations at 1,2,3,-2,-1 vs transition systems."""
    cap = 2 * max_edges
    # (x, model, mode): the partition function that evaluates J at x
    table = [(k, circuit_pos_model(k, cap=cap), "ordinary") for k in (1, 2, 3)]
    table += [(-2, circuit_neg_model(1), "skew"), (-1, circuit_odd_model(1, cap=cap), "mixed")]

    def check(g, poly, idx, tag):
        values = [(x, partition_function(g, h, mode).value) for x, h, mode in table]
        ok = all(value == poly.evaluate(x) for x, value in values)
        checks = " ".join(f"J({x})={value}" for x, value in values)
        return CaseResult(f"circuitpoly-{idx:05d}{tag}", ok, f"{_gdesc(g)} {checks}")

    def cases():
        idx = 0
        for g in enumerate_multigraphs(max_vertices, max_edges):
            if not g.is_eulerian():
                continue
            poly = circuit_partition_oracle(g)
            yield check(g, poly, idx, "a")
            # a circle component multiplies the circuit partition polynomial by x
            yield check(disjoint_union(g, circle_graph()), poly.shift(1), idx, "b")
            idx += 1

    return _report(
        "circuitpoly",
        {"max_vertices": max_vertices, "max_edges": max_edges},
        cases(),
    )


def suite_matchings(seed: int = 0, count: int = 20, max_simple_vertices: int = 5) -> RunReport:
    """Ordinary matchings-model values vs exhaustive matching counts."""

    def graphs():
        for n in range(max_simple_vertices + 1):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1 << len(pairs)):
                edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
                yield MultiGraph(n, edges)
        rng = random.Random(seed)
        for _ in range(count):
            yield random_multigraph(rng, max_vertices=5, max_edges=6)

    def cases():
        for idx, g in enumerate(graphs()):
            h = matchings_model(cap=max(g.max_degree(), 1))
            value = partition_function(g, h, "ordinary").value
            expected = matching_count_oracle(g)
            yield CaseResult(
                f"matchings-{idx:05d}",
                value == expected,
                f"{_gdesc(g)} engine={value} oracle={expected}",
            )

    return _report("matchings", {"seed": seed, "count": count}, cases())


def _directed_matchings(m: int):
    """All directed perfect matchings on [2m] (1-based ground set)."""
    out = []
    for base in _all_pairings(range(1, 2 * m + 1)):
        for flips in itertools.product((False, True), repeat=m):
            arcs = tuple(
                (v, u) if flip else (u, v) for (u, v), flip in zip(base, flips)
            )
            out.append(DirectedMatching(arcs))
    return out


#: m = 4 would check 1,680^2 pairs of matchings, each over up to 8! permutations
MAX_SIGNS_M = 3


def suite_signs(max_m: int = 3) -> RunReport:
    """Matching signs vs exhaustive permutation search, all pairs per size."""
    if max_m > MAX_SIGNS_M:
        raise ValueError(f"max_m must be at most {MAX_SIGNS_M}, got {max_m}")

    def cases():
        for m in range(1, max_m + 1):
            matchings = _directed_matchings(m)
            checked = 0
            first_bad = None
            for ma in matchings:
                for mb in matchings:
                    engine = matching_sign(ma, mb)
                    oracle = permutation_sign_oracle(ma, mb)
                    checked += 1
                    if engine != oracle and first_bad is None:
                        first_bad = f"{ma.arcs} vs {mb.arcs}: {engine} != {oracle}"
            detail = f"m={m} pairs={checked}"
            if first_bad:
                detail += f" first_mismatch={first_bad}"
            yield CaseResult(f"signs-m{m}", first_bad is None, detail)

    return _report("signs", {"max_m": max_m}, cases())


def suite_gram(seed: int = 0, pairs: int = 30) -> RunReport:
    """Gram pairings of fragment tensors vs glued-graph subset values.

    Gluing F1 to F2 joins their edges in classes, one per edge or circle of
    the glued graph (the two edge maps of :func:`glue_with_maps`).  A pair
    of subsets (H1, H2) that takes a class only in part disagrees at a
    label, and its pairing must be 0.  Otherwise the edge classes it takes
    form a subset H of the glued graph, and its pairing must be H's value
    times (-2l)^(circles taken) * k^(circles left).  The pairing of the two
    summed tensors must be the mixed partition function, read from the
    subset sum over the whole glued graph, which does not rest on this
    identity as a cut of it would.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1 (a pair to glue), got {pairs}")
    rng = random.Random(seed)
    signatures = [(1, 2), (2, 2)]

    def check_pair(case):
        t = rng.randint(0, 3)
        f1 = random_fragment(rng, t, max_internal=2, max_edges=4)
        f2 = random_fragment(rng, t, max_internal=2, max_edges=4)
        k, two_ell = signatures[case % len(signatures)]
        max_deg = max(f1.graph.max_degree(), f2.graph.max_degree(), 1)
        h = random_sparse_model(rng, k, two_ell, max_deg)
        glued = glue_with_maps(f1, f2)
        g = glued.graph

        tensors1 = {
            h1: fragment_tensor(f1, h1, h, eulerian_state(f1, h1, seed=case))
            for h1 in enumerate_eulerian_subsets(f1)
        }
        tensors2 = {
            h2: fragment_tensor(f2, h2, h, eulerian_state(f2, h2, seed=case + 1))
            for h2 in enumerate_eulerian_subsets(f2)
        }

        classes = defaultdict(list)  # glued edge or circle -> its fragment edges
        for side, emap in enumerate((glued.edge_map1, glued.edge_map2)):
            for old, new in emap.items():
                classes[new].append((side, old))

        def merge(h1, h2):
            """The glued subset of h1 and h2 and its circles (left, taken), or
            None if a class is taken only in part: h1 and h2 disagree at a label."""
            chosen = (h1, h2)
            merged, circles = set(), [0, 0]
            for (kind, idx), members in classes.items():
                taken = sum(old in chosen[side] for side, old in members)
                if 0 < taken < len(members):
                    return None
                if kind == "circle":
                    circles[taken > 0] += 1
                elif taken:
                    merged.add(idx)
            return frozenset(merged), circles

        checked = 0
        for h1, t1 in tensors1.items():
            for h2, t2 in tensors2.items():
                value = gram_pairing(t1, t2)
                merged = merge(h1, h2)
                if merged is None:
                    if value != 0:
                        return False, f"expected 0 on label mismatch, got {value}"
                else:
                    subset, (outside, inside) = merged
                    expected = eulerian_sum(g, subset, h)
                    expected = expected * GaussianRational(-two_ell) ** inside
                    expected = expected * GaussianRational(k) ** outside
                    if value != expected:
                        return False, (
                            f"H1={sorted(h1)} H2={sorted(h2)}: pairing {value} != {expected}"
                        )
                checked += 1

        zero = FragmentTensor.zero(t, k, two_ell)
        summed = gram_pairing(sum(tensors1.values(), zero), sum(tensors2.values(), zero))
        [result] = partition_function_many(g, [h], "mixed")
        pf = result.value
        if summed != pf:
            return False, f"summed pairing {summed} != partition function {pf}"
        return True, f"t={t} (k,2l)=({k},{two_ell}) combos={checked} value={pf}"

    def cases():
        for case in range(pairs):
            ok, detail = check_pair(case)
            yield CaseResult(f"gram-{case:03d}", ok, detail)

    return _report("gram", {"seed": seed, "pairs": pairs}, cases())


def suite_rank(
    t_values=(1, 2), family_size: int = 24, max_internal: int = 2, max_edges: int = 3
) -> RunReport:
    """Connection-matrix ranks against the color-space dimension bound
    (k + 2l)^t of each model, as ``connrank`` states it."""
    cap = 2 * max_edges
    tests = [
        ("charpoly0", charpoly_model(0, cap=cap), "mixed"),
        ("circuit-odd1", circuit_odd_model(1, cap=cap), "mixed"),
        ("matchings", matchings_model(cap=cap), "ordinary"),
    ]

    def cases():
        for t in t_values:
            fragments = list(
                itertools.islice(
                    enumerate_fragments(t, max_internal, max_edges), family_size
                )
            )
            for name, model, mode in tests:
                matrix = connection_matrix(fragments, model, mode)
                rank = exact_rank(matrix)
                bound = (model.k + model.two_ell) ** t
                yield CaseResult(
                    f"rank-t{t}-{name}",
                    rank <= bound,
                    f"fragments={len(fragments)} rank={rank} bound={bound}",
                )

    return _report(
        "rank",
        {"t_values": t_values, "family_size": family_size, "max_edges": max_edges},
        cases(),
    )


#: k = 6 would take determinants of 5,040 graphs of 42 vertices, seven times
#: the 720 graphs of 36 vertices at k = 5
MAX_DGLRS_K = 5


def suite_dglrs(k_values=(1, 2)) -> RunReport:
    """The signed 6-cycle family sum under the determinant oracle.

    An ordinary partition function would sum to zero; the determinant gives
    16 at k=1 and stays nonzero at every tested k, so no ordinary model
    matches it.
    """
    if max(k_values, default=0) > MAX_DGLRS_K:
        raise ValueError(f"k must be at most {MAX_DGLRS_K}, got {max(k_values)}")

    def cases():
        for k in k_values:
            value = dglrs_constraint_sum(adjacency_determinant, k)
            if k == 1:
                ok = value == 16
            else:
                ok = value != 0
            verdict = "constraint violated as claimed" if value != 0 else "constraint satisfied"
            yield CaseResult(f"dglrs-k{k}", ok, f"sum={value} ({verdict})")

    return _report("dglrs", {"k_values": k_values}, cases())


SUITES = {
    "invariance": suite_invariance,
    "charpoly": suite_charpoly,
    "circuitpoly": suite_circuitpoly,
    "matchings": suite_matchings,
    "signs": suite_signs,
    "gram": suite_gram,
    "rank": suite_rank,
    "dglrs": suite_dglrs,
}
