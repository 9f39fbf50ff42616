"""The benchmark's workloads: seeded inputs for mixedpf and their exact checks.

Each workload turns a seed into a list of :class:`Item` inputs.  ``run``
calls mixedpf's public API on the generated input and returns its exact
outputs; ``check`` compares them with a reference that does not come from
the code path being timed.  Both run inside the timed pass, so a speed-up
can never hide a wrong answer.  Reference values that are computed before
the pass belong to the workload's set-up time.

Why these three workloads (each stresses a layer the others barely touch):

* ``verify-charpoly``: many tiny, high-degree graphs.  Per-call overhead and
  the coloring search dominate; subset enumeration is about 2%; the
  determinant and Sachs oracles run here and nowhere else.
* ``eval-ladders``: a few large cubic graphs where the 2^m bitmask filter of
  subset enumeration dominates the evaluation.
* ``connrank-gram``: over a thousand small glued graphs plus the fragment
  tensors and Gram pairings; the only user of ``connection`` and of
  ``linalg.matrix_rank``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mixedpf import connection, evaluator, graph, models, oracles, suites
from mixedpf.algebra import GaussianRational
from mixedpf.graph import Fragment, MultiGraph

CHARPOLY_T = (0, 1, -2, Fraction(3, 2))
LADDER_T = Fraction(3, 2)


@dataclass
class Item:
    """One input of a pass: ``run`` returns exact outputs, ``check`` judges them."""

    label: str
    run: Callable[[], list]
    check: Callable[[list], bool]


def relabel(g: MultiGraph, rng: random.Random) -> MultiGraph:
    """g with vertices renamed and edges reordered; every exact value is unchanged."""
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    return relabel_with(g, perm, rng)


def relabel_with(g: MultiGraph, perm, rng: random.Random) -> MultiGraph:
    edges = [(perm[a], perm[b]) for a, b in g.edges]
    rng.shuffle(edges)
    return MultiGraph(g.n_vertices, tuple(edges), g.n_circles)


# -- verify-charpoly ------------------------------------------------------------


def _charpoly_item(label, original: MultiGraph, g: MultiGraph, charpoly_models) -> Item:
    def run():
        results = evaluator.partition_function_many(g, charpoly_models, "mixed")
        return [r.value for r in results]

    def check(values):
        poly = oracles.charpoly_oracle(original)
        by_det = [poly.evaluate(t) for t in CHARPOLY_T]
        by_sachs = [oracles.sachs_oracle(original, t) for t in CHARPOLY_T]
        return values == by_det == by_sachs

    return Item(label, run, check)


def verify_charpoly(seed: int, max_vertices: int = 3, max_edges: int = 6) -> list[Item]:
    """Criterion 3 of ``mixedpf verify charpoly`` on every small multigraph.

    The engine sees each graph relabelled by the seed; both oracles see the
    graph as enumerated, so they also check invariance under relabelling.
    """
    rng = random.Random(seed)
    charpoly_models = [models.charpoly_model(t, cap=2 * max_edges) for t in CHARPOLY_T]
    return [
        _charpoly_item(f"charpoly-{idx:05d}", g, relabel(g, rng), charpoly_models)
        for idx, g in enumerate(suites.enumerate_multigraphs(max_vertices, max_edges))
    ]


# -- eval-ladders ---------------------------------------------------------------


def prism(n: int) -> MultiGraph:
    """C_n x K2: two n-cycles joined by a perfect matching of rungs."""
    outer = tuple((i, (i + 1) % n) for i in range(n))
    inner = tuple((n + i, n + (i + 1) % n) for i in range(n))
    rungs = tuple((i, n + i) for i in range(n))
    return MultiGraph(2 * n, outer + inner + rungs)


def mobius_ladder(n: int) -> MultiGraph:
    """A 2n-cycle plus the n chords joining opposite vertices."""
    rim = tuple((i, (i + 1) % (2 * n)) for i in range(2 * n))
    return MultiGraph(2 * n, rim + tuple((i, i + n) for i in range(n)))


def _ladders() -> dict[str, MultiGraph]:
    out = {
        "K4": MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        "fig-8": MultiGraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))),
    }
    for n in range(3, 7):
        out[f"prism-{n}"] = prism(n)
        out[f"mobius-{n}"] = mobius_ladder(n)
    out["petersen"] = MultiGraph(
        10,
        tuple((i, (i + 1) % 5) for i in range(5))
        + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
        + tuple((i, 5 + i) for i in range(5)),
    )
    return out


LADDERS = _ladders()


def ladder_item(label, g: MultiGraph, model, reference) -> Item:
    def run():
        return [evaluator.partition_function(g, model, "mixed").value]

    return Item(label, run, lambda values: values == [reference])


def eval_ladders(seed: int, names=tuple(LADDERS)) -> list[Item]:
    """Mixed charpoly(3/2) on named cubic graphs, against det(3/2 I - A).

    The seed shuffles the order in which the graphs are submitted and
    leaves the graphs as named.  Renaming vertices or reordering edges
    changes the edge order of the coloring search and the Eulerian states
    the engine builds, and with them the cost of the search-heavy
    4-ladders; with eleven inputs that made the latency percentiles depend on
    the seed.  The references are computed before the pass.
    """
    model = models.charpoly_model(LADDER_T)
    items = []
    for name in names:
        g = LADDERS[name]
        items.append(ladder_item(name, g, model, oracles.charpoly_oracle(g).evaluate(LADDER_T)))
    random.Random(seed).shuffle(items)
    return items


# -- connrank-gram --------------------------------------------------------------

#: (t, max internal vertices, max edges, sample size) of each fragment family
FAMILIES = ((2, 3, 5, 24), (3, 2, 5, 16))
CAP = 10


def _cost_key(frag):
    """What the cost of gluing a fragment grows with: its Eulerian subsets,
    its degrees and its edges."""
    degrees = tuple(sorted(frag.graph.degrees(), reverse=True))
    return len(graph.enumerate_eulerian_subsets(frag)), degrees, frag.graph.n_edges


def sample_fragments(t: int, max_internal: int, max_edges: int, size: int):
    """A fixed stratified sample of ``size`` fragments of the family.

    The family is grouped by :func:`_cost_key` and each group gets a quota
    proportional to its size (largest remainders), filled by members spread
    evenly through the group.
    """
    groups = {}
    for frag in suites.enumerate_fragments(t, max_internal, max_edges):
        groups.setdefault(_cost_key(frag), []).append(frag)
    keys = sorted(groups)
    total = sum(len(g) for g in groups.values())
    shares = [len(groups[k]) * size / total for k in keys]
    quotas = [int(x) for x in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: (quotas[i] - shares[i], i))
    for i in by_remainder[: size - sum(quotas)]:
        quotas[i] += 1
    return [
        groups[k][i * len(groups[k]) // q] for k, q in zip(keys, quotas) for i in range(q)
    ]


def relabel_fragment(frag, rng: random.Random):
    """frag with vertices renamed and edges reordered; labels keep their order."""
    perm = list(range(frag.graph.n_vertices))
    rng.shuffle(perm)
    g = relabel_with(frag.graph, perm, rng)
    return Fragment(g, tuple(perm[v] for v in frag.labels))


def _upper(rows) -> list:
    return [rows[a][b] for a in range(len(rows)) for b in range(a, len(rows))]


def _symmetric(upper, n: int) -> list:
    """The n x n symmetric matrix whose upper triangle, row by row, is ``upper``."""
    rows = [[None] * n for _ in range(n)]
    cells = iter(upper)
    for a in range(n):
        for b in range(a, n):
            rows[a][b] = rows[b][a] = next(cells)
    return rows


def _summed_tensor(frag, model):
    total = connection.FragmentTensor.zero(frag.t, model.k, model.two_ell)
    for subset in graph.enumerate_eulerian_subsets(frag):
        total = total + connection.fragment_tensor(frag, subset, model)
    return total


def gram_upper(fragments, model) -> list:
    """Upper triangle of the Gram matrix of the fragments' summed tensors."""
    tensors = [_summed_tensor(f, model) for f in fragments]
    return [
        connection.gram_pairing(tensors[a], tensors[b])
        for a in range(len(tensors))
        for b in range(a, len(tensors))
    ]


def _pair(x) -> tuple:
    if isinstance(x, GaussianRational):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _mul(x, y) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _sub(x, y) -> tuple:
    return x[0] - y[0], x[1] - y[1]


def reference_rank(rows) -> int:
    """Rank over Q(i) by Gaussian elimination on (re, im) pairs of Fractions.

    It shares no code with ``mixedpf.linalg`` or the Q(i) arithmetic of
    ``mixedpf.algebra``, so it can check ``exact_rank``.
    """
    m = [[_pair(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        a, b = m[rank][c]
        inverse = (a / (a * a + b * b), -b / (a * a + b * b))
        for i in range(rank + 1, len(m)):
            factor = _mul(m[i][c], inverse)
            m[i] = [_sub(cell, _mul(factor, top)) for cell, top in zip(m[i], m[rank])]
        rank += 1
    return rank


def certificate_item(label, fragments, model, mode, rank, reference=None) -> Item:
    """The rank certificate of one fragment family under one model.

    Outputs are the exact rank and the upper triangle of the glued matrix.
    The rank must equal ``rank``, worked out in set-up from the reference
    matrix, and must not exceed (k+2l)^t.  In mixed mode the reference
    matrix is the Gram matrix of the fragments' summed tensors, computed
    again inside the pass; in ordinary mode it is ``reference``.
    """
    t = fragments[0].t
    base = model.k + (model.two_ell if mode == "mixed" else 0)

    def run():
        matrix = connection.connection_matrix(fragments, model, mode)
        return [connection.exact_rank(matrix)] + _upper(matrix.entries)

    def check(values):
        expected = gram_upper(fragments, model) if mode == "mixed" else reference
        return values[0] == rank <= base**t and values[1:] == expected

    return Item(label, run, check)


def connrank_gram(seed: int, families=FAMILIES) -> list[Item]:
    """Rank certificates of two fragment families under three models.

    The families are fixed samples; the seed renames each fragment's
    vertices and reorders its edges, which leaves every exact value as it
    is.  (A seeded sample, even stratified as in :func:`sample_fragments`,
    moved the cost of a pass by a fifth from seed to seed.)  The ordinary
    (matchings) entries are checked against matching counts of the glued
    graphs, computed before the pass.  Gluing for those references happens
    in set-up, so ``graph.glue`` spans in a pass all come from
    ``connection_matrix``.  The expected ranks are computed in set-up too,
    from the Gram matrices and the matching counts.
    """
    rng = random.Random(seed)
    items = []
    for t, max_internal, max_edges, size in families:
        fragments = [
            relabel_fragment(f, rng) for f in sample_fragments(t, max_internal, max_edges, size)
        ]
        glued = [
            graph.glue(fragments[a], fragments[b])
            for a in range(len(fragments))
            for b in range(a, len(fragments))
        ]
        # a vertexless circle is an edge without endpoints: in or out of any
        # matching, so each one doubles the count
        matchings = [oracles.matching_count_oracle(g) * 2**g.n_circles for g in glued]
        tests = [
            ("charpoly0", models.charpoly_model(0, cap=CAP), "mixed", None),
            ("circuit-odd1", models.circuit_odd_model(1, cap=CAP), "mixed", None),
            ("matchings", models.matchings_model(cap=CAP), "ordinary", matchings),
        ]
        for name, model, mode, reference in tests:
            upper = gram_upper(fragments, model) if mode == "mixed" else reference
            rank = reference_rank(_symmetric(upper, len(fragments)))
            items.append(
                certificate_item(f"t{t}-{name}", fragments, model, mode, rank, reference)
            )
    return items


WORKLOADS = {
    "verify-charpoly": verify_charpoly,
    "eval-ladders": eval_ladders,
    "connrank-gram": connrank_gram,
}
