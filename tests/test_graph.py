"""Multigraph, fragment and Eulerian-machinery tests."""

import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpf.graph import (
    MAX_VERTICES,
    EulerianState,
    Fragment,
    MultiGraph,
    as_fragment,
    build_G_pi,
    circle_graph,
    cycle_graph,
    decompose,
    disjoint_union,
    enumerate_eulerian_subsets,
    eulerian_state,
    format_fragment,
    glue,
    glue_with_maps,
    n_components,
    parse_fragments,
    parse_graph,
    peel,
    split,
    validate_state,
)
from mixedpf.oracles import eulerian_subsets_oracle
from mixedpf.suites import (
    enumerate_fragments,
    enumerate_multigraphs,
    random_fragment,
    random_multigraph,
)

K3 = cycle_graph(3)
FIG8 = MultiGraph(1, ((0, 0), (0, 0)))


# -- Eulerian subsets -----------------------------------------------------------


def test_k3_eulerian_subsets():
    subsets = enumerate_eulerian_subsets(K3)
    assert sorted(subsets, key=sorted) == [frozenset(), frozenset({0, 1, 2})]


def test_loop_eulerian_subsets():
    g = MultiGraph(1, ((0, 0),))
    assert sorted(enumerate_eulerian_subsets(g), key=sorted) == [
        frozenset(),
        frozenset({0}),
    ]


def test_path_fragment_subsets():
    # open-end -- internal -- open-end: only both-or-neither is Eulerian
    frag = Fragment(MultiGraph(3, ((0, 1), (0, 2))), (1, 2))
    assert sorted(enumerate_eulerian_subsets(frag), key=sorted) == [
        frozenset(),
        frozenset({0, 1}),
    ]


def test_enumeration_matches_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6)))
        g = MultiGraph(n, edges)
        assert sorted(enumerate_eulerian_subsets(g), key=sorted) == sorted(
            eulerian_subsets_oracle(g), key=sorted
        )


def test_enumeration_equals_oracle_exhaustively():
    # lists are compared, so the ascending-mask order is checked too
    cases = list(enumerate_multigraphs(4, 6))
    for t, max_internal, max_edges in ((2, 3, 5), (3, 2, 5), (1, 3, 5), (4, 2, 4), (2, 2, 4)):
        cases += enumerate_fragments(t, max_internal, max_edges)
    assert len(cases) == 11270
    for frag in cases:
        assert enumerate_eulerian_subsets(frag) == eulerian_subsets_oracle(frag), frag


def fragments_oracle(t, max_internal, max_edges):
    """Every multiset of edges over the vertex pairs, kept when each label
    has degree 1: the enumeration that ``enumerate_fragments`` must equal."""
    for n_int in range(max_internal + 1):
        labels = tuple(n_int + i for i in range(t))
        pairs = [(u, v) for u in range(n_int) for v in range(u, n_int)]
        pairs += [(u, lab) for u in range(n_int) for lab in labels]
        pairs += [(labels[i], labels[j]) for i in range(t) for j in range(i + 1, t)]
        for m in range(max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                degs = [0] * (n_int + t)
                for u, v in combo:
                    degs[u] += 1
                    degs[v] += 1
                if all(degs[lab] == 1 for lab in labels):
                    yield Fragment(MultiGraph(n_int + t, combo), labels)


def test_enumerate_fragments_equals_the_multiset_oracle():
    # lists are compared, so the order that samples of a family read is checked too
    total = 0
    for t in range(5):
        for max_internal in range(3):
            for max_edges in range(6):
                family = list(enumerate_fragments(t, max_internal, max_edges))
                assert family == list(fragments_oracle(t, max_internal, max_edges))
                total += len(family)
    assert total == 1752


def test_enumerate_fragments_gives_each_label_its_edge_first():
    """12 labels on 6 edges admit only the 10,395 perfect matchings of the
    labels; the multiset oracle would draw C(71, 6), about 1.3e8, edge
    multisets for them."""
    family = enumerate_fragments(12, 0, 6)
    assert next(family).graph.edges == tuple((2 * i, 2 * i + 1) for i in range(6))
    rest = list(family)
    assert len(rest) == 10394
    assert len({frag.graph.edges for frag in rest}) == 10394
    # one internal vertex cannot take a label's edge: 12 - 2 * 6 = 0 labels may
    assert len(list(enumerate_fragments(12, 1, 6))) == 2 * 10395


def test_enumerate_fragments_is_empty_when_labels_outnumber_edge_ends(monkeypatch):
    # each label needs an edge end of its own; at t = 2 * max_edges the
    # labels can still pair up: 4 labels, 2 edges, 3 matchings
    assert len(list(enumerate_fragments(4, 0, 2))) == 3

    def refuse(*args):
        raise AssertionError("edge combinations were enumerated")

    monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
    assert list(enumerate_fragments(30, 2, 3)) == []
    assert list(enumerate_fragments(5, 2, 2)) == []


@st.composite
def fragments(draw):
    """Multigraphs with loops and parallel edges, with up to 3 labels whose
    open ends go to internal vertices or straight to other labels."""
    t = draw(st.integers(0, 3))
    n_int = draw(st.integers(1 if t % 2 else 0, 4))
    labels = tuple(range(n_int, n_int + t))
    internal = st.integers(0, n_int - 1)
    edges = []
    unattached = list(labels)
    while unattached:
        v = unattached.pop(0)
        if unattached and (not n_int or draw(st.booleans())):
            edges.append((v, unattached.pop(draw(st.integers(0, len(unattached) - 1)))))
        else:
            edges.append((draw(internal), v))
    if n_int:
        edges += draw(st.lists(st.tuples(internal, internal), max_size=8))
    return Fragment(MultiGraph(n_int + t, tuple(edges)), labels)


def merged_counts(frag):
    """Vertices and components once all labels are merged into one vertex."""
    parent = list(range(frag.graph.n_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in frag.graph.edges + tuple(zip(frag.labels, frag.labels[1:])):
        parent[find(a)] = find(b)
    n = frag.graph.n_vertices - max(frag.t - 1, 0)
    return n, len({find(v) for v in range(frag.graph.n_vertices)})


@settings(max_examples=300, deadline=None)
@given(fragments())
def test_subset_count_is_two_to_the_cycle_rank(frag):
    n, c = merged_counts(frag)
    assert len(enumerate_eulerian_subsets(frag)) == 2 ** (frag.graph.n_edges - n + c)


@settings(max_examples=300, deadline=None)
@given(fragments(), st.randoms(use_true_random=False))
def test_subsets_follow_vertex_renaming_and_edge_permutation(frag, rng):
    g = frag.graph
    rename = list(range(g.n_vertices))
    rng.shuffle(rename)
    order = list(range(g.n_edges))  # new edge j is old edge order[j]
    rng.shuffle(order)
    edges = tuple(
        (rename[b], rename[a]) if rng.random() < 0.5 else (rename[a], rename[b])
        for a, b in (g.edges[e] for e in order)
    )
    moved = Fragment(MultiGraph(g.n_vertices, edges), tuple(rename[v] for v in frag.labels))
    mapped = {frozenset(order[j] for j in s) for s in enumerate_eulerian_subsets(moved)}
    assert mapped == set(enumerate_eulerian_subsets(frag))


# -- states and decompositions ---------------------------------------------------


def test_k3_full_state_single_circuit():
    subset = frozenset({0, 1, 2})
    for seed in range(5):
        state = eulerian_state(K3, subset, seed)
        validate_state(K3, state)
        circuits, trails = decompose(state, K3)
        assert (circuits, trails) == (1, ())


def test_fig8_both_circuit_counts_reachable():
    subset = frozenset({0, 1})
    seen = set()
    for seed in range(20):
        state = eulerian_state(FIG8, subset, seed)
        validate_state(FIG8, state)
        circuits, _ = decompose(state, FIG8)
        seen.add(circuits)
    assert seen == {1, 2}


def test_empty_subset_state():
    state = eulerian_state(K3, frozenset(), 0)
    assert decompose(state, K3) == (0, ())


def test_open_open_edge_trail():
    frag = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    state = eulerian_state(frag, frozenset({0}), 0)
    circuits, trails = decompose(state, frag)
    assert circuits == 0
    assert trails in (((1, 2),), ((2, 1),))


def test_peel_counts_what_decompose_traces():
    """The peel's state is valid and its counts are decompose's, with and
    without a generator, on every subset of every small fragment."""
    checked = 0
    for t in range(5):
        for frag in enumerate_fragments(t, 2, 5):
            for subset in enumerate_eulerian_subsets(frag):
                for rng in (None, random.Random(checked)):
                    state, circuits, trails = peel(frag, subset, rng)
                    validate_state(frag, state)
                    assert (circuits, trails) == decompose(state, frag), (frag, subset)
                    checked += 1
    assert checked > 10000


def test_peel_without_rng_is_deterministic_and_closes_late():
    # FIG8's walk passes its start vertex once before closing: one circuit
    assert peel(FIG8, frozenset({0, 1}))[1:] == (1, ())
    frag = Fragment(MultiGraph(4, ((0, 1), (0, 2), (0, 3), (0, 0))), (1, 2, 3))
    runs = [peel(frag, frozenset({0, 1, 3})) for _ in range(3)]
    assert all(run == runs[0] for run in runs)
    assert runs[0][1:] == (0, ((1, 2),))


def test_non_eulerian_subset_rejected():
    with pytest.raises(ValueError):
        eulerian_state(K3, frozenset({0}), 0)


def test_validate_state_catches_tampering():
    subset = frozenset({0, 1, 2})
    state = eulerian_state(K3, subset, 0)
    bad = type(state)(state.subset, dict(state.orientation), dict(state.pairing))
    bad.orientation[0] = not bad.orientation[0]
    with pytest.raises(ValueError):
        validate_state(K3, bad)


# a path 0 - 1 = 2 - 3 with labels 0 and 3, and a valid state of its subset
# {0, 1, 3}: every edge runs from its second endpoint to its first
PATH = Fragment(MultiGraph(4, ((0, 1), (1, 2), (1, 2), (2, 3))), (0, 3))
PATH_STATE = EulerianState(
    frozenset({0, 1, 3}),
    {0: False, 1: False, 3: False},
    {1: (((1, 0), (0, 1)),), 2: (((3, 0), (1, 1)),)},
)


@pytest.mark.parametrize(
    "orientation,pairing,message",
    [
        ({0: False, 1: False}, None, "orientation must cover exactly the subset edges"),
        (None, {0: (((0, 0), (0, 1)),)}, "labeled vertex 0 must not carry pairings"),
        (None, {1: (((1, 0), (2, 0)),)}, "paired half-edge (2, 0) outside subset"),
        (None, {1: (((1, 0), (3, 0)),)}, "half-edge (3, 0) paired at wrong vertex 1"),
        (None, {1: (((0, 1), (1, 0)),)}, "first half-edge of pair ((0, 1), (1, 0)) not incoming"),
        (None, {2: ()}, "pairing at vertex 2 does not partition its half-edges"),
    ],
)
def test_validate_state_refusals(orientation, pairing, message):
    validate_state(PATH, PATH_STATE)
    broken = EulerianState(
        PATH_STATE.subset,
        PATH_STATE.orientation if orientation is None else orientation,
        {**PATH_STATE.pairing, **(pairing or {})},
    )
    with pytest.raises(ValueError) as info:
        validate_state(PATH, broken)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: MultiGraph(-1), ValueError, "negative vertex or circle count"),
        (lambda: MultiGraph(1, (), -1), ValueError, "negative vertex or circle count"),
        (lambda: MultiGraph(2, ((0, 2),)), ValueError, "edge (0,2) has endpoint outside range"),
        (lambda: MultiGraph(2, ((-1, 1),)), ValueError, "edge (-1,1) has endpoint outside range"),
        (lambda: cycle_graph(0), ValueError, "cycle length must be positive"),
        (
            lambda: Fragment(MultiGraph(2, ((0, 1),)), (2,)),
            ValueError,
            "labeled vertex 2 out of range",
        ),
        (lambda: as_fragment(3), TypeError, "expected MultiGraph or Fragment, got int"),
    ],
)
def test_constructor_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_a_cycle_of_one_vertex_is_a_loop():
    assert cycle_graph(1) == MultiGraph(1, ((0, 0),))


def test_pairing_conservation():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 6)))
        t = rng.randint(0, 2)
        g = MultiGraph(n + t, edges + tuple((rng.randrange(n), n + i) for i in range(t)))
        frag = Fragment(g, tuple(n + i for i in range(t)))
        subsets = enumerate_eulerian_subsets(frag)
        subset = rng.choice(subsets)
        state = eulerian_state(frag, subset, rng.randrange(100))
        n_pairs = sum(len(p) for p in state.pairing.values())
        at_labels = sum(
            1
            for e in subset
            for v in g.edges[e]
            if v in frag.labels
        )
        # every subset half-edge is either in a pair or sits at a label
        assert 2 * n_pairs + at_labels == 2 * len(subset)
        circuits, trails = decompose(state, frag)
        touched = sorted(x for arc in trails for x in arc)
        assert len(touched) == len(set(touched))  # perfect directed matching
        assert len(touched) % 2 == 0


# -- gluing -----------------------------------------------------------------------


def open_open():
    return Fragment(MultiGraph(2, ((0, 1),)), (0, 1))


def test_glue_circle_creation():
    g = glue(open_open(), open_open())
    assert g == MultiGraph(0, (), 1)


def test_glue_pendant_loops():
    frag = Fragment(MultiGraph(2, ((0, 0), (0, 1))), (1,))
    g = glue(frag, frag)
    assert g.n_vertices == 2
    assert sorted(g.edges) == [(0, 0), (0, 1), (1, 1)]
    assert g.n_circles == 0


def test_glue_paths_to_c2():
    frag = Fragment(MultiGraph(3, ((0, 1), (0, 2))), (1, 2))
    g = glue(frag, frag)
    assert g.n_vertices == 2
    assert sorted(g.edges) == [(0, 1), (0, 1)]


def test_glue_t_mismatch():
    with pytest.raises(ValueError):
        glue(open_open(), Fragment(MultiGraph(2, ((0, 1),)), (1,)))


def test_glue_counts():
    """Sampled pairs of small fragments: the counts, every internal vertex's
    degree, and where each old edge goes.  Edges off the labels keep their
    ends and order; each class of open edges becomes one edge between its
    internal ends, numbered and oriented from the first of its open edges
    that has one, or a circle of label-to-label edges."""
    rng = random.Random(11)
    for t in range(5):
        family = list(enumerate_fragments(t, 2, 4))
        for _ in range(150):
            f1, f2 = rng.choice(family), rng.choice(family)
            res = glue_with_maps(f1, f2)
            g = res.graph
            assert g.n_vertices == (f1.graph.n_vertices - t) + (f2.graph.n_vertices - t)
            assert g.n_edges == f1.graph.n_edges + f2.graph.n_edges - t
            new_circles = g.n_circles - f1.graph.n_circles - f2.graph.n_circles
            vmap = {}  # (fragment, internal vertex) -> glued vertex
            for fi, fr in enumerate((f1, f2)):
                for v in range(fr.graph.n_vertices):
                    if v not in fr.labels:
                        vmap[fi, v] = len(vmap)
            degrees = (f1.graph.degrees(), f2.graph.degrees(), g.degrees())
            assert all(degrees[2][w] == degrees[fi][v] for (fi, v), w in vmap.items())
            fixed, chains, linked, circles = [], {}, set(), set()
            for fi, (fr, emap) in enumerate(((f1, res.edge_map1), (f2, res.edge_map2))):
                assert set(emap) == set(range(fr.graph.n_edges))
                for e, (a, b) in enumerate(fr.graph.edges):
                    ends = [vmap[fi, v] for v in (a, b) if (fi, v) in vmap]
                    kind, idx = emap[e]
                    if kind == "circle":
                        assert not ends
                        circles.add(idx)
                    elif len(ends) == 2:
                        assert g.edges[idx] == tuple(ends)
                        fixed.append(idx)
                    else:
                        linked.add(idx)
                        if ends:
                            chains.setdefault(idx, []).extend(ends)
            assert fixed == list(range(len(fixed)))
            assert list(chains) == list(range(len(fixed), g.n_edges))
            assert linked == set(chains)
            assert all(tuple(ends) == g.edges[idx] for idx, ends in chains.items())
            assert circles == set(range(new_circles))


def test_glue_numbers_chains_at_their_first_internal_end():
    # f1's label-to-label edge 0 comes first, but its chain's first internal
    # end is f2's vertex 0, after f1's edge 1 starts the other chain at a
    f1 = Fragment(MultiGraph(4, ((1, 2), (0, 3))), (1, 2, 3))
    f2 = Fragment(MultiGraph(5, ((0, 2), (1, 3), (1, 4))), (2, 3, 4))
    res = glue_with_maps(f1, f2)
    assert res.graph == MultiGraph(3, ((0, 2), (1, 2)))
    assert res.edge_map1 == {0: ("edge", 1), 1: ("edge", 0)}
    assert res.edge_map2 == {0: ("edge", 1), 1: ("edge", 1), 2: ("edge", 0)}


# -- unions and cycle families ------------------------------------------------------


def test_disjoint_union_examples():
    assert disjoint_union(K3, MultiGraph(0)) == K3
    assert disjoint_union(circle_graph(), circle_graph()).n_circles == 2
    two = disjoint_union(K3, K3)
    assert two.n_vertices == 6 and two.n_edges == 6


def test_disjoint_union_associative():
    a, b, c = K3, FIG8, cycle_graph(2)
    assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(a, disjoint_union(b, c))


def test_disjoint_union_commutative_invariants():
    ab = disjoint_union(K3, FIG8)
    ba = disjoint_union(FIG8, K3)
    assert sorted(ab.degrees()) == sorted(ba.degrees())
    assert ab.n_edges == ba.n_edges and ab.n_circles == ba.n_circles


def component_count(g):
    seen, comps = set(), 0
    adj = {v: set() for v in range(g.n_vertices)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    for v in range(g.n_vertices):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
    return comps


@pytest.mark.parametrize(
    "k,pi,n_vertices,n_components",
    [
        (1, (0, 1), 12, 2),  # identity: two 6-cycles
        (1, (1, 0), 12, 1),  # transposition: one 12-cycle
        (2, (1, 2, 0), 18, 1),  # 3-cycle: one 18-cycle
    ],
)
def test_build_G_pi(k, pi, n_vertices, n_components):
    g = build_G_pi(k, pi)
    assert g.n_vertices == n_vertices
    assert g.n_edges == n_vertices
    assert all(d == 2 for d in g.degrees())
    assert component_count(g) == n_components


def test_build_G_pi_rejects_non_permutation():
    with pytest.raises(ValueError):
        build_G_pi(1, (0, 0))
    with pytest.raises(ValueError):  # images are 0-based
        build_G_pi(1, (1, 2))


# -- text format -----------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
def test_format_parse_roundtrip(seed, t, circles):
    rng = random.Random(seed)
    frag = random_fragment(rng, t, max_internal=3, max_edges=6)
    (back,) = parse_fragments(format_fragment(frag))
    assert back == frag
    g = random_multigraph(rng)
    g = MultiGraph(g.n_vertices, g.edges, circles)
    assert parse_graph(format_fragment(g)) == g


def test_parse_graph_with_circles_and_comments():
    g = parse_graph("# a circle and a loop\nvertices 1\nedge 0 0\ncircle\n")
    assert g == MultiGraph(1, ((0, 0),), 1)


def test_parse_multiple_blocks():
    text = format_fragment(open_open()) + format_fragment(open_open())
    frags = parse_fragments(text)
    assert len(frags) == 2


@pytest.mark.parametrize(
    "text,message",
    [
        ("vertices 2\nedge 0 5\n", "out of range"),
        ("edge 0 1\n", "before any"),
        ("vertices 1\nfoo\n", "unknown keyword"),
        ("vertices 2\nedge 0 1\nlabel 0\nlabel 1\ncircle\n", "circle"),
        ("vertices 2\nedge 0 1\nedge 0 1\nlabel 0\n", "degree"),
        ("vertices x\n", "vertices"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_fragments(text)


def test_parse_error_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_fragments("vertices 2\nedge 0 1\nedge 9 0\n")


# stray lines: the format's keywords with odd or malformed arguments
TOKENS = st.one_of(
    st.sampled_from(["vertices", "edge", "label", "circle", "#", "1000001", "x"]),
    st.integers(-1, 3).map(str),
    st.text(max_size=3),
)
KEYWORDS = st.sampled_from([("edge", 2), ("edge", 2), ("label", 1), ("circle", 0)])


@st.composite
def graph_texts(draw):
    """Blocks of the text format, with at most one stray line."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 4))
        lines.append(f"vertices {n}")
        vertex = st.integers(0, max(n - 1, 0)).map(str)
        for _ in range(draw(st.integers(0, 5))):
            kw, arity = draw(KEYWORDS)
            lines.append(" ".join([kw] + [draw(vertex) for _ in range(arity)]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), " ".join(draw(st.lists(TOKENS, max_size=4))))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(graph_texts() | st.text(max_size=60))
def test_parsers_parse_or_refuse(text):
    """Every text either parses, and then formats back to itself, or is
    refused with ValueError."""
    try:
        blocks = parse_fragments(text)
    except ValueError:
        blocks = None
    if blocks is not None:
        assert parse_fragments("".join(map(format_fragment, blocks))) == blocks
    try:
        g = parse_graph(text)
    except ValueError:
        return
    assert blocks == [Fragment(g)]


def test_vertex_counts_past_the_limit_are_refused():
    assert parse_graph(f"vertices {MAX_VERTICES}\n").n_vertices == MAX_VERTICES
    for count in (MAX_VERTICES + 1, "0" * 20 + str(MAX_VERTICES + 1), "9" * 5000):
        with pytest.raises(ValueError, match=f"more than {MAX_VERTICES} vertices"):
            parse_fragments(f"vertices {count}\n")


def test_fragment_validation():
    with pytest.raises(ValueError):
        Fragment(MultiGraph(2, ((0, 1), (0, 1))), (0,))  # degree 2 label
    with pytest.raises(ValueError):
        Fragment(MultiGraph(1, ((0, 0),)), (0,))  # loop at label


# -- split: the inverse of glue --------------------------------------------------


def assert_glues_back(g, side):
    """glue_with_maps of split(g, side) is g with side's vertices numbered
    first: each cut edge is the class of its two open edges, oriented from
    the side, and every other edge maps home."""
    inside = set(side)
    f1, f2 = split(g, side)
    res = glue_with_maps(f1, f2)
    order = sorted(inside) + [v for v in range(g.n_vertices) if v not in inside]
    new = {v: i for i, v in enumerate(order)}
    assert (res.graph.n_vertices, res.graph.n_circles) == (g.n_vertices, g.n_circles)
    cut = [e for e, (a, b) in enumerate(g.edges) if (a in inside) != (b in inside)]
    assert f1.t == f2.t == len(cut)
    images = defaultdict(set)
    for half, edge_map, kept in ((f1, res.edge_map1, True), (f2, res.edge_map2, False)):
        own = [e for e, ends in enumerate(g.edges) if any((v in inside) == kept for v in ends)]
        assert half.graph.n_edges == len(own)
        for j, e in enumerate(own):
            kind, index = edge_map[j]
            assert kind == "edge"
            images[e].add(index)
    assert all(len(image) == 1 for image in images.values())
    assert sorted(index for [index] in images.values()) == list(range(g.n_edges))
    for e, [index] in images.items():
        a, b = g.edges[e]
        if e in cut and a not in inside:
            a, b = b, a
        assert res.graph.edges[index] == (new[a], new[b])
    return cut


def test_split_is_the_inverse_of_glue():
    """Every bipartition of every multigraph with at most 3 vertices and 6
    edges, each graph also with a circle, sides empty and full included."""
    loops = parallel = 0
    for g in enumerate_multigraphs(3, 6):
        for circled in (g, MultiGraph(g.n_vertices, g.edges, 1)):
            for size in range(g.n_vertices + 1):
                for side in itertools.combinations(range(g.n_vertices), size):
                    cut = assert_glues_back(circled, side)
                    loops += any(a == b for a, b in circled.edges) and 0 < size < g.n_vertices
                    parallel += len({g.edges[e] for e in cut}) < len(cut)
    assert loops > 1000 and parallel > 1000


def test_split_keeps_edge_order_and_labels():
    # a square with a loop, cut around {0, 3}: edges 1 and 3 leave the side
    g = MultiGraph(4, ((0, 3), (2, 3), (1, 2), (0, 1), (3, 3)), 2)
    f1, f2 = split(g, [3, 0])
    assert f1 == Fragment(MultiGraph(4, ((0, 1), (2, 1), (0, 3), (1, 1)), 2), (2, 3))
    assert f2 == Fragment(MultiGraph(4, ((1, 2), (0, 1), (3, 0))), (2, 3))
    assert split(g, []) == (Fragment(MultiGraph(0, (), 2)), Fragment(MultiGraph(4, g.edges)))
    with pytest.raises(ValueError, match="outside the graph"):
        split(g, [4])


def test_n_components_matches_a_graph_search():
    g = MultiGraph(8, ((4, 1), (2, 2), (5, 4), (0, 3)), 3)
    assert n_components(g) == 5  # {0, 3}, {1, 4, 5}, {2}, {6}, {7}
    assert n_components(MultiGraph(0, (), 2)) == 0
    for g in enumerate_multigraphs(3, 4):
        assert n_components(g) == component_count(g)
