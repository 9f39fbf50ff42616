"""Half-edge multigraphs and fragments, plus the Eulerian machinery.

Graphs may have loops, parallel edges and vertexless circle components; a
t-fragment additionally carries t labeled vertices of degree one whose
incident edges are its open ends.  Half-edges (edge id, side) are the
primitive incidence objects: orientations and local pairings of loops are
ill-defined on plain edge lists.

A state's trails and circuits are read off its pairing (:func:`decompose`).
Gluing joins the two open edges that meet at each label into one class,
which becomes one edge between its internal ends, or a circle if it has none.

All structures are immutable after construction; every operation returns
fresh values, so everything here is safe for data-parallel use.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

#: a half-edge is (edge id, side) with side 0 at the first endpoint, 1 at the second
HalfEdge = tuple


@dataclass(frozen=True)
class MultiGraph:
    """A finite multigraph: loops and parallel edges allowed.

    ``n_circles`` counts vertexless circle components; they carry no
    colorable structure beyond a multiplicative factor in partition
    functions.  Degrees count loops twice.
    """

    n_vertices: int
    edges: tuple = ()
    n_circles: int = 0

    def __post_init__(self):
        if self.n_vertices < 0 or self.n_circles < 0:
            raise ValueError("negative vertex or circle count")
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise ValueError(f"edge ({a},{b}) has endpoint outside range")
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        d = [0] * self.n_vertices
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return d

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def is_eulerian(self) -> bool:
        """Every vertex has even degree (circles are always even)."""
        return all(d % 2 == 0 for d in self.degrees())


EMPTY_GRAPH = MultiGraph(0)


def circle_graph(n: int = 1) -> MultiGraph:
    """n disjoint vertexless circles."""
    return MultiGraph(0, (), n)


def cycle_graph(n: int) -> MultiGraph:
    """The cycle on n vertices; n=1 is a loop, n=2 a pair of parallel edges."""
    if n < 1:
        raise ValueError("cycle length must be positive")
    if n == 1:
        return MultiGraph(1, ((0, 0),))
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


@dataclass(frozen=True)
class Fragment:
    """A graph with an ordered list of labeled degree-one vertices.

    Label i (1-based) is ``labels[i-1]``; the edge incident with a labeled
    vertex is the open end carrying that label.  A graph is the t=0 case.
    """

    graph: MultiGraph
    labels: tuple = ()

    def __post_init__(self):
        labels = tuple(int(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labeled vertices must be distinct")
        degs = self.graph.degrees()
        for v in labels:
            if not 0 <= v < self.graph.n_vertices:
                raise ValueError(f"labeled vertex {v} out of range")
            if degs[v] != 1:
                raise ValueError(f"labeled vertex {v} has degree {degs[v]}, not 1")

    @property
    def t(self) -> int:
        return len(self.labels)

    def max_degree(self) -> int:
        """The largest degree of an unlabeled vertex, the largest a model
        weighs: gluing keeps these vertices and their degrees."""
        degrees = self.graph.degrees()
        for v in self.labels:
            degrees[v] = 0
        return max(degrees, default=0)

    def open_end(self, pos: int) -> tuple[int, int]:
        """(edge id, side) of the open end at label position pos (0-based)."""
        v = self.labels[pos]
        for e, (a, b) in enumerate(self.graph.edges):
            if a == v:
                return e, 0
            if b == v:
                return e, 1
        raise AssertionError("labeled vertex with no incident edge")


def as_fragment(g) -> Fragment:
    if isinstance(g, Fragment):
        return g
    if isinstance(g, MultiGraph):
        return Fragment(g, ())
    raise TypeError(f"expected MultiGraph or Fragment, got {type(g).__name__}")


def is_eulerian_subset(frag, subset) -> bool:
    """Every unlabeled vertex has even subset-degree (loops count twice)."""
    frag = as_fragment(frag)
    labeled = set(frag.labels)
    deg = defaultdict(int)
    for e in subset:
        a, b = frag.graph.edges[e]
        deg[a] += 1
        deg[b] += 1
    return all(d % 2 == 0 for v, d in deg.items() if v not in labeled)


def enumerate_eulerian_subsets(frag) -> list[frozenset]:
    """All edge subsets whose unlabeled vertices have even subset-degree.

    These subsets are the cycle space of the graph with all labeled vertices
    merged into one node (the merged node's degree is then even too), so
    they are built from a GF(2) basis of fundamental cycles of a spanning
    forest: 2^(m - n' + c') subsets are built, where n' and c' count the
    vertices and components after the merge, instead of 2^m masks tested.
    The empty set is included.  The list is in ascending order of the edge
    bitmask sum(1 << e for e in subset); callers may rely on that order.
    """
    frag = as_fragment(frag)
    edges = frag.graph.edges
    node = {v: -1 for v in frag.labels}  # every label becomes the node -1
    ends = [(node.get(a, a), node.get(b, b)) for a, b in edges]
    adjacent = defaultdict(list)
    for e, (a, b) in enumerate(ends):
        adjacent[a].append((e, b))
        adjacent[b].append((e, a))
    # path[v]: bitmask of the forest edges from v's root to v
    path = {}
    forest = 0
    for root in adjacent:
        if root in path:
            continue
        path[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for e, w in adjacent[u]:
                if w not in path:
                    path[w] = path[u] | 1 << e
                    forest |= 1 << e
                    stack.append(w)
    masks = [0]
    for e, (a, b) in enumerate(ends):
        if not forest >> e & 1:
            cycle = 1 << e ^ path[a] ^ path[b]
            masks += [mask ^ cycle for mask in masks]
    masks.sort()
    m = len(edges)
    return [frozenset(e for e in range(m) if mask >> e & 1) for mask in masks]


@dataclass(frozen=True)
class EulerianState:
    """An Eulerian orientation plus a compatible local pairing of a subset.

    ``orientation[e]`` is True when edge e runs first->second endpoint; the
    pairing maps each unlabeled vertex to ordered (incoming, outgoing)
    half-edge pairs.  Open ends at labeled vertices are oriented but never
    paired.
    """

    subset: frozenset
    orientation: dict
    pairing: dict


def is_incoming(state: EulerianState, he: HalfEdge) -> bool:
    e, side = he
    head_side = 1 if state.orientation[e] else 0
    return side == head_side


def _vertex_of(graph: MultiGraph, he: HalfEdge) -> int:
    e, side = he
    return graph.edges[e][side]


def _last(n: int) -> int:
    return n - 1


def peel(frag, subset, rng=None) -> tuple[EulerianState, int, tuple]:
    """Peel an Eulerian subset into directed trails and circuits.

    Returns ``(state, circuits, trails)``, where ``(circuits, trails)`` is
    what :func:`decompose` gives for ``state``, counted while peeling
    instead of traced again.  Trails start at the labels whose open end lies
    in the subset; circuits then take up the remaining half-edges.

    Without ``rng`` every choice follows vertex and edge order: a walk
    leaves a vertex by its last unused half-edge, a circuit starts at the
    last vertex that still has one, and a circuit closes only when its start
    vertex has no other unused half-edge.  With ``rng`` (a
    :class:`random.Random`) the same walk draws these choices, so different
    generators reach different valid states.  The subset must be Eulerian
    (:func:`is_eulerian_subset`); that is not checked here.
    """
    frag = as_fragment(frag)
    edges = frag.graph.edges
    label_no = {v: pos + 1 for pos, v in enumerate(frag.labels)}
    unused = {}
    for e in sorted(subset):
        a, b = edges[e]
        unused.setdefault(a, []).append((e, 0))
        unused.setdefault(b, []).append((e, 1))
    # trail starts, popped from the end, so in label order without rng
    starts = [v for v in reversed(frag.labels) if v in unused]
    vertices = sorted(unused)
    pick = _last
    if rng is not None:
        pick = rng.randrange
        for hes in unused.values():
            rng.shuffle(hes)
        rng.shuffle(starts)

    orientation = {}
    pairing = {}
    circuits = 0
    trails = []
    while True:
        if starts:
            v0 = starts.pop()
            if not unused[v0]:
                continue  # already reached as the far end of an earlier trail
        else:
            rem = [v for v in vertices if unused[v]]
            if not rem:
                break
            v0 = rem[pick(len(rem))]
        hes = unused[v0]
        h0 = h = hes.pop(pick(len(hes)))
        orientation[h[0]] = h[1] == 0
        while True:
            e, side = h
            hp = (e, 1 - side)
            w = edges[e][1 - side]
            hes = unused[w]
            hes.remove(hp)
            if w in label_no:
                trails.append((label_no[v0], label_no[w]))
                break
            if w == v0 and (
                not hes or rng is not None and rng.randrange(len(hes) + 1) == 0
            ):
                pairing.setdefault(w, []).append((hp, h0))
                circuits += 1
                break
            h = hes.pop(pick(len(hes)))
            pairing.setdefault(w, []).append((hp, h))
            orientation[h[0]] = h[1] == 0

    state = EulerianState(
        frozenset(subset), orientation, {v: tuple(ps) for v, ps in pairing.items()}
    )
    return state, circuits, tuple(sorted(trails))


def eulerian_state(frag, subset, seed: int = 0) -> EulerianState:
    """Build a valid orientation and compatible pairing for an Eulerian subset.

    This is :func:`peel` driven by ``random.Random(seed)``, so different
    seeds reach different valid states (which is what the invariance tests
    need).
    """
    frag = as_fragment(frag)
    subset = frozenset(subset)
    if not is_eulerian_subset(frag, subset):
        raise ValueError("subset is not Eulerian: some unlabeled vertex has odd degree")
    return peel(frag, subset, random.Random(seed))[0]


def validate_state(frag, state: EulerianState) -> None:
    """Raise ValueError unless the state is a valid (orientation, pairing)."""
    frag = as_fragment(frag)
    g = frag.graph
    labeled = set(frag.labels)
    if not is_eulerian_subset(frag, state.subset):
        raise ValueError("state subset is not Eulerian")
    if set(state.orientation) != set(state.subset):
        raise ValueError("orientation must cover exactly the subset edges")
    seen = defaultdict(list)
    for v, pairs in state.pairing.items():
        if v in labeled:
            if pairs:
                raise ValueError(f"labeled vertex {v} must not carry pairings")
            continue
        for hin, hout in pairs:
            for he in (hin, hout):
                e, side = he
                if e not in state.subset:
                    raise ValueError(f"paired half-edge {he} outside subset")
                if _vertex_of(g, he) != v:
                    raise ValueError(f"half-edge {he} paired at wrong vertex {v}")
            if not is_incoming(state, hin):
                raise ValueError(f"first half-edge of pair {(hin, hout)} not incoming")
            if is_incoming(state, hout):
                raise ValueError(f"second half-edge of pair {(hin, hout)} not outgoing")
            seen[v].append(hin)
            seen[v].append(hout)
    expected = defaultdict(list)
    for e in state.subset:
        a, b = g.edges[e]
        if a not in labeled:
            expected[a].append((e, 0))
        if b not in labeled:
            expected[b].append((e, 1))
    for v in set(expected) | set(seen):
        if sorted(expected[v]) != sorted(seen[v]):
            raise ValueError(f"pairing at vertex {v} does not partition its half-edges")


def decompose(state: EulerianState, frag) -> tuple[int, tuple]:
    """Count circuits and list the directed label-to-label trails.

    Returns (number of circuits, ((from_label, to_label), ...)) with labels
    1-based and trails in the order of their start labels; the trail arcs
    form the directed perfect matching induced on the labels touched by the
    subset.  Each trail is followed from its outgoing open end through the
    pairing; the pairs left over are then taken up circuit by circuit.
    """
    frag = as_fragment(frag)
    edges = frag.graph.edges
    label_no = {v: pos + 1 for pos, v in enumerate(frag.labels)}
    out_of = {hin: hout for pairs in state.pairing.values() for hin, hout in pairs}
    trails = []
    for pos in range(frag.t):
        h = frag.open_end(pos)
        if h[0] not in state.subset or is_incoming(state, h):
            continue  # off the subset, or a trail traced from its start label
        while True:
            e, side = h
            w = edges[e][1 - side]
            if w in label_no:
                break
            h = out_of.pop((e, 1 - side))
        trails.append((pos + 1, label_no[w]))
    circuits = 0
    while out_of:
        h = out_of.popitem()[1]
        while h is not None:  # until the walk is back at the popped pair
            h = out_of.pop((h[0], 1 - h[1]), None)
        circuits += 1
    return circuits, tuple(trails)


# -- gluing and unions ------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    """A glued graph plus provenance maps from the two fragments' edges.

    Each map sends an old edge id to ("edge", new id) or ("circle", index),
    where the index counts only the circles closed up through labels.
    """

    graph: MultiGraph
    edge_map1: dict
    edge_map2: dict


def glue_with_maps(f1: Fragment, f2: Fragment) -> GlueResult:
    """Glue equal labels of two t-fragments, tracking edge provenance.

    Labeled vertices disappear.  The two open ends that meet at each label
    join one class of open edges; a class with internal ends becomes one
    edge between them, and a class that closes up through labels alone
    becomes a circle.  Edges off the labels keep their order in front;
    classes are numbered, and an edge is oriented, from the first of their
    open edges in (fragment, edge) order that has an internal end.
    """
    f1, f2 = as_fragment(f1), as_fragment(f2)
    if f1.t != f2.t:
        raise ValueError(f"cannot glue fragments with t={f1.t} and t={f2.t}")
    frags = (f1, f2)

    vmap = [{}, {}]
    nxt = 0
    for fi, fr in enumerate(frags):
        lab = set(fr.labels)
        for v in range(fr.graph.n_vertices):
            if v not in lab:
                vmap[fi][v] = nxt
                nxt += 1

    new_edges = []
    emap = [{}, {}]
    parent = {}  # union-find over the open edges (fragment, edge)
    for fi, fr in enumerate(frags):
        for e, (a, b) in enumerate(fr.graph.edges):
            if a in vmap[fi] and b in vmap[fi]:
                emap[fi][e] = ("edge", len(new_edges))
                new_edges.append((vmap[fi][a], vmap[fi][b]))
            else:
                parent[fi, e] = (fi, e)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for pos in range(f1.t):
        parent[find((0, f1.open_end(pos)[0]))] = find((1, f2.open_end(pos)[0]))

    members = defaultdict(list)
    ends = {}  # class -> its internal ends, in order of its first open edge with one
    for fi, e in sorted(parent):
        root = find((fi, e))
        members[root].append((fi, e))
        for v in frags[fi].graph.edges[e]:
            if v in vmap[fi]:
                ends.setdefault(root, []).append(vmap[fi][v])
    for root, (a, b) in ends.items():
        for fi, e in members[root]:
            emap[fi][e] = ("edge", len(new_edges))
        new_edges.append((a, b))
    circles = [cls for root, cls in members.items() if root not in ends]
    for index, cls in enumerate(circles):
        for fi, e in cls:
            emap[fi][e] = ("circle", index)

    n_circles = f1.graph.n_circles + f2.graph.n_circles + len(circles)
    graph = MultiGraph(nxt, tuple(new_edges), n_circles)
    return GlueResult(graph, emap[0], emap[1])


def glue(f1: Fragment, f2: Fragment) -> MultiGraph:
    """The graph obtained by fusing equal-labeled open ends of two fragments."""
    return glue_with_maps(f1, f2).graph


def split(g: MultiGraph, side) -> tuple[Fragment, Fragment]:
    """The two fragments that :func:`glue` joins back into g, cut around ``side``.

    The first fragment holds the vertices of ``side``, the second the rest,
    each in ascending order.  Each edge between the two (a cut edge) is an
    open end of both, at the label numbered by its place among the cut
    edges in g's order.  A fragment keeps g's edges at its vertices in g's
    order, a cut edge ending at its label in place of its far end, and g's
    circles go to the first.  :func:`glue_with_maps` of the two is g with
    the vertices of ``side`` numbered first: each cut edge is the class of
    its two open edges, oriented from the first fragment's end, and every
    other edge is as it was.  With no cut edges the two are plain graphs.
    """
    inside = set(side)
    if not inside <= set(range(g.n_vertices)):
        raise ValueError("side holds a vertex outside the graph")
    cut = [e for e, (a, b) in enumerate(g.edges) if (a in inside) != (b in inside)]
    halves = []
    for first in (True, False):
        kept = [v for v in range(g.n_vertices) if (v in inside) == first]
        number = {v: i for i, v in enumerate(kept)}
        label = {e: len(kept) + i for i, e in enumerate(cut)}
        edges = [
            (number[a] if a in number else label[e], number[b] if b in number else label[e])
            for e, (a, b) in enumerate(g.edges)
            if a in number or b in number
        ]
        graph = MultiGraph(len(kept) + len(cut), tuple(edges), g.n_circles if first else 0)
        halves.append(Fragment(graph, tuple(label.values())))
    return halves[0], halves[1]


def components(g: MultiGraph) -> list[list[int]]:
    """The vertices of each connected component of g, ascending, the
    components ordered by their lowest vertex.  Circles are not vertices."""
    root = list(range(g.n_vertices))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    parts = {}
    for v in range(g.n_vertices):
        parts.setdefault(find(v), []).append(v)
    return list(parts.values())


def disjoint_union(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    shifted = tuple((a + g.n_vertices, b + g.n_vertices) for a, b in h.edges)
    return MultiGraph(
        g.n_vertices + h.n_vertices,
        g.edges + shifted,
        g.n_circles + h.n_circles,
    )


def build_G_pi(k: int, pi) -> MultiGraph:
    """Disjoint cycles C_{6c} over the cycle lengths c of a permutation of k+1.

    ``pi`` maps position to image, a 0-based tuple of range(k+1).
    """
    pi = tuple(int(x) for x in pi)
    n = k + 1
    if sorted(pi) != list(range(n)):
        raise ValueError(f"not a permutation of {n} elements: {pi}")
    seen = [False] * n
    graph = EMPTY_GRAPH
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = pi[x]
            length += 1
        graph = disjoint_union(graph, cycle_graph(6 * length))
    return graph


# -- text format --------------------------------------------------------------

#: the most vertices a block of the text format may declare
MAX_VERTICES = 10**6


def parse_fragments(text: str) -> list[Fragment]:
    """Parse the one-declaration-per-line graph format, '#' starting comments.

    Each block begins with ``vertices N`` and may contain ``edge u v``,
    ``circle`` and ``label v`` lines; a new ``vertices`` line starts the next
    block.  Parsing is strict: unknown keywords, out-of-range ids, labels of
    degree != 1, circles declared inside fragments and blocks of more than
    :data:`MAX_VERTICES` vertices are all errors.
    """
    blocks = []
    current = None

    def close(lineno):
        if current is None:
            return
        n, edges, circles, labels = current
        graph = MultiGraph(n, tuple(edges), circles)
        if labels and circles:
            raise ValueError(
                f"line {lineno}: fragments may not declare circle components"
            )
        try:
            blocks.append(Fragment(graph, tuple(labels)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, args = parts[0], parts[1:]
        if kw == "vertices":
            close(lineno)
            if len(args) != 1 or not args[0].isdecimal():
                raise ValueError(f"line {lineno}: expected 'vertices N'")
            # count digits first, so that a huge count is never converted
            if len(args[0].lstrip("0")) > len(str(MAX_VERTICES)) or int(args[0]) > MAX_VERTICES:
                raise ValueError(f"line {lineno}: more than {MAX_VERTICES} vertices")
            current = [int(args[0]), [], 0, []]
            continue
        if current is None:
            raise ValueError(f"line {lineno}: '{kw}' before any 'vertices' line")
        n = current[0]
        if kw == "edge":
            if len(args) != 2:
                raise ValueError(f"line {lineno}: expected 'edge u v'")
            try:
                u, v = int(args[0]), int(args[1])
            except ValueError:
                raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"line {lineno}: edge endpoint out of range 0..{n - 1}")
            current[1].append((u, v))
        elif kw == "circle":
            if args:
                raise ValueError(f"line {lineno}: 'circle' takes no arguments")
            current[2] += 1
        elif kw == "label":
            if len(args) != 1:
                raise ValueError(f"line {lineno}: expected 'label v'")
            try:
                v = int(args[0])
            except ValueError:
                raise ValueError(f"line {lineno}: label vertex must be an integer") from None
            if not 0 <= v < n:
                raise ValueError(f"line {lineno}: label vertex out of range 0..{n - 1}")
            current[3].append(v)
        else:
            raise ValueError(f"line {lineno}: unknown keyword '{kw}'")
    close("end")
    return blocks


def parse_graph(text: str) -> MultiGraph:
    """Parse a file holding exactly one unlabeled graph block."""
    blocks = parse_fragments(text)
    if len(blocks) != 1:
        raise ValueError(f"expected exactly one graph block, found {len(blocks)}")
    frag = blocks[0]
    if frag.t:
        raise ValueError("expected a plain graph, found a fragment with labels")
    return frag.graph


def format_fragment(frag) -> str:
    """Render a graph or fragment in the text format."""
    frag = as_fragment(frag)
    lines = [f"vertices {frag.graph.n_vertices}"]
    lines += [f"edge {a} {b}" for a, b in frag.graph.edges]
    lines += ["circle"] * frag.graph.n_circles
    lines += [f"label {v}" for v in frag.labels]
    return "\n".join(lines) + "\n"
