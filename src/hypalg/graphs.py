"""Labeled r-uniform hypergraphs on vertex sets {0, ..., n-1}.

A `Graph` is an immutable value: uniformity `r`, vertex count `n`, a label
per vertex, and a set of r-element edges. Vertices are always the integers
0..n-1, so a graph on k vertices induced by an injection is again a plain
`Graph` and two graphs compare equal iff they are equal as labeled edge
sets on the same vertex count.

`canonical` picks a deterministic representative of each isomorphism class
(and counts automorphisms as a byproduct); `is_isomorphic` answers the
same question pairwise without fixing a representative. The canonical
search tree is small on sparse graphs: with positions partitioned by
(label, degree) and present edges preferred, `canonical(cycle_graph(18))`
takes 3 ms (36 s with a label-only partition and absent edges first) and a
path on 11 vertices 0.1 ms (2-vCPU Xeon, Python 3.11). A cache miss first
relabels its graph in (label, degree) order and looks that graph up, so
the search runs once per relabelled graph: one round of the `reports`
benchmark (seed 1) makes 28,262 calls, 9,183 misses and 747 searches. But
the search visits one leaf per automorphism, so
`canonical(complete_bipartite(5, 5))` (|Aut| = 28,800) takes about 0.2 s
where the pairwise search takes under 1 ms. That is why `is_isomorphic`
does not compare canonical forms. The pairwise search is `_maps`, the one
vertex-map search, which also serves the algebra and the densities; it
filters host vertices as bit masks.

The text format is a single line::

    graph{r=2;n=4;l=;e=(0 1)(0 3)(1 2)(2 3)}

with `l=` empty meaning all labels zero, and the edge list strictly
increasing within each edge and lexicographically sorted overall. The
printer always emits this normal form and the parser accepts nothing else,
so round-trips are bit-exact.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InputError

__all__ = [
    "Graph",
    "Injection",
    "automorphism_count",
    "canonical",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "contains",
    "cycle_graph",
    "empty_graph",
    "graph_from_text",
    "graph_to_text",
    "induced_subgraph",
    "is_isomorphic",
    "path_graph",
    "single_vertex",
]


def _ints(values, what: str, least: int = None) -> tuple[int, ...]:
    """The values as a tuple of ints, each at least `least` when given;
    anything else raises `InputError` naming `what`."""
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{what} must be ints, got {values!r}") from None
    if least is not None:
        for v in out:
            if v < least:
                raise InputError(f"{what} must be >= {least}, got {v}")
    return out


@dataclass(frozen=True)
class Graph:
    """An r-uniform hypergraph with integer-labeled vertices 0..n-1.

    `labels` may be passed as None for all-zero. The constructor takes only
    ints for `r`, `n`, labels and vertices, and brings the edges to normal
    form: sorted within each edge, deduplicated, and sorted lexicographically,
    so structurally equal graphs are equal values. `Graph._trusted` builds a
    value already in that form without checks. The hash is cached.
    """

    r: int
    n: int
    labels: tuple[int, ...] = None  # type: ignore[assignment]
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        r, n = _ints((self.r, self.n), "uniformity and vertex count")
        if r < 1:
            raise InputError(f"uniformity must be >= 1, got {r}")
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        labels = (0,) * n if self.labels is None else _ints(self.labels, "labels")
        if len(labels) != n:
            raise InputError(f"expected {n} labels, got {len(labels)}")
        seen = set()
        norm = []
        for edge in self.edges:
            e = tuple(sorted(_ints(edge, "edge vertices")))
            if len(e) != r:
                raise InputError(
                    f"edge {tuple(edge)} has {len(e)} vertices, expected r={r}"
                )
            if len(set(e)) != r:
                raise InputError(f"edge {tuple(edge)} repeats a vertex")
            if e[0] < 0 or e[-1] >= n:
                raise InputError(f"edge {e} is not within vertex range 0..{n - 1}")
            if e not in seen:
                seen.add(e)
                norm.append(e)
        norm.sort()
        self.__dict__.update(r=r, n=n, labels=labels, edges=tuple(norm))

    @classmethod
    def _trusted(cls, r: int, n: int, labels: tuple, edges: tuple) -> "Graph":
        """Internal, unchecked: `labels` is a tuple of n ints and `edges` is in
        normal form (increasing int tuples in 0..n-1, sorted, no repeats)."""
        g = object.__new__(cls)
        g.__dict__.update(r=r, n=n, labels=labels, edges=edges)
        return g

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.r, self.n, self.labels, self.edges))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)

    @property
    def e(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def has_edge(self, edge) -> bool:
        return tuple(sorted(_ints(edge, "edge vertices"))) in self.edge_set

    def relabel_vertices(self, perm: tuple[int, ...]) -> "Graph":
        """Apply a vertex bijection: vertex i of self becomes perm[i]."""
        perm = _ints(perm, "relabeling")
        if sorted(perm) != list(range(self.n)):
            raise InputError("relabeling must be a permutation of 0..n-1")
        labels = [0] * self.n
        for i, lab in enumerate(self.labels):
            labels[perm[i]] = lab
        edges = [tuple(perm[v] for v in e) for e in self.edges]
        return Graph(self.r, self.n, tuple(labels), tuple(edges))

    def __repr__(self) -> str:
        return graph_to_text(self)


@dataclass(frozen=True)
class Injection:
    """An injective map {0..source_n-1} -> {0..target_n-1}, as its image tuple."""

    source_n: int
    target_n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        source_n, target_n = _ints(
            (self.source_n, self.target_n), "source and target sizes", 0
        )
        image = _ints(self.image, "image")
        if len(image) != source_n:
            raise InputError(f"image has {len(image)} entries, expected {source_n}")
        if len(set(image)) != len(image):
            raise InputError("map is not injective")
        if any(x < 0 or x >= target_n for x in image):
            raise InputError(
                f"image {image} not within target range 0..{target_n - 1}"
            )
        object.__setattr__(self, "source_n", source_n)
        object.__setattr__(self, "target_n", target_n)
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> "Injection":
        (n,) = _ints((n,), "size", 0)
        return cls(n, n, tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, inner: "Injection") -> "Injection":
        """self after inner: first apply `inner`, then `self`."""
        if inner.target_n != self.source_n:
            raise InputError(
                f"cannot compose: inner target {inner.target_n} != outer source {self.source_n}"
            )
        return Injection(
            inner.source_n, self.target_n, tuple(self.image[i] for i in inner.image)
        )


# ---------------------------------------------------------------------------
# basic operations


def _moved(pos: tuple, edges) -> list:
    """Each r-set in `edges` moved by the vertex map `pos`, sorted."""
    return [tuple(sorted(pos[v] for v in e)) for e in edges]


def induced_subgraph(g: Graph, alpha: Injection) -> Graph:
    """The graph alpha pulls back from g: vertex i gets g's data at alpha(i).

    An r-set of the source is an edge iff its image is an edge of g.
    """
    if alpha.target_n != g.n:
        raise InputError(
            f"injection targets {alpha.target_n} vertices, graph has {g.n}"
        )
    k = alpha.source_n
    labels = tuple(g.labels[alpha(i)] for i in range(k))
    edges = [
        e
        for e in combinations(range(k), g.r)
        if tuple(sorted(alpha(v) for v in e)) in g.edge_set
    ]
    return Graph._trusted(g.r, k, labels, tuple(edges))


def contains(g: Graph, f: Graph) -> bool:
    """Spanning containment: same vertices and labels, every edge of f in g."""
    return (
        g.r == f.r
        and g.n == f.n
        and g.labels == f.labels
        and f.edge_set <= g.edge_set
    )


def complement(g: Graph) -> Graph:
    edges = tuple(
        e for e in combinations(range(g.n), g.r) if e not in g.edge_set
    )
    return Graph(g.r, g.n, g.labels, edges)


# ---------------------------------------------------------------------------
# canonical representatives


_CANON_CACHE: dict[Graph, tuple[Graph, int]] = {}


def canonical(g: Graph) -> tuple[Graph, int]:
    """Canonical representative of g's isomorphism class, and |Aut(g)|.

    New vertex i may be any old vertex with the i-th least (label, degree)
    pair, so the representative's labels are sorted. Among those
    relabelings the representative maximizes one edge segment per new
    vertex i = 0..n-1, compared lexicographically. Segment i lists, for each
    (r-1)-subset of the new vertices below i in lexicographic order, whether
    that subset together with i is an edge, with present > absent. Labels
    and degrees are isomorphism invariants, so isomorphic graphs map to the
    identical `Graph` value. The automorphism count falls out of the same
    search: it is the number of relabelings attaining the maximum.

    On a cache miss, g is first relabelled in (label, degree) order, ties
    broken by vertex number, and that graph is looked up; the search runs
    only when it misses too. Many graphs share one such relabelling (in
    the `reports` benchmark, about twelve misses per search), and both
    results are class functions, so one search serves them all. The
    result is cached under g, the relabelled graph and the representative.
    """
    hit = _CANON_CACHE.get(g)
    if hit is not None:
        return hit

    n, r = g.n, g.r
    if n <= 1 or len(g.edges) == 0:
        rep = Graph._trusted(r, n, tuple(sorted(g.labels)), g.edges)
        aut = math.prod(math.factorial(g.labels.count(lab)) for lab in set(g.labels))
        result = (rep, aut)
        _CANON_CACHE[g] = _CANON_CACHE[rep] = result
        return result

    degree = [0] * n  # not g.degrees: argument graphs need not keep it
    for e in g.edges:
        for v in e:
            degree[v] += 1
    order = sorted(range(n), key=lambda v: (g.labels[v], degree[v]))
    new = [0] * n  # old vertex -> position in the relabelled graph
    for i, v in enumerate(order):
        new[v] = i
    h = Graph._trusted(
        r, n, tuple(g.labels[v] for v in order), tuple(sorted(_moved(new, g.edges)))
    )
    result = _CANON_CACHE.get(h)
    if result is None:
        result = _CANON_CACHE[h] = _search(h)
    _CANON_CACHE[g] = result
    return result


def _search(h: Graph) -> tuple[Graph, int]:
    """The canonical search on h, a graph with an edge whose vertices are
    in (label, degree) order; caches the result under the representative."""
    n, r = h.n, h.r
    # Segments are integers. An edge whose other r-1 vertices sit at new
    # positions c_0 < ... < c_{r-2} sets bit sum_t C(n-1-c_t, r-1-t), the
    # colex rank of the mirrored positions n-1-c. That rank falls as the
    # positions rise lexicographically, so among the candidates for one
    # position, integer order is segment order (the lexicographically first
    # (r-1)-set is the most significant bit). seg[v] is old vertex v's
    # segment against the placed vertices. Positions are placed in
    # increasing order, so each edge accumulates its bit index as its
    # vertices are placed; placing the (r-1)-th one sets the bit in the
    # segment of the last, whose id is then the edge's `free` sum.
    k = r - 1
    binom = [[math.comb(a, j) for j in range(r)] for a in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]  # vertex -> edge ids
    seg = [0] * n
    for ei, e in enumerate(h.edges):
        for v in e:
            incident[v].append(ei)
        if k == 0:  # r = 1: the edge alone is the segment
            seg[e[0]] = 1
    # old vertices usable at each new position: h's (label, degree) cells
    # are runs of consecutive vertices
    key = [(h.labels[v], len(incident[v])) for v in range(n)]
    slots = [range(bisect_left(key, c), bisect_right(key, c)) for c in key]
    placed = [0] * len(h.edges)  # placed vertices per edge
    index = [0] * len(h.edges)  # bit index of those vertices' positions
    free = [sum(e) for e in h.edges]  # sum of unplaced vertices per edge
    pos = [-1] * n  # old vertex -> new position, -1 while unplaced
    perm = [0] * n  # new position -> old vertex
    best = [-1] * n
    best_perm = [0] * n
    count = 0

    def dfs(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            best_perm[:] = perm
            return
        # only candidates with the greatest segment can reach the maximum;
        # each of them may, so all are searched
        cands = [v for v in slots[i] if pos[v] < 0]
        high = max([seg[v] for v in cands])
        ref = best[i]
        if ref < 0:
            best[i] = high
        elif high < ref:
            return
        elif high > ref:
            best[i] = high
            best[i + 1 :] = [-1] * (n - 1 - i)
            count = 0
        rank = binom[n - 1 - i]
        for v in cands:
            if seg[v] != high:
                continue
            pos[v] = i
            perm[i] = v
            for ei in incident[v]:
                t = placed[ei]
                placed[ei] = t + 1
                free[ei] -= v
                if t < k:
                    index[ei] += rank[k - t]
                    if t + 1 == k:
                        seg[free[ei]] += 1 << index[ei]
            dfs(i + 1)
            for ei in incident[v]:
                t = placed[ei] - 1
                placed[ei] = t
                if t < k:
                    if t + 1 == k:
                        seg[free[ei]] -= 1 << index[ei]
                    index[ei] -= rank[k - t]
                free[ei] += v
            pos[v] = -1

    dfs(0)
    new = [0] * n  # old vertex -> new position in the representative
    for i, old in enumerate(best_perm):
        new[old] = i
    rep = Graph._trusted(r, n, h.labels, tuple(sorted(_moved(new, h.edges))))
    result = (rep, count)
    _CANON_CACHE[rep] = result
    return result


# ---------------------------------------------------------------------------
# vertex maps: one search for isomorphism and the density counts


def _greedy_order(g: Graph) -> list[int]:
    """Visit vertices so each new one closes the most edges with the visited
    set, then has the highest degree; ties go to the least vertex."""
    order: list[int] = []
    placed: set[int] = set()
    for _ in range(g.n):
        v = max(
            (v for v in range(g.n) if v not in placed),
            key=lambda v: (
                sum(1 for e in g.edges
                    if v in e and all(u in placed or u == v for u in e)),
                g.degrees[v],
            ),
        )
        order.append(v)
        placed.add(v)
    return order


def _maps(g: Graph, h: Graph, induced: bool = True, injective: bool = True):
    """Images of the label-preserving maps [g.n] -> V(h) that send every
    edge of g injectively onto an edge of h, each as a tuple indexed by g's
    vertices, in no promised order.

    With `induced`, every other r-set of g must go to a non-edge or onto
    fewer than r vertices; with `injective`, the map is one-to-one. The
    vertices of g are placed in `_greedy_order`. Host vertices are bits,
    and a vertex's candidates are its label's mask, minus the used mask
    when `injective`, ANDed with the link mask (the completions to an edge
    of h) of the images of each r-set it closes, or with its complement for
    a non-edge. Repeated images have no link and no link holds its own
    vertices, so an r-set mapped onto fewer than r vertices is a non-edge.
    """
    link: dict[tuple[int, ...], int] = {}  # (r-1)-set -> completions
    for e in h.edges:
        for i, v in enumerate(e):
            rest = e[:i] + e[i + 1 :]
            link[rest] = link.get(rest, 0) | 1 << v
    of_label: dict[int, int] = {}
    for w, lab in enumerate(h.labels):
        of_label[lab] = of_label.get(lab, 0) | 1 << w
    order = _greedy_order(g)
    # per position: the vertex, its label's mask, and the r-sets it closes
    # as (the other r-1 vertices, whether an edge of g)
    steps = []
    for p, u in enumerate(order):
        closed = []
        for rest in combinations(order[:p], g.r - 1):
            is_edge = tuple(sorted(rest + (u,))) in g.edge_set
            if is_edge or induced:
                closed.append((rest, is_edge))
        steps.append((u, of_label.get(g.labels[u], 0), closed))
    img = [0] * g.n

    def place(p: int, used: int):
        if p == g.n:
            yield tuple(img)
            return
        u, cands, closed = steps[p]
        if injective:
            cands &= ~used
        for rest, is_edge in closed:
            m = link.get(tuple(sorted([img[x] for x in rest])), 0)
            cands &= m if is_edge else ~m
        while cands:
            bit = cands & -cands
            cands ^= bit
            img[u] = bit.bit_length() - 1
            yield from place(p + 1, used | bit)

    return place(0, 0)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some label-preserving vertex bijection maps the edges of g
    onto those of h. Graphs of different uniformity or with different
    sorted (degree, label) pairs are told apart without a search; otherwise
    `_maps` looks for one induced injection."""
    return (
        g.r == h.r
        and sorted(zip(g.degrees, g.labels)) == sorted(zip(h.degrees, h.labels))
        and next(_maps(g, h), None) is not None
    )


def automorphism_count(g: Graph) -> int:
    return canonical(g)[1]


# ---------------------------------------------------------------------------
# catalog


def empty_graph(r: int, n: int, labels=None) -> Graph:
    return Graph(r, n, labels, ())


def single_vertex(r: int = 2, label: int = 0) -> Graph:
    return Graph(r, 1, (label,), ())


def complete_graph(r: int, n: int) -> Graph:
    r, n = _ints((r, n), "uniformity and vertex count")
    return Graph(r, n, None, tuple(combinations(range(n), r)))


def cycle_graph(k: int) -> Graph:
    """The 2-uniform cycle C_k, k >= 3."""
    (k,) = _ints((k,), "cycle length")
    if k < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {k}")
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return Graph(2, k, None, tuple(edges))


def path_graph(k: int) -> Graph:
    """The 2-uniform path with k edges (k+1 vertices)."""
    (k,) = _ints((k,), "edge count", 0)
    return Graph(2, k + 1, None, tuple((i, i + 1) for i in range(k)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts {0..a-1} and {a..a+b-1}."""
    a, b = _ints((a, b), "part sizes", 0)
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(2, a + b, None, edges)


# ---------------------------------------------------------------------------
# text format

_GRAPH_RE = re.compile(
    r"^graph\{r=(\d+);n=(\d+);l=([^;{}]*);e=((?:\([^()]*\))*)\}$"
)
_EDGE_RE = re.compile(r"\(([^()]*)\)")


def graph_to_text(g: Graph) -> str:
    if all(lab == 0 for lab in g.labels):
        lpart = ""
    else:
        lpart = ",".join(str(lab) for lab in g.labels)
    epart = "".join("(" + " ".join(str(v) for v in e) + ")" for e in g.edges)
    return f"graph{{r={g.r};n={g.n};l={lpart};e={epart}}}"


def graph_from_text(text: str) -> Graph:
    m = _GRAPH_RE.match(text.strip())
    if m is None:
        raise InputError(f"not a graph literal: {text!r}")
    r, n = int(m.group(1)), int(m.group(2))
    lpart, epart = m.group(3), m.group(4)
    if lpart == "":
        labels = None
    else:
        try:
            labels = tuple(int(x) for x in lpart.split(","))
        except ValueError:
            raise InputError(f"bad label list {lpart!r}") from None
    edges = []
    for em in _EDGE_RE.finditer(epart):  # _GRAPH_RE admits only (...) groups
        parts = em.group(1).split()
        try:
            e = tuple(int(x) for x in parts)
        except ValueError:
            raise InputError(f"bad edge {em.group(0)!r}") from None
        if list(e) != sorted(set(e)):
            raise InputError(f"edge {e} must be strictly increasing")
        edges.append(e)
    if edges != sorted(edges) or len(set(edges)) != len(edges):
        raise InputError("edge list must be lexicographically sorted, no repeats")
    return Graph(r, n, labels, tuple(edges))
