"""Labeled r-uniform hypergraphs on vertex sets {0, ..., n-1}.

A `Graph` is an immutable value: uniformity `r`, vertex count `n`, a label
per vertex, and a set of r-element edges. Vertices are always the integers
0..n-1, so a relabelled graph is again a plain `Graph` and two graphs
compare equal iff they are equal as labeled edge sets on the same vertex
count.

`canonical` picks a deterministic representative of each isomorphism class
(and counts automorphisms as a byproduct); `is_isomorphic` answers the
same question pairwise without fixing a representative. The canonical
search tree is small on sparse graphs: with positions partitioned by
(label, degree) and present edges preferred, `canonical(cycle_graph(18))`
takes 3 ms (36 s with a label-only partition and absent edges first) and a
path on 11 vertices 0.1 ms (2-vCPU Xeon, Python 3.11). Isolated vertices
keep their places, and each class of twins is placed in one order, so
one edge on 10 vertices takes 0.05 ms, not 0.34 s, and
`canonical(complete_bipartite(5, 5))` (|Aut| = 28,800) 0.3 ms, not 0.13 s.
But the search still visits one leaf per coset of the twin group: a cycle
has no twins, so C200 (|Aut| = 400) takes about 1 s where the pairwise
search takes milliseconds. That is why `is_isomorphic` does not compare
canonical forms. The pairwise search is `_last_masks`, the one vertex-map
search, which also serves the algebra (through `_maps`) and the densities.
It keeps host vertices and (r-1)-sets as bit masks, yields the mask of the
last pattern vertex's images, and checks every r-set of the pattern for an
induced map, else only its edges, enough for `is_isomorphic`.

The text format is a single line::

    graph{r=2;n=4;l=;e=(0 1)(0 3)(1 2)(2 3)}

Integers are ASCII digits with no leading zeros (`0`, `7`, `12`); only a
label takes a leading `-`. `l=` lists the labels, comma-separated, and is
empty when all are zero; `e=` is a run of `(a b c)` groups, one space
between vertices and nothing between groups. A literal is accepted
exactly when `graph_to_text` prints it back character for character, so
edges increase within each edge and are sorted without repeats, nothing
surrounds the literal, and round-trips are bit-exact.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .errors import InputError

__all__ = [
    "Graph",
    "canonical",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "graph_from_text",
    "graph_to_text",
    "is_isomorphic",
    "path_graph",
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
    value already in that form without checks. Both set the hash, that of
    (r, n, labels, edges), as a plain attribute when the value is built:
    nearly every graph is hashed, most of them into the canonical cache,
    and up to Python 3.11 a first read of a `cached_property` takes a lock.
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
        edges = tuple(norm)
        self.__dict__.update(
            r=r, n=n, labels=labels, edges=edges, _hash=hash((r, n, labels, edges))
        )

    @classmethod
    def _trusted(cls, r: int, n: int, labels: tuple, edges: tuple) -> "Graph":
        """Internal, unchecked: `labels` is a tuple of n ints and `edges` is in
        normal form (increasing int tuples in 0..n-1, sorted, no repeats)."""
        g = object.__new__(cls)
        g.__dict__.update(
            r=r, n=n, labels=labels, edges=edges, _hash=hash((r, n, labels, edges))
        )
        return g

    def __hash__(self) -> int:
        return self._hash

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


# ---------------------------------------------------------------------------
# basic operations


def _moved(pos: tuple, edges) -> list:
    """Each r-set in `edges` moved by the vertex map `pos`, sorted."""
    return [tuple(sorted(map(pos.__getitem__, e))) for e in edges]


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
    search: it is the number of relabelings attaining the maximum. An
    isolated vertex's segment is all absent anywhere, so it keeps its
    place, and a (label, 0) cell of k of them multiplies the count by k!.

    Twins count the same way. Call u and v twins when the transposition
    (u v) is an automorphism. That is an equivalence, since (u w) = (u v)
    (v w) (u v), and its classes generate the twin group T, the product of
    the classes' symmetric groups; T is normal in Aut, as a conjugate of a
    twin swap is one. Two unplaced twins have equal segments, so the
    search places the members of each class in increasing vertex order:
    it keeps the same maximum and exactly one maximal relabeling per coset
    of T, and |Aut| is |T| times the leaves reached, times the factor of
    the isolated vertices.

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
    degree = [0] * n  # not g.degrees: argument graphs need not keep it
    for e in g.edges:
        for v in e:
            degree[v] += 1
    key = list(zip(g.labels, degree))
    order = sorted(range(n), key=key.__getitem__)
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
    """The canonical search on h, a graph whose vertices are in (label,
    degree) order; caches the result under the representative."""
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
    # segment of the last, whose id is then the edge's `free` sum. For
    # r = 1 every segment stays 0: a vertex lies in its one-vertex edge when
    # its degree is 1, which its (label, degree) cell already fixes.
    k = r - 1
    binom = [[math.comb(a, j) for j in range(r)] for a in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]  # vertex -> edge ids
    seg = [0] * n
    for ei, e in enumerate(h.edges):
        for v in e:
            incident[v].append(ei)
    # old vertices usable at each new position: h's (label, degree) cells
    # are runs of consecutive vertices; isolated ones keep their places
    key = [(h.labels[v], len(incident[v])) for v in range(n)]
    slots = [range(bisect_left(key, c), bisect_right(key, c)) for c in key]
    todo = [i for i in range(n) if key[i][1]]  # the positions searched
    isolated = math.prod(math.factorial(key.count(c)) for c in set(key) if not c[1])
    # each twin class is placed in increasing vertex order: prev[v] is the
    # member before v, or n, whose pos is 0 (always placed); tied marks the
    # positions of cells that hold twins, the only ones that test prev
    prev = [n] * n
    tied = [False] * n
    twins = 1
    for c in _twin_classes(h, incident, slots):
        twins *= math.factorial(len(c))
        for a, b in zip(c, c[1:]):
            prev[b] = a
        for i in slots[c[0]]:
            tied[i] = True
    placed = [0] * len(h.edges)  # placed vertices per edge
    index = [0] * len(h.edges)  # bit index of those vertices' positions
    free = [sum(e) for e in h.edges]  # sum of unplaced vertices per edge
    pos = [-1] * n + [0]  # old vertex -> new position, -1 while unplaced
    perm = list(range(n))  # new position -> old vertex
    best = [-1] * len(todo)
    best_perm = perm[:]
    # depth first on an explicit stack: per depth, the candidates not yet
    # tried, last first, and None until the depth is entered; perm[i] is the
    # vertex last placed at position i, still placed when its depth resumes
    steps = [(i, binom[n - 1 - i]) for i in todo]
    last = len(todo) - 1
    left: list = [None] * len(todo)
    d, count = (0, 0) if todo else (-1, 1)  # no positions: one leaf
    while d >= 0:
        i, rank = steps[d]
        cands = left[d]
        if cands is None:
            # only candidates with the greatest segment can reach the maximum,
            # none if it is below the best seen here; each of them may
            if tied[i]:
                cands = [v for v in slots[i] if pos[v] < 0 <= pos[prev[v]]]
            else:
                cands = [v for v in slots[i] if pos[v] < 0]
            high = max([seg[v] for v in cands])
            if high > best[d]:
                best[d] = high
                best[d + 1 :] = [-1] * (last - d)
                count = 0
            elif high < best[d]:
                cands = []
            cands = [v for v in cands if seg[v] == high]
            if d == last and cands:
                # each candidate ends a leaf; placed in turn, the last one
                # would be in perm at the last leaf
                count += len(cands)
                perm[i] = cands[-1]
                best_perm[:] = perm
                cands = []
            cands = left[d] = cands[::-1]
        else:
            v = perm[i]
            for ei in incident[v]:
                t = placed[ei] - 1
                placed[ei] = t
                if t < k:
                    if t + 1 == k:
                        seg[free[ei]] -= 1 << index[ei]
                    index[ei] -= rank[k - t]
                free[ei] += v
            pos[v] = -1
        if not cands:
            left[d] = None
            d -= 1
            continue
        v = cands.pop()
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
        d += 1

    new = [0] * n  # old vertex -> new position in the representative
    for i, old in enumerate(best_perm):
        new[old] = i
    rep = Graph._trusted(r, n, h.labels, tuple(sorted(_moved(new, h.edges))))
    result = (rep, count * twins * isolated)
    _CANON_CACHE[rep] = result
    return result


def _twin_classes(h: Graph, incident: list, slots: list) -> list[list[int]]:
    """The classes of two or more twins among h's non-isolated vertices,
    each in increasing order; `incident` and `slots` are `_search`'s.

    Twins u, v (the transposition (u v) is an automorphism) share a (label,
    degree) cell. If they share an edge, their closed neighbourhoods (the
    vertices of their edges) are equal; if not, their open ones are. No
    closed neighbourhood is an open one, as a vertex lies in its own closed
    one and in the open one of each vertex it shares an edge with, so one
    dictionary buckets both, and only vertices in one bucket are compared,
    by the link test itself: the edges of u without v, with u replaced by
    v, are the edges of v without u. Twinhood is an equivalence, so each
    vertex is compared with the first member of each class found so far.
    For r = 2 each bucket is one class.
    """
    edges = h.edges
    buckets: dict = {}
    for v, s in enumerate(slots):
        if incident[v] and len(s) > 1:
            near = 0  # the closed neighbourhood's vertex bits
            for ei in incident[v]:
                for w in edges[ei]:
                    near |= 1 << w
            buckets.setdefault((s.start, near), []).append(v)
            buckets.setdefault((s.start, near ^ 1 << v), []).append(v)

    def rest(u: int, v: int) -> set:
        return {frozenset(edges[ei]) - {u} for ei in incident[u] if v not in edges[ei]}

    classes = []
    for members in buckets.values():
        if len(members) > 1:
            split: list[list[int]] = []
            for v in members:
                for c in split:
                    if rest(c[0], v) == rest(v, c[0]):
                        c.append(v)
                        break
                else:
                    split.append([v])
            classes += [c for c in split if len(c) > 1]
    return classes


# ---------------------------------------------------------------------------
# vertex maps: one search for isomorphism and the density counts


def _greedy_order(g: Graph) -> list[int]:
    """Visit vertices so each new one closes the most edges with the visited
    set, then has the highest degree; ties go to the least vertex."""
    incident: list[list[int]] = [[] for _ in range(g.n)]  # vertex -> edge ids
    for ei, e in enumerate(g.edges):
        for v in e:
            incident[v].append(ei)
    # closed[v]: edges of v whose other vertices are all placed, which for
    # r = 1 is every edge of v from the start
    closed = [len(inc) if g.r == 1 else 0 for inc in incident]
    waiting = [g.r] * len(g.edges)  # unplaced vertices per edge
    free = [sum(e) for e in g.edges]  # sum of unplaced vertices per edge
    rest = list(range(g.n))
    order: list[int] = []
    for _ in range(g.n):
        v = max(rest, key=lambda v: (closed[v], len(incident[v])))
        rest.remove(v)
        order.append(v)
        for ei in incident[v]:
            waiting[ei] -= 1
            free[ei] -= v
            if waiting[ei] == 1:
                closed[free[ei]] += 1
    return order


def _last_masks(
    g: Graph, h: Graph, induced: bool = True, injective: bool = True, img=None
):
    """The one vertex-map search, for the label-preserving maps [g.n] -> V(h)
    that send every edge of g injectively onto an edge of h. With `induced`,
    every other r-set of g must go to a non-edge or onto fewer than r
    vertices; with `injective`, the map is one-to-one.

    The vertices of g are placed in `_greedy_order`. For each placement of
    all but the last that leaves the last some image, the search yields the
    mask of those images, and `img` (made when not given) then holds each
    vertex's image bit, the mask at the last vertex. So the maps pick one
    bit per entry, and the masks' bit counts sum to their number. Without
    vertices, g has one map, the empty one, and the mask 1 is yielded.

    Host vertices are bits, and an (r-1)-set's link, the mask of its
    completions to an edge of h, is keyed by the OR of its bits. A vertex's
    candidates are its label's mask, minus the used mask when `injective`,
    ANDed with the link of the OR of the images of each r-set it closes, or
    with its complement for a non-edge: every r-set of g with `induced`,
    else only g's edges. Repeated images OR to fewer bits and have no link,
    and no link holds its own vertices, so an r-set mapped onto fewer than r
    vertices is a non-edge.
    """
    link: dict[int, int] = {}  # bits of an (r-1)-set -> its completions
    for e in h.edges:
        bits = 0
        for v in e:
            bits |= 1 << v
        for v in e:
            rest = bits ^ 1 << v
            link[rest] = link.get(rest, 0) | 1 << v
    of_label: dict[int, int] = {}
    for w, lab in enumerate(h.labels):
        of_label[lab] = of_label.get(lab, 0) | 1 << w
    order = _greedy_order(g)
    at = {u: p for p, u in enumerate(order)}  # vertex -> position
    # per position: the other r-1 vertices of each r-set its vertex closes,
    # and whether that r-set must be an edge
    closes = [[] for _ in order]
    for s in combinations(range(g.n), g.r) if induced else g.edges:
        last = max(s, key=at.get)
        closes[at[last]].append(([v for v in s if v != last], s in g.edge_set))
    label_mask = [of_label.get(g.labels[u], 0) for u in order]
    if img is None:
        img = [0] * g.n

    def candidates(p: int, used: int) -> int:
        cands = label_mask[p] & ~used if injective else label_mask[p]
        for rest, is_edge in closes[p]:
            bits = 0
            for x in rest:
                bits |= img[x]
            m = link.get(bits, 0)
            cands &= m if is_edge else ~m
        return cands

    if not g.n:
        yield 1
        return
    # depth first, lowest candidate bit first, on an explicit stack: per
    # position up to the one before the last, the candidates not yet tried
    # and the used mask of the positions before it
    last = g.n - 1
    end = order[last]
    if not last:
        img[end] = candidates(0, 0)
        if img[end]:
            yield img[end]
        return
    left = [candidates(0, 0)] + [0] * (last - 1)
    used = [0] * last
    p = 0
    while p >= 0:
        cands = left[p]
        if not cands:
            p -= 1
            continue
        bit = cands & -cands
        left[p] = cands ^ bit
        img[order[p]] = bit
        now = used[p] | bit
        if p + 1 < last:
            p += 1
            used[p] = now
            left[p] = candidates(p, now)
            continue
        mask = candidates(last, now)
        if mask:
            img[end] = mask
            yield mask


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _maps(g: Graph, h: Graph, induced: bool = True, injective: bool = True):
    """The maps that `_last_masks` finds, its links keyed by masks, each as
    the tuple of its images indexed by g's vertices, in no promised order:
    per mask yielded, every pick of one bit per entry of the image list."""
    img = [0] * g.n
    for _ in _last_masks(g, h, induced, injective, img):
        yield from product(*map(_bits, img))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some label-preserving vertex bijection maps the edges of g
    onto those of h. Graphs of different uniformity or with different
    sorted (degree, label) pairs are told apart without a search; otherwise
    `_last_masks`, its links keyed by masks, looks for one injective map
    sending edges to edges, which is there when it yields any mask. Equal
    pairs mean equal vertex and edge counts (degree sum over r), so such a
    map is a bijection taking g's edges onto h's: non-edges need no check."""
    return (
        g.r == h.r
        and sorted(zip(g.degrees, g.labels)) == sorted(zip(h.degrees, h.labels))
        and any(_last_masks(g, h, induced=False))
    )


# ---------------------------------------------------------------------------
# catalog


def empty_graph(r: int, n: int, labels=None) -> Graph:
    return Graph(r, n, labels, ())


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

# ASCII integers without leading zeros, and runs of `(a b c)` groups of
# them: the grammar pieces shared by the graph, combination, functor and
# scheme formats. An integer is a whole digit run, so no match can split a
# run in two, and backtracking over a long run stays linear. It has at most
# 4,300 digits, all that `int` reads by default, so none raises `ValueError`.
_MAX_DIGITS = 4300
_INT = rf"(?:0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}})(?![0-9])"
_GROUPS = rf"(?:\({_INT}(?: {_INT})*\))*"
_GROUPS_RE = re.compile(_GROUPS)
_GRAPH_RE = re.compile(
    rf"graph\{{r=({_INT});n=({_INT});l=((?:-?{_INT}(?:,-?{_INT})*)?);e=({_GROUPS})\}}"
)


def _groups(text: str) -> list[tuple[int, ...]]:
    """The int tuples of a run of `(a b c)` groups; `InputError` if the
    text is not one."""
    if _GROUPS_RE.fullmatch(text) is None:
        raise InputError(f"not a run of (a b c) groups: {text!r}")
    return [tuple(map(int, g.split(" "))) for g in re.findall(r"\(([^()]*)\)", text)]


def _digits(n: int) -> int:
    """The decimal digit count of |n|, from its bit length (at most one
    short), since `str` refuses an int of more than 4,300 digits."""
    n = abs(n)
    d = max(1, int(n.bit_length() * math.log10(2)))
    while n >= 10**d:
        d += 1
    return d


def graph_to_text(g: Graph) -> str:
    if all(lab == 0 for lab in g.labels):
        lpart = ""
    else:
        lpart = ",".join(str(lab) for lab in g.labels)
    epart = "".join("(" + " ".join(str(v) for v in e) + ")" for e in g.edges)
    return f"graph{{r={g.r};n={g.n};l={lpart};e={epart}}}"


def graph_from_text(text: str) -> Graph:
    """The graph of a literal that full-matches the grammar and prints back
    to itself; anything else raises `InputError`."""
    m = _GRAPH_RE.fullmatch(text)
    if m is None:
        raise InputError(f"not a graph literal: {text!r}")
    r, n, lpart, epart = m.groups()
    labels = tuple(map(int, lpart.split(","))) if lpart else None
    g = Graph(int(r), int(n), labels, _groups(epart))
    printed = graph_to_text(g)
    if printed != text:
        raise InputError(f"graph literal {text!r} is not in normal form {printed!r}")
    return g
