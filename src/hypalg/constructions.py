"""Graph constructions: blow-ups, generalized subdivisions, box products,
hypergraph expansions, and the dump-label embedding.

A `SubdivisionScheme` packages a vertex gadget F_v on [m] and an edge gadget
F_e on base_r blocks of size m plus s' private vertices, with two structural
requirements validated eagerly: blocks are internally edgeless, and the
gadget is symmetric under permuting blocks (for every block permutation some
automorphism of F_e realizes it block-element-wise). `subdivide` then
replaces each vertex of a base graph by an F_v copy and each edge by an F_e
copy across its blocks with fresh private vertices.

Every scheme also knows its upward transformation (the template rule whose
operator sums tau-preimages), read off its gadgets: the unlabelled edge
template is the subdivision of one edge, the labelled one F_e, and the
vertex template F_v. On the supergraph sum of a base graph g that
operator gives `nind(subdivide(scheme, g))`, which the harness checks. The
two are algebra-equal elements, not necessarily the identical formal sum
(preimage sums carry extra isolated private vertices for non-edges of the
base graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .algebra import LinComb, _coerce, extend_label_set
from .errors import InputError
from .functors import (
    ConstF,
    ProductF,
    SubsetsF,
    UnionF,
    UpwardTransformation,
)
from .graphs import (
    Graph,
    _groups,
    _ints,
    complete_graph,
    graph_from_text,
    graph_to_text,
    is_isomorphic,
)

__all__ = [
    "SubdivisionScheme",
    "blowup",
    "blowup_scheme",
    "box_product",
    "box_scheme",
    "check_symmetry",
    "copies_scheme",
    "crossing_scheme",
    "even_expansion",
    "even_scheme",
    "lift_labels",
    "loose_expansion",
    "loose_scheme",
    "mixed_scheme",
    "path_scheme",
    "scheme_from_text",
    "scheme_to_text",
    "subdivide",
    "triangle_scheme",
]


# ---------------------------------------------------------------------------
# symmetry checking


def check_symmetry(f: Graph, sets) -> bool:
    """Whether f admits, for every permutation of the given vertex sets, an
    automorphism mapping the j-th set onto the sigma(j)-th element-wise.

    The sets must be disjoint, of equal size, and internally edgeless —
    violations are input errors, not a False verdict.

    The permutations sigma that some automorphism realizes form a group:
    composing two automorphisms realizes the composed permutation, and
    inverting one realizes the inverse. That group is all of Sym(k) iff it
    holds the transposition (0 1) and the cycle (0 1 ... k-1), so only these
    two are tested. Each test marks the i-th vertex of set j with the label
    1 + j*size + i and every other vertex with 1 + k*size, keeping f's own
    labels alongside, and asks for a label-preserving isomorphism onto the
    copy whose marks are moved by sigma: it must send set j onto set
    sigma(j) element-wise.
    """
    sets = tuple(_ints(s, "vertices") for s in sets)
    if not sets:
        raise InputError("need at least one vertex set")
    size = len(sets[0])
    seen: set[int] = set()
    for s in sets:
        if len(s) != size:
            raise InputError("vertex sets must have equal sizes")
        for v in s:
            if v < 0 or v >= f.n:
                raise InputError(f"vertex {v} out of range")
            if v in seen:
                raise InputError(f"vertex sets overlap at {v}")
            seen.add(v)
    for s in sets:
        for e in f.edges:
            if all(v in s for v in e):
                raise InputError(f"vertex set {s} is not internally edgeless")
    k = len(sets)
    if k == 1:
        return True
    span = k * size + 2  # marks are 1 .. k*size + 1

    def marked(sigma: tuple[int, ...]) -> Graph:
        marks = [1 + k * size] * f.n
        for j in range(k):
            for i, v in enumerate(sets[sigma[j]]):
                marks[v] = 1 + j * size + i
        labels = tuple(lab * span + m for lab, m in zip(f.labels, marks))
        return Graph(f.r, f.n, labels, f.edges)

    source = marked(tuple(range(k)))
    generators = {(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)}
    return all(is_isomorphic(source, marked(sigma)) for sigma in generators)


# ---------------------------------------------------------------------------
# subdivision schemes


@dataclass(frozen=True)
class SubdivisionScheme:
    """Gadget pair (F_v on [m], F_e on base_r blocks of size m plus s'
    privates) for subdividing base_r-uniform graphs.

    Block j of F_e occupies vertices j*m .. j*m+m-1; private vertices come
    last. Validation checks uniformities, edgeless blocks, and block-swap
    symmetry; invalid gadgets never construct.
    """

    f_v: Graph
    f_e: Graph
    base_r: int

    def __post_init__(self) -> None:
        (base_r,) = _ints((self.base_r,), "base uniformity", 2)
        object.__setattr__(self, "base_r", base_r)
        if self.f_v.n < 1:
            raise InputError("vertex gadget needs at least one vertex")
        if self.f_v.r != self.f_e.r:
            raise InputError(
                f"gadget uniformities differ: {self.f_v.r} vs {self.f_e.r}"
            )
        if any(self.f_v.labels) or any(self.f_e.labels):
            raise InputError("gadgets must be unlabeled (all labels zero)")
        if self.s_prime < 0:
            raise InputError(
                f"edge gadget has {self.f_e.n} vertices, fewer than "
                f"{self.base_r} blocks of size {self.m}"
            )
        if not check_symmetry(self.f_e, self.blocks):
            raise InputError(
                "edge gadget is not symmetric with respect to its blocks"
            )

    @property
    def m(self) -> int:
        return self.f_v.n

    @property
    def s_prime(self) -> int:
        return self.f_e.n - self.base_r * self.m

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        m = self.m
        return tuple(
            tuple(range(j * m, (j + 1) * m)) for j in range(self.base_r)
        )

    # -- operator plumbing ---------------------------------------------------

    def eta(self):
        """Vertex functor of the subdivided graph: one m-block per vertex,
        s' privates per base_r-subset."""
        return UnionF(
            ProductF(SubsetsF(1), ConstF(self.m)),
            ProductF(SubsetsF(self.base_r), ConstF(self.s_prime)),
        )

    def transformation(self, labeled: bool = False):
        """The template transformation whose operator inverts subdivision.

        Unlabeled: an output edge requires the full gadget, the subdivision
        of one edge (F_e plus the F_v copy in each block). Labeled: the edge
        rule requires F_e only, and a vertex keeps label 0 exactly when its
        block carries the F_v copy, falling back to the dump label 1.
        """
        eta, r, k = self.eta(), self.f_v.r, self.base_r
        if not labeled:
            return UpwardTransformation(eta, r, k, subdivide(self, complete_graph(k, k)))
        return UpwardTransformation(
            eta, r, k, self.f_e, base_labels=frozenset({0, 1}),
            vertex_rules=((0, self.f_v),), default_label=1,
        )


def subdivide(scheme: SubdivisionScheme, g: Graph) -> Graph:
    """Replace each vertex of g by an F_v copy and each edge by an F_e copy
    across its blocks, with fresh private vertices per edge.

    Vertex (v, i) sits at index v*m + i; the t-th private of the k-th edge
    (in sorted edge order) at n*m + k*s' + t.
    """
    if g.r != scheme.base_r:
        raise InputError(
            f"scheme subdivides {scheme.base_r}-uniform graphs, got {g.r}"
        )
    if any(g.labels):
        raise InputError("subdivide expects an unlabeled base graph")
    m, sp = scheme.m, scheme.s_prime
    r = scheme.f_v.r
    total = g.n * m + len(g.edges) * sp
    edges: set[tuple[int, ...]] = set()
    for v in range(g.n):
        for e in scheme.f_v.edges:
            edges.add(tuple(sorted(v * m + i for i in e)))
    block_span = scheme.base_r * m
    for k, ge in enumerate(g.edges):
        offset = g.n * m + k * sp
        for fe_edge in scheme.f_e.edges:
            mapped = []
            for x in fe_edge:
                if x < block_span:
                    j, i = divmod(x, m)
                    mapped.append(ge[j] * m + i)
                else:
                    mapped.append(offset + (x - block_span))
            edges.add(tuple(sorted(mapped)))
    return Graph(r, total, None, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# scheme catalog


def blowup_scheme(m: int) -> SubdivisionScheme:
    """Blocks joined completely: subdividing with this is the m-fold blowup."""
    (m,) = _ints((m,), "block size", 1)
    f_v = Graph(2, m)
    f_e = Graph(2, 2 * m, None, tuple((i, m + j) for i in range(m) for j in range(m)))
    return SubdivisionScheme(f_v, f_e, 2)


def copies_scheme(s: int) -> SubdivisionScheme:
    """Parallel matching between blocks: subdividing gives s disjoint copies."""
    (s,) = _ints((s,), "copy count", 1)
    f_v = Graph(2, s)
    f_e = Graph(2, 2 * s, None, tuple((i, s + i) for i in range(s)))
    return SubdivisionScheme(f_v, f_e, 2)


def path_scheme(k: int) -> SubdivisionScheme:
    """Each edge becomes a path with k edges (k-1 private vertices)."""
    (k,) = _ints((k,), "path length", 1)
    f_v = Graph(2, 1)
    chain = [0] + list(range(2, k + 1)) + [1]
    f_e = Graph(
        2, k + 1, None, tuple((chain[i], chain[i + 1]) for i in range(k))
    )
    return SubdivisionScheme(f_v, f_e, 2)


def box_scheme() -> SubdivisionScheme:
    """K2 vertex gadget with two parallel edges: subdividing is G box K2."""
    f_v = Graph(2, 2, None, ((0, 1),))
    f_e = Graph(2, 4, None, ((0, 2), (1, 3)))
    return SubdivisionScheme(f_v, f_e, 2)


def crossing_scheme() -> SubdivisionScheme:
    """K2 vertex gadget with two crossing edges between the blocks."""
    f_v = Graph(2, 2, None, ((0, 1),))
    f_e = Graph(2, 4, None, ((0, 3), (1, 2)))
    return SubdivisionScheme(f_v, f_e, 2)


def triangle_scheme() -> SubdivisionScheme:
    """Each edge becomes a triangle through one private vertex."""
    f_v = Graph(2, 1)
    f_e = Graph(2, 3, None, ((0, 1), (0, 2), (1, 2)))
    return SubdivisionScheme(f_v, f_e, 2)


def mixed_scheme(r: int, m: int) -> SubdivisionScheme:
    """Single r-edge gadget: blocks of size m plus r-2m private vertices."""
    (r,) = _ints((r,), "uniformity")
    (m,) = _ints((m,), "block size", 1)
    if r < 2 * m:
        raise InputError(f"uniformity {r} too small for two blocks of size {m}")
    f_v = Graph(r, m)
    f_e = Graph(r, r, None, (tuple(range(r)),))
    return SubdivisionScheme(f_v, f_e, 2)


def loose_scheme(r: int) -> SubdivisionScheme:
    (r,) = _ints((r,), "uniformity", 3)
    return mixed_scheme(r, 1)


def even_scheme(r: int) -> SubdivisionScheme:
    (r,) = _ints((r,), "uniformity")
    if r < 2 or r % 2:
        raise InputError(f"even expansions need even r >= 2, got {r}")
    return mixed_scheme(r, r // 2)


# ---------------------------------------------------------------------------
# direct constructions


def blowup(g: Graph, m: int) -> Graph:
    """m-fold blowup: vertex (v, i) at index v*m + i, blocks independent,
    complete bipartite between blocks of adjacent vertices."""
    (m,) = _ints((m,), "blowup factor", 1)
    edges = [
        picks
        for e in g.edges
        for picks in iter_product(*(range(v * m, (v + 1) * m) for v in e))
    ]
    labels = tuple(lab for lab in g.labels for _ in range(m))
    return Graph(g.r, g.n * m, labels, tuple(edges))


def box_product(g: Graph, f: Graph) -> Graph:
    """Cartesian product: adjacent in one coordinate, equal in the other."""
    if g.r != 2 or f.r != 2:
        raise InputError("box product is defined for 2-uniform graphs")
    edges = []
    for u, v in g.edges:
        for a in range(f.n):
            edges.append((u * f.n + a, v * f.n + a))
    for a, b in f.edges:
        for u in range(g.n):
            edges.append((u * f.n + a, u * f.n + b))
    return Graph(2, g.n * f.n, None, tuple(edges))


def _expansion(g: Graph, r: int, m: int) -> Graph:
    """The r-uniform expansion with blocks of size m: vertex v becomes the
    block v*m .. v*m+m-1, and the k-th edge (in sorted order) the union of
    its endpoints' blocks with the r-2m privates n*m + k*(r-2m) + t."""
    sp = r - 2 * m
    edges = []
    for k, (u, v) in enumerate(g.edges):
        start = g.n * m + k * sp
        edges.append(
            (*range(u * m, u * m + m), *range(v * m, v * m + m), *range(start, start + sp))
        )
    return Graph(r, g.n * m + len(g.edges) * sp, None, tuple(edges))


def loose_expansion(g: Graph, r: int) -> Graph:
    """Pad each 2-edge with r-2 fresh private vertices."""
    if g.r != 2:
        raise InputError("loose expansion starts from a 2-uniform graph")
    (r,) = _ints((r,), "uniformity", 3)
    return _expansion(g, r, 1)


def even_expansion(g: Graph, r: int) -> Graph:
    """Duplicate every vertex r/2 times; each edge becomes the union of its
    endpoints' copy blocks."""
    if g.r != 2:
        raise InputError("even expansion starts from a 2-uniform graph")
    (r,) = _ints((r,), "uniformity")
    if r < 2 or r % 2:
        raise InputError(f"even expansions need even r >= 2, got {r}")
    return _expansion(g, r, r // 2)


# ---------------------------------------------------------------------------
# dump-label embedding


def lift_labels(f0, ell: int) -> LinComb:
    """Reinterpret a uniform-order element (a Graph, LinComb or UniformRep,
    read as the algebra reads them) over the label set enlarged by ell.

    Requires uniform order: mixing orders before enlarging the label set
    breaks positivity (hosts concentrated on the new label separate the
    orders), so non-uniform input is rejected.
    """
    lc = _coerce(f0)
    orders = {g.n for g in lc.coeffs}
    if len(orders) > 1:
        raise InputError(
            f"label lift needs a uniform-order element; found orders {sorted(orders)}"
        )
    (ell,) = _ints((ell,), "labels")
    if ell in lc.label_set:
        raise InputError(f"label {ell} already present in {sorted(lc.label_set)}")
    return extend_label_set(lc, lc.label_set | {ell})


# ---------------------------------------------------------------------------
# scheme files


def scheme_to_text(scheme: SubdivisionScheme) -> str:
    sets = "".join(
        "(" + " ".join(str(v) for v in block) + ")" for block in scheme.blocks
    )
    return (
        f"{graph_to_text(scheme.f_v)}\n{graph_to_text(scheme.f_e)}\nsets={sets}\n"
    )


def scheme_from_text(text: str) -> SubdivisionScheme:
    """Parse a scheme file: vertex gadget, edge gadget, then a `sets=` line
    naming each block's vertices in order, as a run of `(a b c)` groups in
    the grammar of a graph literal's edges. Lines are stripped, and blank
    and `#` lines skipped. Blocks need not sit at the writer's positions;
    the edge gadget is renumbered so they do."""
    graphs: list[Graph] = []
    sets_line = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("sets="):
            if sets_line is not None:
                raise InputError("multiple sets= lines in scheme file")
            sets_line = line[len("sets=") :]
        else:
            graphs.append(graph_from_text(line))
    if len(graphs) != 2 or sets_line is None:
        raise InputError(
            "scheme file needs two graph lines (vertex gadget, edge gadget) "
            "and one sets= line"
        )
    f_v, f_e = graphs
    blocks = _groups(sets_line)
    m = f_v.n
    for size in map(len, blocks):
        if size != m:
            raise InputError(
                f"blocks of size {size} do not match vertex gadget on {m} vertices"
            )
    flat = [v for block in blocks for v in block]
    if len(set(flat)) != len(flat):
        raise InputError("blocks overlap in sets= line")
    if any(v >= f_e.n for v in flat):
        raise InputError("block vertex out of range in sets= line")
    # renumber so block j occupies j*m..j*m+m-1 and privates come last
    order = flat + sorted(set(range(f_e.n)) - set(flat))
    perm = [0] * f_e.n
    for i, v in enumerate(order):
        perm[v] = i
    return SubdivisionScheme(f_v, f_e.relabel_vertices(tuple(perm)), len(blocks))
