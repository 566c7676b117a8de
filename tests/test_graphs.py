"""Graph values, canonical representatives, isomorphism, text format."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hypalg import (
    ConstF,
    Graph,
    InputError,
    LinComb,
    SubdivisionScheme,
    SubsetsF,
    UniformRep,
    UpwardTransformation,
    canonical,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_text,
    graph_to_text,
    check_symmetry,
    extend_label_set,
    is_isomorphic,
    lift,
    lift_labels,
    lincomb_from_text,
    nind,
    path_graph,
    unit,
)
from hypalg import (
    apply_functor_set,
    blowup,
    blowup_scheme,
    copies_scheme,
    even_expansion,
    even_scheme,
    functor_size,
    functor_to_text,
    loose_expansion,
    loose_scheme,
    mixed_scheme,
    operator_apply,
    order,
    path_scheme,
    point,
    product,
    triangle_scheme,
    verify_forcing_pair_operator,
    verify_hypergraph,
    verify_tensor_power,
)
import hypalg.graphs as graph_module
from hypalg.densities import _map_density
from hypalg.graphs import _last_masks, _maps
from oracles import brute_canonical, brute_maps, reference_canonical

K2 = complete_graph(2, 2)


def test_edge_normalization():
    g = Graph(2, 4, None, ((3, 1), (0, 2), (1, 3), (2, 0)))
    assert g.edges == ((0, 2), (1, 3))
    assert g.labels == (0, 0, 0, 0)
    assert g.e == 2


def test_hash_is_set_at_construction():
    # every way of building the value stores the hash of its fields before
    # anything asks for it, and the hash is no dataclass field
    r, n, labels, edges = 3, 5, (0, 1, 0, 2, 1), ((0, 1, 2), (1, 3, 4))
    g = Graph(r, n, labels, ((4, 3, 1), (2, 1, 0), (1, 0, 2)))
    built = [
        g,
        Graph._trusted(r, n, labels, edges),
        dataclasses.replace(g),
        copy.copy(g),
        copy.deepcopy(g),
        pickle.loads(pickle.dumps(g)),
    ]
    want = hash((r, n, labels, edges))
    for h in built:
        assert vars(h)["_hash"] == want
        assert hash(h) == want
        assert h == g and repr(h) == "graph{r=3;n=5;l=0,1,0,2,1;e=(0 1 2)(1 3 4)}"
    other = dataclasses.replace(g, edges=edges[:1])
    assert hash(other) == hash((r, n, labels, edges[:1])) and other != g
    assert [f.name for f in dataclasses.fields(Graph)] == ["r", "n", "labels", "edges"]


def test_degrees():
    assert path_graph(2).degrees == (1, 2, 1)
    assert complete_graph(3, 4).degrees == (3, 3, 3, 3)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 2), "uniformity must be >= 1, got 0"),
        ((2, -1), "vertex count must be >= 0, got -1"),
        ((2, 3, (0, 1)), "expected 3 labels, got 2"),
        ((2, 3, None, ((0, 1, 2),)), "edge (0, 1, 2) has 3 vertices, expected r=2"),
        ((2, 3, None, ((0, 0),)), "edge (0, 0) repeats a vertex"),
        ((2, 3, None, ((0, 3),)), "edge (0, 3) is not within vertex range 0..2"),
        ((2, 2, None, ((-1, 0),)), "edge (-1, 0) is not within vertex range 0..1"),
        # non-ints, which int() or sorted() used to let through or turn
        # into a ValueError or TypeError
        ((2.0, 3), "uniformity and vertex count must be ints, got (2.0, 3)"),
        ((2, "3"), "uniformity and vertex count must be ints, got (2, '3')"),
        ((2, 2, (0.7, 1.2)), "labels must be ints, got (0.7, 1.2)"),
        ((2, 2, ("a", 0)), "labels must be ints, got ('a', 0)"),
        ((2, 1, (Fraction(1),)), "labels must be ints, got (Fraction(1, 1),)"),
        ((2, 2, 5), "labels must be ints, got 5"),
        ((2, 3, None, ((0.0, 2.0),)), "edge vertices must be ints, got (0.0, 2.0)"),
        ((2, 3, None, ((0, "1"),)), "edge vertices must be ints, got (0, '1')"),
        ((1, 2, None, (0, 1)), "edge vertices must be ints, got 0"),
    ],
)
def test_construction_rejects(args, message):
    with pytest.raises(InputError) as info:
        Graph(*args)
    assert str(info.value) == message


def _edge_rule(**fields):
    return UpwardTransformation(SubsetsF(1), 2, 2, complete_graph(2, 2), **fields)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinComb(2, (0.5, 1.7)), "label set must be ints, got (0.5, 1.7)"),
        (
            lambda: extend_label_set(unit(2), (0, 1.5)),
            "label set must be ints, got (0, 1.5)",
        ),
        (lambda: _edge_rule(labels=(0, 0.5)), "labels must be ints, got (0, 0.5)"),
        (
            lambda: _edge_rule(base_labels=(0, "1")),
            "output labels must be ints, got (0, '1')",
        ),
        (
            lambda: _edge_rule(base_labels={0, 1}, default_label=1.0),
            "default label must be ints, got (1.0,)",
        ),
        (
            lambda: _edge_rule(base_labels={0, 1}, vertex_rules=((0.5, Graph(2, 1)),)),
            "vertex rule labels must be ints, got (0.5,)",
        ),
        (
            lambda: lift_labels(nind(complete_graph(2, 2)), 1.5),
            "labels must be ints, got (1.5,)",
        ),
        (
            lambda: lift_labels(nind(complete_graph(2, 2)), Fraction(1)),
            "labels must be ints, got (Fraction(1, 1),)",
        ),
        (
            lambda: check_symmetry(complete_graph(2, 2), [(0.5,), (1.2,)]),
            "vertices must be ints, got (0.5,)",
        ),
        (lambda: LinComb.zero(2.5), "uniformity must be ints, got (2.5,)"),
        (lambda: LinComb.zero("2"), "uniformity must be ints, got ('2',)"),
        (
            lambda: UpwardTransformation(SubsetsF(1), 2.0, 2, complete_graph(2, 2)),
            "uniformities must be ints, got (2.0, 2)",
        ),
        (
            lambda: operator_apply(_edge_rule(), complete_graph(2, 2), budget=2.5),
            "budget must be ints, got (2.5,)",
        ),
        (lambda: UniformRep(unit(2), 2.5), "order must be ints, got (2.5,)"),
        (lambda: lift(unit(2), 2.5), "order must be ints, got (2.5,)"),
        (lambda: lift(unit(2), "3"), "order must be ints, got ('3',)"),
        (lambda: SubsetsF(2.0), "subset size must be ints, got (2.0,)"),
        (
            lambda: apply_functor_set(SubsetsF(1), 2.0),
            "set size must be ints, got (2.0,)",
        ),
        (lambda: functor_size(SubsetsF(1), 3.0), "set size must be ints, got (3.0,)"),
        (lambda: cycle_graph(4.0), "cycle length must be ints, got (4.0,)"),
        (lambda: path_graph(2.0), "edge count must be ints, got (2.0,)"),
        (
            lambda: complete_graph(2, 3.0),
            "uniformity and vertex count must be ints, got (2, 3.0)",
        ),
        (lambda: complete_bipartite(2.0, 1), "part sizes must be ints, got (2.0, 1)"),
        (lambda: blowup(K2, 2.0), "blowup factor must be ints, got (2.0,)"),
        (lambda: path_scheme(2.0), "path length must be ints, got (2.0,)"),
        (lambda: loose_expansion(K2, 3.0), "uniformity must be ints, got (3.0,)"),
        (lambda: even_expansion(K2, 4.0), "uniformity must be ints, got (4.0,)"),
        (
            lambda: verify_forcing_pair_operator(3.0),
            "path length must be ints, got (3.0,)",
        ),
        # entry points that raised TypeError, blamed another parameter,
        # built a wrong graph or accepted an empty label set
        (
            lambda: SubdivisionScheme(Graph(2, 1), K2, 2.0),
            "base uniformity must be ints, got (2.0,)",
        ),
        (
            lambda: SubdivisionScheme(Graph(2, 1), K2, "2"),
            "base uniformity must be ints, got ('2',)",
        ),
        (lambda: blowup_scheme("2"), "block size must be ints, got ('2',)"),
        (lambda: copies_scheme(None), "copy count must be ints, got (None,)"),
        (lambda: copies_scheme(1.5), "copy count must be ints, got (1.5,)"),
        (lambda: even_scheme("4"), "uniformity must be ints, got ('4',)"),
        (lambda: loose_scheme(6.0), "uniformity must be ints, got (6.0,)"),
        (lambda: mixed_scheme(5, "2"), "block size must be ints, got ('2',)"),
        (lambda: mixed_scheme(5.0, 2), "uniformity must be ints, got (5.0,)"),
        (lambda: verify_tensor_power(K2, "2"), "copy count must be ints, got ('2',)"),
        (lambda: verify_tensor_power(K2, 1.5), "copy count must be ints, got (1.5,)"),
        (lambda: verify_hypergraph(K2, "3", 1), "uniformity must be ints, got ('3',)"),
        (lambda: complete_bipartite(-1, 3), "part sizes must be >= 0, got -1"),
        (lambda: complete_bipartite(2, -1), "part sizes must be >= 0, got -1"),
        (
            lambda: path_graph(2).relabel_vertices((1.0, 0.0, 2.0)),
            "relabeling must be ints, got (1.0, 0.0, 2.0)",
        ),
        (lambda: _edge_rule(labels=frozenset()), "labels must be nonempty"),
        (
            lambda: Graph(2, 2, None, (("a", 1),)),
            "edge vertices must be ints, got ('a', 1)",
        ),
        (
            lambda: lincomb_from_text("1*graph{r=2;n=1;l=;e=}", r="2"),
            "uniformity must be ints, got ('2',)",
        ),
        (lambda: _edge_rule(base_labels=()), "output labels must be nonempty"),
        (
            lambda: UpwardTransformation(SubsetsF(1), 2, 0, Graph(2, 1)),
            "uniformities must be >= 1, got 0",
        ),
    ],
)
def test_entry_points_reject_non_int_labels_and_vertices(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinComb.zero(0), "uniformity must be >= 1, got 0"),
        (lambda: lincomb_from_text("0", r=0), "uniformity must be >= 1, got 0"),
        (lambda: UniformRep(LinComb.zero(2), -1), "order must be >= 0, got -1"),
        (lambda: path_graph(-1), "edge count must be >= 0, got -1"),
        (lambda: SubsetsF(-1), "subset size must be >= 0, got -1"),
        (lambda: ConstF(-1), "constant set size must be >= 0, got -1"),
        (lambda: apply_functor_set(SubsetsF(1), -1), "set size must be >= 0, got -1"),
        (
            lambda: operator_apply(_edge_rule(), K2, budget=0),
            "budget must be >= 1, got 0",
        ),
        (
            lambda: SubdivisionScheme(Graph(2, 1), K2, 1),
            "base uniformity must be >= 2, got 1",
        ),
        (lambda: blowup_scheme(0), "block size must be >= 1, got 0"),
        (lambda: mixed_scheme(5, 0), "block size must be >= 1, got 0"),
        (lambda: copies_scheme(0), "copy count must be >= 1, got 0"),
        (lambda: path_scheme(0), "path length must be >= 1, got 0"),
        (lambda: loose_scheme(2), "uniformity must be >= 3, got 2"),
        (lambda: loose_expansion(K2, 2), "uniformity must be >= 3, got 2"),
        (lambda: blowup(K2, 0), "blowup factor must be >= 1, got 0"),
        (lambda: verify_tensor_power(K2, 0), "copy count must be >= 1, got 0"),
    ],
    ids=[
        "zero",
        "lincomb-text",
        "uniform-rep",
        "path-graph",
        "subsets",
        "const-size",
        "functor-set",
        "operator-budget",
        "scheme-base-uniformity",
        "blowup-scheme",
        "mixed-scheme",
        "copies-scheme",
        "path-scheme",
        "loose-scheme",
        "loose-expansion",
        "blowup",
        "tensor-power",
    ],
)
def test_entry_points_enforce_their_lower_bounds(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: order(3), "expected LinComb, UniformRep or Graph, got int"),
        (
            lambda: UniformRep(LinComb.from_graph(K2), 3),
            f"term {K2!r} has order 2, expected uniform order 3",
        ),
        (lambda: apply_functor_set("sub(1)", 2), "not a downward functor: 'sub(1)'"),
        (lambda: functor_to_text("sub(1)"), "not a downward functor: 'sub(1)'"),
        (
            lambda: operator_apply(_edge_rule(), 3),
            "expected LinComb, UniformRep or Graph, got int",
        ),
    ],
    ids=[
        "coerce-int",
        "uniform-rep-order",
        "functor-set",
        "functor-text",
        "operator-input",
    ],
)
def test_entry_points_refuse_objects_of_the_wrong_shape(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_algebra_entry_points_read_a_uniform_rep():
    k2 = LinComb.from_graph(K2)
    rep = UniformRep(k2, 2)
    assert order(rep) == 2
    assert product(rep, rep) == product(k2, k2)
    # so does an operator
    tau = blowup_scheme(2).transformation()
    lifted = lift(nind(k2), 3)
    assert operator_apply(tau, lifted) == operator_apply(tau, lifted.lincomb)


def test_cached_functor_sets_reject_non_ints():
    # 2.0 == 2 with one hash, so an untyped cache would return the entry of 2
    assert apply_functor_set(SubsetsF(1), 2) == ((0,), (1,))
    with pytest.raises(InputError, match="must be ints"):
        apply_functor_set(SubsetsF(1), 2.0)


def test_entry_points_accept_bools_as_ints():
    assert LinComb(2, (False, True)).label_set == frozenset({0, 1})
    assert _edge_rule(labels=(0, True)).labels == frozenset({0, 1})
    assert LinComb.zero(True).r == 1
    k2 = complete_graph(2, 2)
    assert operator_apply(_edge_rule(), k2, budget=True) == LinComb.from_graph(k2)
    assert type(SubsetsF(True).k) is int
    assert lift(unit(2), True).n == 1


def test_catalog_shapes():
    assert cycle_graph(3) == complete_graph(2, 3)
    assert path_graph(0) == Graph(2, 1)
    assert complete_bipartite(2, 2).e == 4
    assert is_isomorphic(complete_bipartite(2, 2), cycle_graph(4))
    assert empty_graph(3, 5).edges == ()
    with pytest.raises(InputError):
        cycle_graph(2)


@pytest.mark.parametrize(
    "g,aut",
    [
        (cycle_graph(4), 8),
        (cycle_graph(5), 10),
        (cycle_graph(6), 12),
        (complete_graph(2, 4), 24),
        (path_graph(2), 2),
        (Graph(2, 4, None, ((0, 1), (2, 3))), 8),
        (complete_graph(3, 3), 6),
        (Graph(2, 3, None, ((0, 1),)), 2),
        (empty_graph(2, 4), 24),
    ],
)
def test_automorphism_counts(g, aut):
    assert canonical(g)[1] == aut
    assert brute_canonical(g)[1] == aut


def test_canonical_search_has_no_recursion_limit():
    # the search runs on an explicit stack, so a path on 1,201 vertices
    # does not meet Python's default limit of 1,000 frames
    g = path_graph(1200)
    assert canonical(g)[1] == 2
    assert len(LinComb.from_graph(g).coeffs) == 1


def test_canonical_exhaustive_small():
    # every 2-uniform graph on <= 4 vertices: canonical must agree with the
    # brute-force classes (constant on each class, distinct across classes)
    for n in range(5):
        slots = list(combinations(range(n), 2))
        class_of = {}
        for bits in range(1 << len(slots)):
            edges = tuple(slots[i] for i in range(len(slots)) if bits >> i & 1)
            g = Graph(2, n, None, edges)
            bkey = brute_canonical(g)[0]
            crep, caut = canonical(g)
            assert caut == brute_canonical(g)[1]
            prev = class_of.get((bkey.labels, bkey.edges))
            if prev is None:
                class_of[(bkey.labels, bkey.edges)] = crep
            else:
                assert prev == crep
        # distinct classes -> distinct representatives
        reps = list(class_of.values())
        assert len(set(reps)) == len(reps)



def _random_graph(rng, r, n, label_count=1):
    slots = combinations(range(n), r)
    density = rng.random()
    edges = tuple(e for e in slots if rng.random() < density)
    labels = tuple(rng.randrange(label_count) for _ in range(n))
    return Graph(r, n, labels, edges)


def _multipartite(sizes, labels=None):
    """The complete multipartite graph with parts of these sizes."""
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    slots = combinations(range(len(part)), 2)
    edges = tuple(e for e in slots if part[e[0]] != part[e[1]])
    return Graph(2, len(part), labels, edges)


def _with_twin(rng, g, v):
    """g with a vertex g.n added as a twin of v: v's label, a copy of each
    edge of v, and each r-set holding both with probability 1/2."""
    n = g.n
    copies = [tuple(n if x == v else x for x in e) for e in g.edges if v in e]
    others = [u for u in range(n) if u != v]
    pairs = combinations(others, g.r - 2)
    joined = [(v, *t, n) for t in pairs if rng.random() < 0.5]
    edges = g.edges + tuple(copies + joined)
    return Graph(g.r, n + 1, g.labels + (g.labels[v],), edges)


def test_canonical_matches_reference_search():
    # the (label, degree)-partitioned, present-first search picks other
    # representatives than the original tuple-segment search, but the same
    # classes: one representative per reference class and back, each in
    # its own class, fixed by `canonical`, with sorted labels and the
    # reference automorphism count
    graphs = []
    for r in (2, 3):
        for n in range(6):
            slots = list(combinations(range(n), r))
            for bits in range(1 << len(slots)):
                edges = tuple(s for i, s in enumerate(slots) if bits >> i & 1)
                graphs.append(Graph(r, n, None, edges))
    rng = random.Random(20412)
    graphs += [_random_graph(rng, 2, rng.choice((6, 7)), 3) for _ in range(150)]
    graphs += [_random_graph(rng, r, 6, 2) for r in (3, 4, 5) for _ in range(30)]
    # r = 1, and isolated vertices in several labels, which keep their
    # places in the search
    for n in range(6):
        for bits in range(1 << n):
            labels = tuple(rng.randrange(2) for _ in range(n))
            edges = tuple((v,) for v in range(n) if bits >> v & 1)
            graphs.append(Graph(1, n, labels, edges))
    for _ in range(60):
        g = _random_graph(rng, rng.choice((2, 3)), rng.randint(2, 4), 3)
        extra = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        g = Graph(g.r, g.n + len(extra), g.labels + extra, g.edges)
        graphs.append(_relabeled(rng, g))
    # twins: blow-ups, complete multipartite graphs, twins split across
    # label cells, and random graphs with twins added that share an edge
    # or not, beside vertices of their cells that are no twins
    for g in (path_graph(2), cycle_graph(3), cycle_graph(4), complete_graph(3, 3)):
        graphs += [blowup(g, 2), _relabeled(rng, blowup(g, 2))]
    graphs.append(blowup(path_graph(1), 3))
    for sizes in ((1, 2, 3), (2, 2, 2), (1, 1, 2, 2), (2, 3, 3), (3, 3)):
        graphs.append(_multipartite(sizes))
        for _ in range(3):
            labels = tuple(rng.randrange(2) for _ in range(sum(sizes)))
            graphs.append(_multipartite(sizes, labels))
    for _ in range(80):
        r, n = rng.choice((2, 3, 4)), rng.randint(3, 5)
        g = _random_graph(rng, r, n, rng.choice((1, 2)))
        for _ in range(rng.randint(1, 2)):
            g = _with_twin(rng, g, rng.randrange(g.n))
        graphs.append(_relabeled(rng, g))
    to_ref: dict = {}
    from_ref: dict = {}
    for g in graphs:
        rep, aut = canonical(g)
        ref, ref_aut = reference_canonical(g)
        assert aut == ref_aut, g
        assert to_ref.setdefault(rep, ref) == ref, g
        assert from_ref.setdefault(ref, rep) == rep, g
        assert reference_canonical(rep)[0] == ref, g
        assert canonical(rep) == (rep, aut), g
        assert list(rep.labels) == sorted(rep.labels), g


def test_canonical_sparse_symmetric_graphs():
    # the search tree of sparse symmetric graphs stays small: C18 took half
    # a minute under a label-only partition with absent-first segments
    for k in range(3, 19):
        assert canonical(cycle_graph(k))[1] == 2 * k
    # isolated vertices keep their places: the search once visited each of
    # the 7.3 million automorphisms of one edge on 12 vertices
    assert canonical(Graph(2, 12, None, ((0, 1),)))[1] == 2 * math.factorial(10)
    two_labels = Graph(2, 12, (0,) * 6 + (1,) * 6, ((0, 6),))
    assert canonical(two_labels)[1] == math.factorial(5) ** 2


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel_vertices(tuple(perm))


def _disjoint_union(g, h):
    shifted = tuple(tuple(v + g.n for v in e) for e in h.edges)
    return Graph(g.r, g.n + h.n, g.labels + h.labels, g.edges + shifted)


def test_canonical_agrees_with_pairwise_isomorphism():
    # differential against `is_isomorphic` up to 18 vertices, where the
    # brute-force oracles cannot reach: equal representatives exactly for
    # isomorphic pairs
    rng = random.Random(90218)
    graphs = [cycle_graph(k) for k in range(3, 19)]
    graphs += [path_graph(k) for k in range(1, 18)]
    graphs += [
        _disjoint_union(cycle_graph(a), cycle_graph(b))
        for a in range(3, 10)
        for b in range(a, 16 - a)
    ]
    graphs += [complete_bipartite(a, b) for a, b in ((1, 4), (2, 3), (2, 4), (3, 3), (3, 4))]
    graphs += [_random_graph(rng, 2, rng.randrange(7, 19), 2) for _ in range(40)]
    graphs += [_random_graph(rng, 3, rng.randrange(6, 10)) for _ in range(10)]
    for g in graphs:
        h = _relabeled(rng, g)
        assert is_isomorphic(g, h)
        assert canonical(g) == canonical(h), g
        # one edge moved to a non-edge: same size, often another class
        gaps = [e for e in combinations(range(g.n), g.r) if e not in g.edge_set]
        if g.edges and gaps:
            edges = list(g.edges)
            edges[rng.randrange(len(edges))] = rng.choice(gaps)
            h = _relabeled(rng, Graph(g.r, g.n, g.labels, tuple(edges)))
            assert is_isomorphic(g, h) == (canonical(g)[0] == canonical(h)[0]), (g, h)
    for g, h in combinations(graphs, 2):
        if (g.r, g.n, g.e) == (h.r, h.n, h.e):
            assert is_isomorphic(g, h) == (canonical(g)[0] == canonical(h)[0]), (g, h)


def test_automorphism_counts_in_closed_form(monkeypatch):
    # past the brute-force reach, where only twins keep the search small:
    # a twin class of k vertices multiplies |Aut| by k!, and the search
    # visits one leaf per coset of the group the classes generate
    monkeypatch.setattr(graph_module, "_CANON_CACHE", {})
    k44 = complete_bipartite(4, 4)
    k33 = complete_bipartite(3, 3)
    cases = [
        (complete_graph(2, 10), math.factorial(10)),
        (complete_bipartite(6, 6), 2 * math.factorial(6) ** 2),
        (_disjoint_union(k44, k44), 2_654_208),
        (complete_graph(3, 7), math.factorial(7)),
        (blowup(cycle_graph(5), 3), 10 * math.factorial(3) ** 5),
        (Graph(2, 6, (1, 0, 0, 0, 0, 0), k33.edges), 2 * math.factorial(3)),
    ]
    rng = random.Random(4242)
    for g, aut in cases:
        assert canonical(g)[1] == aut, g
        assert canonical(_relabeled(rng, g)) == canonical(g), g


def test_canonical_respects_labels():
    g1 = Graph(2, 2, (0, 1), ((0, 1),))
    g2 = Graph(2, 2, (1, 0), ((0, 1),))
    assert canonical(g1)[0] == canonical(g2)[0]
    g3 = Graph(2, 2, (1, 1), ((0, 1),))
    assert canonical(g1)[0] != canonical(g3)[0]


def test_canonical_three_uniform():
    g = Graph(3, 5, None, ((0, 1, 2), (2, 3, 4)))
    for perm in permutations(range(5)):
        assert canonical(g.relabel_vertices(perm))[0] == canonical(g)[0]
    assert canonical(g)[1] == brute_canonical(g)[1]


def test_canonical_is_independent_of_cache_order(monkeypatch):
    # a miss looks up g relabelled by (label, degree) before searching, so
    # an entry left by one graph serves others: each graph and two
    # relabelled copies, canonicalised forwards and then backwards from an
    # empty cache, get one answer in both orders, the brute-force
    # automorphism count, and each is cached under its own key; every key
    # is a normal-form graph isomorphic to its entry's representative
    rng = random.Random(31337)
    graphs = []
    for _ in range(80):
        g = _random_graph(rng, rng.randint(1, 3), rng.randint(0, 7), rng.randint(1, 3))
        graphs += [g, _relabeled(rng, g), _relabeled(rng, g)]
    passes = []
    for seq in (graphs, graphs[::-1]):
        cache = {}
        monkeypatch.setattr(graph_module, "_CANON_CACHE", cache)
        passes.append([canonical(g) for g in seq])
        assert all(g in cache for g in seq)
        for key, (rep, aut) in cache.items():
            assert key == Graph(key.r, key.n, key.labels, key.edges), key
            assert is_isomorphic(key, rep), key
    forward, backward = passes[0], passes[1][::-1]
    assert forward == backward
    for i, g in enumerate(graphs):
        assert forward[i] == forward[i - i % 3], g
        if g.n <= 6:
            assert forward[i][1] == brute_canonical(g)[1], g


def _count_searches(monkeypatch) -> list:
    calls = []
    search = graph_module._search

    def counting(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(graph_module, "_CANON_CACHE", {})
    monkeypatch.setattr(graph_module, "_search", counting)
    return calls


def test_relabelings_with_distinct_keys_search_once(monkeypatch):
    # every vertex has its own (label, degree) pair, so all 120
    # relabelings relabel to one graph and share one search
    calls = _count_searches(monkeypatch)
    g = Graph(2, 5, (0, 0, 1, 1, 1), ((0, 4), (1, 3), (1, 4), (3, 4)))
    assert len({(g.labels[v], g.degrees[v]) for v in range(5)}) == 5
    reps = {canonical(g.relabel_vertices(perm)) for perm in permutations(range(5))}
    assert len(reps) == 1
    assert len(calls) == 1


def test_triangle_probe_searches_once_per_relabelled_graph(monkeypatch):
    # the left side of the triangle scheme's multiplicativity check: 383
    # searches; one per cache miss took 1,892
    calls = _count_searches(monkeypatch)
    tau = triangle_scheme().transformation()
    operator_apply(tau, product(LinComb.from_graph(K2), point(2, 0)), 2**14)
    assert len(calls) <= 400


def test_is_isomorphic():
    assert is_isomorphic(cycle_graph(6), Graph(2, 6, None,
        ((0, 2), (0, 4), (1, 3), (1, 5), (2, 5), (3, 4))))  # relabeled C6
    # same degree sequence, different graphs
    two_triangles = Graph(2, 6, None, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert not is_isomorphic(cycle_graph(6), two_triangles)
    assert not is_isomorphic(cycle_graph(4), path_graph(3))
    assert is_isomorphic(empty_graph(2, 0), empty_graph(2, 0))
    # labels distinguish
    assert not is_isomorphic(
        Graph(2, 2, (0, 1), ((0, 1),)), Graph(2, 2, (0, 0), ((0, 1),))
    )


@pytest.mark.parametrize("induced", [True, False])
@pytest.mark.parametrize("injective", [True, False])
def test_maps_match_brute_force(induced, injective):
    # the map sets themselves, and the counts of the densities' path, the
    # bit counts of the last position's masks: r = 1, 2 and 3, one or two
    # labels, patterns of 0-4 and hosts of 0-5 vertices
    rng = random.Random(f"maps:{induced}:{injective}")
    found = 0
    for r in (1, 2, 3):
        for _ in range(100):
            labels = rng.randint(1, 2)
            g = _random_graph(rng, r, rng.randint(0, 4), labels)
            h = _random_graph(rng, r, rng.randint(0, 5), labels)
            want = brute_maps(g, h, induced, injective)
            assert sorted(_maps(g, h, induced, injective)) == want, (g, h)
            masks = _last_masks(g, h, induced, injective)
            assert sum(mask.bit_count() for mask in masks) == len(want), (g, h)
            total = math.perm(h.n, g.n) if injective else h.n**g.n
            if total:
                density = _map_density(g, h, induced, injective)
                assert density * total == len(want), (g, h)
            found += bool(want)
    assert found >= 100


@pytest.mark.parametrize("induced, want", [(True, 6), (False, 24)])
def test_maps_whose_closing_set_repeats_an_image(induced, want):
    # 0 and 1 each complete the images of 2 and 3 to the host's one edge,
    # so they share an image. Placed before 4, they leave (0 1 4) two
    # equal images: no link, so a non-edge whatever 4 maps to. Induced,
    # 4 must avoid the edge's vertices; otherwise it goes anywhere.
    g = Graph(3, 5, None, ((0, 2, 3), (1, 2, 3)))
    h = Graph(3, 4, None, ((0, 1, 2),))
    maps = brute_maps(g, h, induced, injective=False)
    assert len(maps) == want and all(t[0] == t[1] for t in maps)
    assert sorted(_maps(g, h, induced, injective=False)) == maps
    masks = _last_masks(g, h, induced, injective=False)
    assert sum(mask.bit_count() for mask in masks) == want


def test_text_round_trip():
    cases = [
        empty_graph(2, 0),
        cycle_graph(4),
        Graph(2, 3, (1, 0, 2), ((0, 2),)),
        complete_graph(3, 4),
    ]
    for g in cases:
        assert graph_from_text(graph_to_text(g)) == g
    assert graph_to_text(cycle_graph(4)) == "graph{r=2;n=4;l=;e=(0 1)(0 3)(1 2)(2 3)}"
    assert (
        graph_to_text(Graph(2, 2, (0, 1), ((0, 1),)))
        == "graph{r=2;n=2;l=0,1;e=(0 1)}"
    )


@pytest.mark.parametrize(
    "text",
    [
        "graph{r=2;n=2;l=;e=(1 0)}",  # edge not increasing
        "graph{r=2;n=3;l=;e=(1 2)(0 1)}",  # list not sorted
        "graph{r=2;n=3;l=;e=(0 1)(0 1)}",  # repeat
        "graph{r=2;n=2;l=0;e=}",  # label count
        "graph{r=2;n=2;l=;e=(0 1}",  # malformed
        "graph{r=2;n=2;e=}",  # missing l=
        "graph{r=2;n=2;l=;e=(0 a)}",
        "graph{r=2;n=2;l=0,a;e=}",  # bad label list
        "notagraph",
        # parse at face value but do not print back to themselves
        "graph{r=2;n=2;l=0,0;e=}",  # all-zero labels are written l=
        "graph{r=2;n=2;l=;e=( 0 1 )}",
        "graph{r=2;n=2;l=;e=(+0 1)}",
        "graph{r=２;n=2;l=;e=}",  # full-width digit
        "graph{r=2;n=02;l=;e=}",  # leading zero
        "graph{r=2;n=2;l=-0,1;e=}",
        "graph{r=2;n=2;l=;e=(0  1)}",
        " graph{r=2;n=2;l=;e=(0 1)}\n",
        # more digits than `int` reads
        pytest.param(f"graph{{r=2;n={'1' * 5000};l=;e=}}", id="5000-digit n"),
        pytest.param(f"graph{{r=2;n=2;l=0,{'1' * 5000};e=}}", id="5000-digit label"),
    ],
)
def test_text_rejects(text):
    with pytest.raises(InputError):
        graph_from_text(text)


def test_relabel_vertices():
    g = Graph(2, 3, (0, 1, 2), ((0, 1),))
    h = g.relabel_vertices((2, 0, 1))
    assert h == Graph(2, 3, (1, 2, 0), ((0, 2),))
    with pytest.raises(InputError):
        g.relabel_vertices((0, 0, 1))
