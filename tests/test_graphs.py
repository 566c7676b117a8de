"""Graph values, canonical representatives, isomorphism, text format."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hypalg import (
    Graph,
    Injection,
    InputError,
    LabeledLift,
    LinComb,
    Operator,
    SubdivisionScheme,
    SubsetsF,
    UniformRep,
    UpwardTransformation,
    automorphism_count,
    canonical,
    complement,
    complete_bipartite,
    complete_graph,
    contains,
    cycle_graph,
    empty_graph,
    graph_from_text,
    graph_to_text,
    check_symmetry,
    extend_label_set,
    induced_subgraph,
    is_isomorphic,
    lift,
    lift_labels,
    lincomb_from_text,
    nind,
    path_graph,
    single_vertex,
    unit,
)
from hypalg import (
    apply_functor_set,
    blowup,
    blowup_density_curve,
    blowup_scheme,
    copies_scheme,
    drop_labels,
    even_expansion,
    even_scheme,
    functor_size,
    loose_expansion,
    loose_scheme,
    mixed_scheme,
    operator_apply,
    path_scheme,
    point,
    product,
    triangle_scheme,
    verify_forcing_pair_operator,
    verify_hypergraph,
    verify_tensor_power,
)
import hypalg.graphs as graph_module
from hypalg.graphs import _maps
from oracles import brute_canonical, brute_maps, reference_canonical

K2 = complete_graph(2, 2)


def test_edge_normalization():
    g = Graph(2, 4, None, ((3, 1), (0, 2), (1, 3), (2, 0)))
    assert g.edges == ((0, 2), (1, 3))
    assert g.labels == (0, 0, 0, 0)
    assert g.e == 2
    assert g.has_edge((3, 1))
    assert not g.has_edge((0, 1))


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
        (lambda: Injection(2, 3, (0.9, 1.5)), "image must be ints, got (0.9, 1.5)"),
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
            lambda: LabeledLift.of(nind(complete_graph(2, 2)), Fraction(1)),
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
            lambda: Operator(_edge_rule(), budget=2.5),
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
        (lambda: blowup_density_curve(K2, K2, 2.0), "n_max must be ints, got (2.0,)"),
        (
            lambda: verify_forcing_pair_operator(3.0),
            "path length must be ints, got (3.0,)",
        ),
        (lambda: Injection.identity(2.0), "size must be ints, got (2.0,)"),
        (
            lambda: Injection(2.0, 3, (0, 1)),
            "source and target sizes must be ints, got (2.0, 3)",
        ),
        (lambda: drop_labels(K2, 1.5), "label must be ints, got (1.5,)"),
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
        (
            lambda: blowup_density_curve(K2, K2, 2, cap="x"),
            "cap must be ints, got ('x',)",
        ),
        (lambda: complete_bipartite(-1, 3), "part sizes must be >= 0, got -1"),
        (lambda: complete_bipartite(2, -1), "part sizes must be >= 0, got -1"),
        (
            lambda: path_graph(2).relabel_vertices((1.0, 0.0, 2.0)),
            "relabeling must be ints, got (1.0, 0.0, 2.0)",
        ),
        (lambda: _edge_rule(labels=frozenset()), "labels must be nonempty"),
        (lambda: K2.has_edge(("a", 1)), "edge vertices must be ints, got ('a', 1)"),
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


def test_cached_functor_sets_reject_non_ints():
    # 2.0 == 2 with one hash, so an untyped cache would return the entry of 2
    assert apply_functor_set(SubsetsF(1), 2) == ((0,), (1,))
    with pytest.raises(InputError, match="must be ints"):
        apply_functor_set(SubsetsF(1), 2.0)


def test_entry_points_accept_bools_as_ints():
    assert LinComb(2, (False, True)).label_set == frozenset({0, 1})
    assert Injection(1, 2, (True,)).image == (1,)
    assert _edge_rule(labels=(0, True)).labels == frozenset({0, 1})
    assert LinComb.zero(True).r == 1
    assert Operator(_edge_rule(), budget=True).budget
    assert type(SubsetsF(True).k) is int
    assert lift(unit(2), True).n == 1


def test_injection_basics():
    alpha = Injection(2, 4, (3, 1))
    assert alpha(0) == 3 and alpha(1) == 1
    beta = Injection(2, 2, (1, 0))
    assert alpha.compose(beta).image == (1, 3)
    assert Injection.identity(3).image == (0, 1, 2)
    with pytest.raises(InputError):
        Injection(2, 4, (1, 1))
    with pytest.raises(InputError):
        Injection(2, 2, (0, 2))
    with pytest.raises(InputError):
        beta.compose(alpha)  # sizes don't line up


def test_induced_subgraph():
    c4 = cycle_graph(4)
    sub = induced_subgraph(c4, Injection(3, 4, (0, 1, 2)))
    assert sub == path_graph(2)
    labeled = Graph(2, 3, (0, 1, 0), ((0, 1), (1, 2)))
    sub2 = induced_subgraph(labeled, Injection(2, 3, (2, 1)))
    assert sub2 == Graph(2, 2, (0, 1), ((0, 1),))
    with pytest.raises(InputError):
        induced_subgraph(c4, Injection(2, 3, (0, 1)))


def test_contains_and_complement():
    assert contains(complete_graph(2, 3), path_graph(2))
    assert not contains(path_graph(2), complete_graph(2, 3))
    assert not contains(Graph(2, 3, (1, 0, 0), ((0, 1),)), empty_graph(2, 3))
    assert complement(empty_graph(2, 4)) == complete_graph(2, 4)
    assert complement(complement(cycle_graph(5))) == cycle_graph(5)


def test_catalog_shapes():
    assert cycle_graph(3) == complete_graph(2, 3)
    assert path_graph(0) == single_vertex()
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
    assert automorphism_count(g) == aut
    assert brute_canonical(g)[1] == aut


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
    assert automorphism_count(g) == brute_canonical(g)[1]


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
    # the left side of the triangle scheme's multiplicativity probe: 383
    # searches; one per cache miss took 1,892
    calls = _count_searches(monkeypatch)
    op = Operator(triangle_scheme().operator().tau, 2**14)
    operator_apply(op, product(LinComb.from_graph(K2), point(2, 0)))
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
    # the map sets themselves, not only their counts: r = 1, 2 and 3, one or
    # two labels, patterns of 0-4 and hosts of 0-5 vertices
    rng = random.Random(f"maps:{induced}:{injective}")
    found = 0
    for r in (1, 2, 3):
        for _ in range(100):
            labels = rng.randint(1, 2)
            g = _random_graph(rng, r, rng.randint(0, 4), labels)
            h = _random_graph(rng, r, rng.randint(0, 5), labels)
            want = brute_maps(g, h, induced, injective)
            assert sorted(_maps(g, h, induced, injective)) == want, (g, h)
            found += bool(want)
    assert found >= 100


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
