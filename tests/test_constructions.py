"""Subdivision schemes, direct constructions, and label lifting."""

import random
from itertools import combinations, permutations

import pytest

from hypalg import (
    Graph,
    InputError,
    LinComb,
    SubdivisionScheme,
    alg_equal,
    blowup,
    blowup_scheme,
    box_product,
    box_scheme,
    check_symmetry,
    complete_graph,
    copies_scheme,
    crossing_scheme,
    cycle_graph,
    even_expansion,
    even_scheme,
    extend_label_set,
    functor_size,
    is_isomorphic,
    lift_labels,
    loose_expansion,
    loose_scheme,
    mixed_scheme,
    nind,
    operator_apply,
    path_graph,
    path_scheme,
    scheme_from_text,
    scheme_to_text,
    subdivide,
    triangle_scheme,
)

from hypalg import functors
from oracles import brute_check_symmetry

K2 = complete_graph(2, 2)


# ---------------------------------------------------------------------------
# symmetry checking


def test_check_symmetry_accepts_swappable_blocks():
    f = Graph(2, 4, None, ((0, 2), (0, 3), (1, 2), (1, 3)))
    assert check_symmetry(f, ((0, 1), (2, 3)))
    matching = Graph(2, 4, None, ((0, 2), (1, 3)))
    assert check_symmetry(matching, ((0, 1), (2, 3)))
    assert check_symmetry(matching, ((0, 1),))  # one block: nothing to permute


def test_check_symmetry_detects_asymmetry():
    f = Graph(2, 4, None, ((0, 2), (0, 3), (1, 3)))
    assert not check_symmetry(f, ((0, 1), (2, 3)))
    # an edge between blocks 0,1 but not 0,2 blocks the cyclic permutations
    partial = Graph(2, 3, None, ((0, 1),))
    assert not check_symmetry(partial, ((0,), (1,), (2,)))
    assert check_symmetry(complete_graph(2, 3), ((0,), (1,), (2,)))


def test_check_symmetry_input_errors():
    f = Graph(2, 4, None, ((0, 1),))
    with pytest.raises(InputError):
        check_symmetry(f, ())
    with pytest.raises(InputError):
        check_symmetry(f, ((0,), (1, 2)))
    with pytest.raises(InputError):
        check_symmetry(f, ((0,), (0,)))
    with pytest.raises(InputError):
        check_symmetry(f, ((9,),))
    with pytest.raises(InputError):
        check_symmetry(f, ((0, 1), (2, 3)))  # block {0,1} carries an edge


def _random_gadget(rng):
    """A gadget with 2 or 3 blocks of size 1 or 2 and at most 7 vertices.
    Its edges are closed under a random group of block permutations (the
    trivial one, a transposition, the rotations or all), so that all, some
    or none of the permutations are realized; privates may carry label 1."""
    r, k, size = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((1, 2))
    n = rng.randint(k * size, 7)
    sets = tuple(tuple(range(j * size, (j + 1) * size)) for j in range(k))
    group = rng.choice((
        [tuple(range(k))],
        [tuple(range(k)), (1, 0) + tuple(range(2, k))],
        [tuple((j + t) % k for j in range(k)) for t in range(k)],
        list(permutations(range(k))),
    ))

    def move(sigma, v):
        j, i = divmod(v, size)
        return sets[sigma[j]][i] if j < k else v

    edges = set()
    for e in combinations(range(n), r):
        if any(set(e) <= set(s) for s in sets) or rng.random() > 0.3:
            continue
        edges.update(tuple(sorted(move(sigma, v) for v in e)) for sigma in group)
    labels = tuple(rng.choice((0, 0, 1)) if v >= k * size else 0 for v in range(n))
    return Graph(r, n, labels, tuple(edges)), sets


def test_check_symmetry_matches_brute_force():
    rng = random.Random("check-symmetry")
    verdicts = []
    for _ in range(200):
        f, sets = _random_gadget(rng)
        verdict = check_symmetry(f, sets)
        assert verdict == brute_check_symmetry(f, sets), (f, sets)
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < 180


def test_check_symmetry_tests_both_generators():
    # only the transposition of blocks 0 and 1 is realized
    swap_only = Graph(2, 4, None, ((0, 3), (1, 3)))
    # only the rotations: b_j is joined to a_{j+1}, so reflecting reverses it
    cycle_only = Graph(2, 6, None, ((0, 5), (1, 2), (3, 4)))
    for f, sets in (
        (swap_only, ((0,), (1,), (2,))),
        (cycle_only, ((0, 1), (2, 3), (4, 5))),
    ):
        assert not check_symmetry(f, sets)
        assert not brute_check_symmetry(f, sets)


def test_edge_gadget_with_many_isolated_privates():
    # one 4-uniform edge on blocks (0 1) and (2 3), and n - 4 isolated
    # privates: the symmetry check maps only the gadget's edges, and the
    # vertex-map search keeps no frame per vertex, so 990 and more privates
    # stay clear of the recursion limit
    for n in (401, 990, 2000):
        edge = f"graph{{r=4;n={n};l=;e=(0 1 2 3)}}"
        text = f"graph{{r=4;n=2;l=;e=}}\n{edge}\nsets=(0 1)(2 3)\n"
        assert scheme_from_text(text).s_prime == n - 4
    sets = ((0, 1), (2, 3))
    verdicts = []
    for edge in ((0, 1, 2, 3), (0, 2, 4, 5), (0, 1, 2, 4), (0, 3, 4, 5)):
        f = Graph(4, 6, None, (edge,))
        verdicts.append(check_symmetry(f, sets))
        assert verdicts[-1] == brute_check_symmetry(f, sets), edge
    assert verdicts == [True, True, False, False]


def test_three_block_scheme_from_text_checks_symmetry():
    # block j is (a_j, b_j) = (j, j + 3); every b_j is joined to every other a
    text = (
        "graph{r=2;n=2;l=;e=}\n"
        "graph{r=2;n=6;l=;e=(0 4)(0 5)(1 3)(1 5)(2 3)(2 4)}\n"
        "sets=(0 3)(1 4)(2 5)\n"
    )
    scheme = scheme_from_text(text)
    assert scheme.base_r == 3
    assert brute_check_symmetry(scheme.f_e, scheme.blocks)
    # b_j joined to a_{j+1} only: the rotations alone are realized
    chiral = text.replace("(0 4)(0 5)(1 3)(1 5)(2 3)(2 4)", "(0 5)(1 3)(2 4)")
    with pytest.raises(InputError, match="not symmetric"):
        scheme_from_text(chiral)


# ---------------------------------------------------------------------------
# scheme validation and the catalog


def test_scheme_validation():
    edge = Graph(2, 2, None, ((0, 1),))
    with pytest.raises(InputError):
        SubdivisionScheme(Graph(2, 1), edge, 1)  # base uniformity too small
    with pytest.raises(InputError):
        SubdivisionScheme(Graph(2, 0), edge, 2)  # empty vertex gadget
    with pytest.raises(InputError):
        SubdivisionScheme(Graph(3, 1), edge, 2)  # gadget uniformities differ
    with pytest.raises(InputError):
        SubdivisionScheme(Graph(2, 1, (1,)), edge, 2)  # labeled gadget
    with pytest.raises(InputError):
        SubdivisionScheme(Graph(2, 2), Graph(2, 3), 2)  # too few gadget vertices
    with pytest.raises(InputError):  # blocks not swappable
        SubdivisionScheme(
            Graph(2, 2), Graph(2, 4, None, ((0, 2), (0, 3), (1, 3))), 2
        )


def test_scheme_shapes():
    assert box_scheme().m == 2 and box_scheme().s_prime == 0
    assert path_scheme(3).s_prime == 2
    assert triangle_scheme().s_prime == 1
    assert loose_scheme(5).s_prime == 3
    assert even_scheme(6).m == 3 and even_scheme(6).s_prime == 0
    assert mixed_scheme(5, 2).s_prime == 1
    assert blowup_scheme(3).blocks == ((0, 1, 2), (3, 4, 5))


@pytest.mark.parametrize(
    "make, args",
    [
        (blowup_scheme, (0,)),
        (copies_scheme, (0,)),
        (path_scheme, (0,)),
        (mixed_scheme, (3, 0)),
        (mixed_scheme, (3, 2)),
        (loose_scheme, (2,)),
        (even_scheme, (3,)),
    ],
)
def test_catalog_rejects(make, args):
    with pytest.raises(InputError):
        make(*args)


# ---------------------------------------------------------------------------
# subdivision


def test_subdivide_frozen_small_cases():
    assert subdivide(box_scheme(), K2) == Graph(
        2, 4, None, ((0, 1), (0, 2), (1, 3), (2, 3))
    )
    assert subdivide(triangle_scheme(), K2) == complete_graph(2, 3)
    assert is_isomorphic(subdivide(box_scheme(), K2), cycle_graph(4))
    assert is_isomorphic(subdivide(blowup_scheme(2), K2), cycle_graph(4))
    assert is_isomorphic(subdivide(path_scheme(2), cycle_graph(4)), cycle_graph(8))
    assert is_isomorphic(subdivide(path_scheme(3), cycle_graph(3)), cycle_graph(9))
    two = subdivide(copies_scheme(2), path_graph(2))
    assert is_isomorphic(two, Graph(2, 6, None, ((0, 2), (2, 4), (1, 3), (3, 5))))


def test_subdivide_rejects():
    with pytest.raises(InputError):
        subdivide(box_scheme(), complete_graph(3, 3))
    with pytest.raises(InputError):
        subdivide(box_scheme(), Graph(2, 2, (0, 1), ((0, 1),)))


def test_subdivide_matches_direct_blowup():
    for m, g in [(2, K2), (2, path_graph(2)), (3, K2)]:
        assert subdivide(blowup_scheme(m), g) == blowup(g, m)


def test_subdivide_matches_direct_expansions():
    p2 = path_graph(2)
    assert subdivide(loose_scheme(3), p2) == loose_expansion(p2, 3)
    assert subdivide(loose_scheme(4), K2) == loose_expansion(K2, 4)
    assert subdivide(even_scheme(4), p2) == even_expansion(p2, 4)
    assert subdivide(even_scheme(6), K2) == even_expansion(K2, 6)
    assert loose_expansion(p2, 3) == Graph(
        3, 5, None, ((0, 1, 3), (1, 2, 4))
    )
    assert even_expansion(K2, 4) == Graph(4, 4, None, ((0, 1, 2, 3),))


def test_direct_expansion_is_the_mixed_subdivision():
    # the harness's direct construction, for every (r, m): blocks of m per
    # vertex, then r-2m privates per edge in sorted edge order
    from hypalg.constructions import _expansion

    assert _expansion(path_graph(2), 5, 2) == Graph(
        5, 8, None, ((0, 1, 2, 3, 6), (2, 3, 4, 5, 7))
    )
    rng = random.Random("direct expansion")
    schemes = {}
    for _ in range(300):
        n = rng.randint(0, 7)
        slots = list(combinations(range(n), 2))
        g = Graph(2, n, None, tuple(e for e in slots if rng.random() < 0.5))
        r = rng.randint(2, 7)
        m = rng.randint(1, r // 2)
        if (r, m) not in schemes:
            schemes[r, m] = mixed_scheme(r, m)
        direct = _expansion(g, r, m)
        assert direct == subdivide(schemes[r, m], g)
        if m == 1 and r >= 3:
            assert direct == loose_expansion(g, r)
        if 2 * m == r:
            assert direct == even_expansion(g, r)


def test_subdivide_matches_box_product():
    for g in [path_graph(2), cycle_graph(4)]:
        assert subdivide(box_scheme(), g) == box_product(g, K2)
    # verify_box and verify_tensor_power compare these graphs by `==`:
    # subdivide and box_product both put vertex (v, i) at index v*m + i
    rng = random.Random(19001)
    for _ in range(60):
        n = rng.randint(0, 6)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.5)
        g = Graph(2, n, None, edges)
        assert subdivide(box_scheme(), g) == box_product(g, K2)
        s = rng.randint(1, 3)
        assert subdivide(copies_scheme(s), g) == box_product(g, Graph(2, s))


def test_crossing_differs_from_box():
    sub = subdivide(crossing_scheme(), path_graph(2))
    assert sub.e == box_product(path_graph(2), K2).e
    assert is_isomorphic(sub, box_product(path_graph(2), K2))
    # on an odd cycle the parallel and crossed wirings genuinely differ
    assert not is_isomorphic(
        subdivide(crossing_scheme(), cycle_graph(3)),
        subdivide(box_scheme(), cycle_graph(3)),
    )


# ---------------------------------------------------------------------------
# direct constructions


def test_blowup_replicates_labels_and_edges():
    g = Graph(2, 2, (3, 5), ((0, 1),))
    b = blowup(g, 2)
    assert b == Graph(2, 4, (3, 3, 5, 5), ((0, 2), (0, 3), (1, 2), (1, 3)))
    assert blowup(g, 1) == g
    assert blowup(complete_graph(3, 3), 2).e == 8
    with pytest.raises(InputError):
        blowup(g, 0)


def test_box_product_grid_and_cube():
    grid = box_product(path_graph(2), K2)
    direct = Graph(2, 6, None, ((0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)))
    assert grid.e == 7
    assert is_isomorphic(grid, direct)
    cube = box_product(cycle_graph(4), K2)
    bits = [(x, y) for x in range(8) for y in range(8) if bin(x ^ y).count("1") == 1]
    hamming = Graph(2, 8, None, tuple((x, y) for x, y in bits if x < y))
    assert cube.e == 12
    assert is_isomorphic(cube, hamming)
    with pytest.raises(InputError):
        box_product(complete_graph(3, 3), K2)


def test_expansion_rejects():
    with pytest.raises(InputError):
        loose_expansion(K2, 2)
    with pytest.raises(InputError):
        loose_expansion(complete_graph(3, 3), 4)
    with pytest.raises(InputError):
        even_expansion(K2, 3)
    with pytest.raises(InputError):
        even_expansion(complete_graph(3, 3), 4)


# ---------------------------------------------------------------------------
# closed-form behaviour of scheme operators


_CATALOG = {
    "blowup:1": blowup_scheme(1),
    "blowup:2": blowup_scheme(2),
    "copies:2": copies_scheme(2),
    "path:2": path_scheme(2),
    "triangle": triangle_scheme(),
    "box": box_scheme(),
    "crossing": crossing_scheme(),
    "loose:3": loose_scheme(3),
    "even:4": even_scheme(4),
}


_BASES = {"point": Graph(2, 1), "K2": K2, "P2": path_graph(2)}


def _swap_sides(scheme, labeled, g):
    """The operator's enumerated image of nind(g), and nind of the
    subdivided graph over the operator's labels."""
    tau = scheme.transformation(labeled=labeled)
    image = operator_apply(tau, extend_label_set(nind(g), tau.base_labels))
    return image, nind(LinComb.from_graph(subdivide(scheme, g), tau.labels))


@pytest.mark.parametrize(
    "name, labeled, base",
    [(name, False, "K2") for name in _CATALOG]
    + [(name, False, "P2") for name in ("copies:2", "path:2", "box")]
    + [(name, True, base) for name in ("box", "crossing") for base in ("point", "K2")],
)
def test_swap_matches_nind_of_the_subdivided_graph(name, labeled, base):
    assert alg_equal(*_swap_sides(_CATALOG[name], labeled, _BASES[base]))


_LEMMA_BASES = {
    **_BASES,
    "K3": complete_graph(2, 3),
    "E0": Graph(2, 0),
    "K2+K1": Graph(2, 3, None, ((0, 1),)),
}


@pytest.mark.parametrize(
    "name, labeled, base",
    [("copies:2", False, b) for b in ("K2", "P2", "K3", "E0", "K2+K1")]
    # copies:3 on P2, K3 and K2+K1 leaves 2^27 to 2^33 completions, past the
    # default budget; loose:3 on P2 takes about 7 s for 2,128 classes
    + [("copies:3", False, b) for b in ("K2", "E0")]
    + [
        (name, False, b)
        for name in _CATALOG
        for b in ("K2", "P2")
        if (name, b) != ("loose:3", "P2")
    ]
    + [("box", True, b) for b in ("K2", "P2")],
)
def test_operator_sends_a_supergraph_sum_to_that_of_the_forced_graph(name, labeled, base):
    # the lemma at functors._forced_slots, literally: the enumerated preimage
    # sum of nind(g) is nind(F(g)), coefficient for coefficient
    scheme = copies_scheme(3) if name == "copies:3" else _CATALOG[name]
    tau, g = scheme.transformation(labeled=labeled), _LEMMA_BASES[base]
    image = operator_apply(tau, extend_label_set(nind(g), tau.base_labels))
    slots = functors._forced_slots(tau, g)
    forced = Graph(tau.r, functor_size(tau.eta, g.n), None, tuple(slots))
    assert image.coeffs == nind(forced).coeffs


def _g(r, n, *edges):
    return Graph(r, n, None, edges)


@pytest.mark.parametrize(
    "scheme, unlabeled, labeled, vertex",
    [
        (
            box_scheme(),
            _g(2, 4, (0, 1), (0, 2), (1, 3), (2, 3)),
            _g(2, 4, (0, 2), (1, 3)),
            K2,
        ),
        (
            crossing_scheme(),
            _g(2, 4, (0, 1), (0, 3), (1, 2), (2, 3)),
            _g(2, 4, (0, 3), (1, 2)),
            K2,
        ),
        (path_scheme(1), K2, K2, _g(2, 1)),
        (path_scheme(2), _g(2, 3, (0, 2), (1, 2)), _g(2, 3, (0, 2), (1, 2)), _g(2, 1)),
        (
            blowup_scheme(2),
            _g(2, 4, (0, 2), (0, 3), (1, 2), (1, 3)),
            _g(2, 4, (0, 2), (0, 3), (1, 2), (1, 3)),
            _g(2, 2),
        ),
        (copies_scheme(2), _g(2, 4, (0, 2), (1, 3)), _g(2, 4, (0, 2), (1, 3)), _g(2, 2)),
        (mixed_scheme(5, 2), _g(5, 5, range(5)), _g(5, 5, range(5)), _g(5, 2)),
    ],
    ids=["box", "crossing", "path:1", "path:2", "blowup:2", "copies:2", "mixed:5,2"],
)
def test_transformation_rules_are_the_pinned_templates(scheme, unlabeled, labeled, vertex):
    # literals, not `subdivide`: a change to its layout must not carry the
    # unlabelled edge rule along unnoticed
    tau = scheme.transformation()
    assert (tau.edge_template, tau.vertex_rules) == (unlabeled, ())
    assert (tau.base_labels, tau.default_label) == ({0}, 0)
    tau = scheme.transformation(labeled=True)
    assert (tau.edge_template, tau.vertex_rules) == (labeled, ((0, vertex),))
    assert (tau.base_labels, tau.default_label) == ({0, 1}, 1)


def test_unlabeled_swap_fails_on_an_isolated_vertex_only_with_an_edged_vertex_gadget():
    # no unlabeled rule reads an isolated vertex's block, so box's preimage
    # sum holds that block with and without its vertex gadget's edge, while
    # subdividing puts the edge in; loose:3's vertex gadget is edgeless
    assert not alg_equal(*_swap_sides(_CATALOG["box"], False, _BASES["point"]))
    assert alg_equal(*_swap_sides(_CATALOG["loose:3"], False, _BASES["point"]))


# ---------------------------------------------------------------------------
# label lifting


def test_lift_labels_frozen():
    f = nind(LinComb.from_graph(path_graph(2)))
    lifted = lift_labels(f, 1)
    assert lifted == extend_label_set(f, {0, 1})
    assert lifted.label_set == frozenset({0, 1})
    # a Graph is read as the algebra reads it, as its one-term combination
    assert lift_labels(K2, 1) == lift_labels(LinComb.from_graph(K2), 1)


def test_lift_labels_rejects():
    mixed = LinComb.from_graph(K2) + LinComb.from_graph(Graph(2, 1))
    with pytest.raises(InputError):
        lift_labels(mixed, 1)  # mixed orders
    with pytest.raises(InputError):
        lift_labels(LinComb.from_graph(K2), 0)  # label already present
    with pytest.raises(InputError, match="^expected LinComb, UniformRep or Graph, got str$"):
        lift_labels("not an element", 1)


# ---------------------------------------------------------------------------
# scheme files


def test_scheme_text_round_trip():
    for scheme in [
        blowup_scheme(2),
        copies_scheme(3),
        path_scheme(2),
        box_scheme(),
        crossing_scheme(),
        triangle_scheme(),
        loose_scheme(3),
        even_scheme(4),
        mixed_scheme(5, 2),
    ]:
        assert scheme_from_text(scheme_to_text(scheme)) == scheme


def test_scheme_text_accepts_scrambled_block_positions():
    text = (
        "graph{r=2;n=1;l=;e=}\n"
        "# blocks listed out of writer order\n"
        "graph{r=2;n=3;l=;e=(0 1)(1 2)}\n"
        "sets=(0)(2)\n"
    )
    assert scheme_from_text(text) == path_scheme(2)


@pytest.mark.parametrize(
    "text",
    [
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\n",  # no sets=
        "graph{r=2;n=1;l=;e=}\nsets=(0)(1)\n",  # one graph line
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(1\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(0)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0 1)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(9)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(x)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\n"
        "sets=(0)(1)\nsets=(0)(1)\n",
        # only the first block fits the gadget
        "graph{r=2;n=2;l=;e=}\ngraph{r=2;n=4;l=;e=(0 2)(1 3)}\nsets=(0 1)(2)\n",
        # blocks in the grammar of a graph literal's edges only
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(01)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=( 0)(1)\n",
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(１)\n",
        # a gadget literal that does not print back to itself
        "graph{r=2;n=1;l=0;e=}\ngraph{r=2;n=2;l=;e=(0 1)}\nsets=(0)(1)\n",
    ],
)
def test_scheme_text_rejects(text):
    with pytest.raises(InputError):
        scheme_from_text(text)
