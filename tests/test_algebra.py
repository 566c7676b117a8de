"""The linear-combination algebra: product, supergraph sums, lifting,
quotient equality, evaluation, text format."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hypalg import (
    Graph,
    InputError,
    LinComb,
    UniformRep,
    alg_equal,
    box_scheme,
    coeff_positive_at,
    complete_graph,
    copies_scheme,
    cycle_graph,
    empty_graph,
    eval_quasirandom,
    extend_label_set,
    lift,
    lincomb_from_text,
    lincomb_to_text,
    nind,
    operator_apply,
    order,
    path_graph,
    point,
    point_sum,
    product,
    unit,
)
from hypalg import algebra
from hypalg.graphs import _moved, canonical
from oracles import brute_class, brute_lift, brute_nind, brute_product, burnside_class_count
from property_suites import _random_graph, run_alg_equal_one_order

K2 = complete_graph(2, 2)
P2 = path_graph(2)
K3 = complete_graph(2, 3)
I3 = empty_graph(2, 3)
P2C = Graph(2, 3, None, ((0, 1),))  # one edge plus an isolated vertex


def test_lincomb_merges_isomorphic_keys():
    a = Graph(2, 3, None, ((0, 1), (1, 2)))
    b = Graph(2, 3, None, ((0, 2), (1, 2)))
    f = LinComb(2, {0}, {a: 1, b: 2})
    assert len(f.coeffs) == 1
    assert f.coefficient(a) == 3


def test_lincomb_drops_zeros():
    f = LinComb.from_graph(K2) - LinComb.from_graph(K2)
    assert not f
    assert f == LinComb.zero(2)


def test_lincomb_validation():
    with pytest.raises(InputError):
        LinComb(2, {0}, {Graph(3, 3, None, ((0, 1, 2),)): 1})
    with pytest.raises(InputError):
        LinComb(2, {0}, {Graph(2, 2, (0, 1), ((0, 1),)): 1})  # label outside
    with pytest.raises(InputError):
        LinComb(2, set(), {})
    with pytest.raises(InputError):
        LinComb.from_graph(K2, coeff=0.5)  # floats refused
    with pytest.raises(InputError, match="terms must be Graphs"):
        LinComb(2, {0}, {"x": 1})


def test_compatibility_checks():
    with pytest.raises(InputError):
        LinComb.from_graph(K2) + LinComb.from_graph(complete_graph(3, 3))
    with pytest.raises(InputError):
        unit(2) + unit(2, {0, 1})


def test_scalar_and_vector_ops():
    f = 2 * LinComb.from_graph(K2) + Fraction(1, 3) * unit(2)
    assert f.coefficient(K2) == 2
    assert f.coefficient(empty_graph(2, 0)) == Fraction(1, 3)
    assert (-f).coefficient(K2) == -2
    assert (f - f) == LinComb.zero(2)
    # a zero scalar leaves no terms, an int or a Fraction alike
    assert 0 * f == Fraction(0) * f == LinComb.zero(2)
    assert not (0 * f).coeffs
    assert f * 3 == 3 * f
    assert f * unit(2) == product(f, unit(2)) == f


def test_product_unit_identity():
    f = LinComb.from_graph(P2) + 3 * LinComb.from_graph(K2)
    assert product(unit(2), f) == f
    assert product(f, unit(2)) == f


def test_product_edge_times_point():
    got = product(LinComb.from_graph(K2), point(2, 0))
    expected = (
        LinComb.from_graph(K3)
        + 2 * LinComb.from_graph(P2)
        + LinComb.from_graph(P2C)
    )
    assert got == expected


def test_product_respects_labels():
    f = LinComb.from_graph(Graph(2, 1, (1,)), {0, 1})
    g = point(2, 0, {0, 1})
    got = product(f, g)
    assert got == (
        LinComb.from_graph(Graph(2, 2, (0, 1), ((0, 1),)), {0, 1})
        + LinComb.from_graph(Graph(2, 2, (0, 1)), {0, 1})
    )


def test_nind_frozen():
    assert nind(P2) == LinComb.from_graph(P2) + LinComb.from_graph(K3)
    assert nind(empty_graph(2, 2)) == LinComb.from_graph(
        empty_graph(2, 2)
    ) + LinComb.from_graph(K2)
    assert nind(complete_graph(2, 4)).coeffs == {complete_graph(2, 4): Fraction(1)}
    # labels ride along
    lab = Graph(2, 2, (0, 1), ())
    got = nind(LinComb.from_graph(lab, {0, 1}))
    assert got.coefficient(Graph(2, 2, (0, 1), ((0, 1),))) == 1
    assert len(got.coeffs) == 2
    # a label set given with a combination must be the combination's own
    assert nind(LinComb.from_graph(K2), {0}) == nind(K2)
    assert nind(K2, {0, 1}).label_set == {0, 1}
    with pytest.raises(InputError, match="label set"):
        nind(LinComb.from_graph(K2), {0, 1})


def test_unit_expansion_order_three():
    got = lift(unit(2), 3)
    assert isinstance(got, UniformRep) and got.n == 3
    expected = (
        LinComb.from_graph(K3)
        + 3 * LinComb.from_graph(P2)
        + 3 * LinComb.from_graph(P2C)
        + LinComb.from_graph(I3)
    )
    assert got.lincomb == expected


def test_lift_step_consistency():
    # lifting in two stages equals lifting directly, as identical dicts
    f = LinComb.from_graph(K2) - Fraction(1, 2) * unit(2)
    assert lift(lift(f, 3).lincomb, 5).lincomb == lift(f, 5).lincomb
    # representations compare by order and element, and print both
    rep = lift(f, 3)
    assert rep == lift(f, 3) and rep != lift(f, 4) and rep != rep.lincomb
    assert repr(f) == lincomb_to_text(f)
    assert repr(rep) == f"UniformRep(n=3, {lincomb_to_text(rep.lincomb)})"
    with pytest.raises(InputError):
        lift(nind(K3), 2)


def test_lift_multi_label():
    f = point(2, 1, {0, 1})
    rep = lift(f, 2)
    # each one-vertex class extends over 2 labels x 2 edge choices
    assert sum(rep.lincomb.coeffs.values()) == 4
    assert order(rep.lincomb) == 2


@pytest.mark.parametrize("r, n, u", [(2, 7, 1), (3, 6, 1), (2, 5, 2)])
def test_unit_lift_counts_past_the_brute_force_reach(r, n, u):
    # the unit lifted to order n has one term per class H, of coefficient
    # n!/|Aut(H)|, the number of labelled graphs on [n] in that class
    rep = lift(unit(r, frozenset(range(u))), n).lincomb
    assert len(rep.coeffs) == burnside_class_count(r, n, u)
    for h, c in rep.coeffs.items():
        assert c == math.factorial(n) // canonical(h)[1]
    assert sum(rep.coeffs.values()) == 2 ** math.comb(n, r) * u**n


def _by_brute_class(f: LinComb) -> dict:
    """f's coefficients keyed by brute-force class representatives; the
    package keeps one key per class, so no two keys may collide."""
    out = {brute_class(g): c for g, c in f.coeffs.items()}
    assert len(out) == len(f.coeffs)
    return out


@pytest.mark.parametrize(
    "r, label_set, max_class, max_n",
    [
        (2, {0}, 3, 5),
        (2, {0, 1}, 3, 4),
        (3, {0}, 4, 4),
        (3, {0, 1}, 3, 4),
        (1, {0, 1}, 2, 3),  # a single vertex may carry an edge
    ],
)
def test_product_nind_lift_match_brute_force(r, label_set, max_class, max_n):
    # every class of order <= max_class, as the order-k lifts of the unit
    classes = [
        LinComb.from_graph(g, label_set)
        for k in range(max_class + 1)
        for g in brute_lift(unit(r, label_set), k)
    ]
    mixed = (
        2 * classes[-1]
        - Fraction(1, 2) * classes[1]
        + unit(r, label_set)
        - point_sum(r, label_set)  # cancels against the unit once lifted
    )
    for f in classes + [mixed]:
        assert _by_brute_class(nind(f)) == brute_nind(f)
        for n in range(order(f), max_n + 1):
            assert _by_brute_class(lift(f, n).lincomb) == brute_lift(f, n)
        for g in classes:
            if order(f) + order(g) <= max_n:
                assert _by_brute_class(product(f, g)) == brute_product(f, g)


@pytest.mark.parametrize(
    "f, g",
    [
        # a nontrivial group on one factor only, two labels
        (
            LinComb(2, {0, 1}, {K3: 1}),
            LinComb(2, {0, 1}, {Graph(2, 2, (0, 1), ((0, 1),)): 1}),
        ),
        # nontrivial groups on both factors
        (LinComb(2, {0}, {P2: 2}), LinComb(2, {0}, {K2: -1})),
        # both, with two labels
        (
            LinComb(2, {0, 1}, {Graph(2, 3, (0, 1, 0), ((0, 1), (1, 2))): 1}),
            LinComb(2, {0, 1}, {Graph(2, 2, (1, 1)): 3}),
        ),
        # r = 3: 9 cross 3-sets
        (LinComb.from_graph(complete_graph(3, 3)), LinComb.from_graph(empty_graph(3, 2))),
    ],
)
def test_orbit_reduced_products_match_brute_force(f, g):
    # each pair of terms has >= 6 cross r-sets and a nontrivial
    # Aut(F) x Aut(G), so the product canonicalises one subset per orbit
    assert _by_brute_class(product(f, g)) == brute_product(f, g)


@pytest.mark.parametrize(
    "g, label_set",
    [
        (Graph(2, 5, None, ((0, 1), (1, 2))), {0}),  # P2 + 2K1: 8 missing
        (Graph(3, 5, None, ((0, 1, 2),)), {0}),  # one 3-edge: 9 missing
        (Graph(2, 5, (0, 0, 1, 1, 1), ((0, 1),)), {0, 1}),  # K2 + 3K1: 9 missing
    ],
)
def test_orbit_reduced_nind_matches_brute_force(g, label_set):
    # >= 6 missing r-sets and a nontrivial Aut(g), so nind canonicalises
    # one supergraph per orbit
    f = LinComb.from_graph(g, label_set)
    assert _by_brute_class(nind(f)) == brute_nind(f)


def test_aut_lists_the_product_of_the_factor_groups():
    # P2, K2 and a point side by side on [6]: 2 * 2 * 1 distinct elements, each
    # fixing the union's edges; a trivial factor is not searched
    union = (0, 1), (1, 2), (3, 4)
    maps = algebra._aut((P2, K2, Graph(2, 1)))
    assert len(set(maps)) == len(maps) == 4
    for p in maps:
        assert sorted(tuple(sorted(p[v] for v in e)) for e in union) == list(union)


def _orbit_subset_cases():
    """(free, maps, groups) inputs of `_orbit_subsets`: the plain loop, the
    groups `_aut` lists for small graphs and products, and random
    constraint groups closed under the group."""
    rng = random.Random("orbit subsets")
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3)]
    yield pairs, (), ()
    # the identity alone, with a constraint group: the depth-first search
    yield pairs, [(0, 1, 2, 3)], [frozenset(pairs[:2])]
    factor_lists = [
        (P2,),
        (Graph(2, 4, None, ((0, 1), (2, 3))),),
        (Graph(2, 4, (0, 1, 0, 1), ((0, 1),)),),
        (Graph(3, 4, None, ((0, 1, 2),)),),
        (K2, K2),
        (P2, K2),
        (empty_graph(2, 3), K2),
        (K2, Graph(2, 1), Graph(2, 1)),
        (complete_graph(3, 3), empty_graph(3, 2)),
    ]
    for _ in range(12):
        r, n = rng.choice(((2, 4), (2, 5), (3, 4), (3, 5)))
        edges = [e for e in combinations(range(n), r) if rng.random() < 0.3]
        factor_lists.append((Graph(r, n, [rng.randint(0, 1) for _ in range(n)], edges),))
    for factors in factor_lists:
        r = factors[0].r
        maps = algebra._aut(factors)
        n, edges, cut = 0, set(), []
        for h in factors:
            edges |= {tuple(v + n for v in e) for e in h.edges}
            n += h.n
            cut.append(n)
        # non-edges of the union, as in nind; and the r-sets meeting two
        # factors, as in a product
        frees = [[e for e in combinations(range(n), r) if e not in edges]]
        if len(factors) > 1:
            frees.append([e for e in frees[0] if any(e[0] < c <= e[-1] for c in cut)])
        for free in frees:
            if len(free) <= 10:
                yield from _with_groups(rng, free, maps)
    # past that cut, where the search prunes deep prefixes: 3K2 (12 free
    # pairs, |G| = 48) and the edgeless 5-vertex graph (10, |G| = 120)
    for g in (Graph(2, 6, None, ((0, 1), (2, 3), (4, 5))), empty_graph(2, 5)):
        free = [e for e in combinations(range(g.n), 2) if e not in g.edge_set]
        yield from _with_groups(rng, free, algebra._aut((g,)))


def _with_groups(rng, free, maps):
    """(free, maps, groups) without groups, then with two seeded sets of
    groups, each group's images under `maps` added, so closed under them."""
    yield free, maps, ()
    for _ in range(2):
        groups = set()
        for _ in range(rng.randint(1, 3)):
            some = rng.sample(free, min(len(free), rng.randint(1, 3)))
            groups |= {frozenset(_moved(p, some)) for p in maps}
        yield free, maps, sorted(groups, key=sorted)


def test_orbit_subsets_matches_brute_force():
    for free, maps, groups in _orbit_subset_cases():
        index = {e: i for i, e in enumerate(free)}

        def valid(s):
            return not any(grp <= s for grp in groups)

        seen = set()
        total = 0
        for subset, size in algebra._orbit_subsets(free, maps, groups):
            positions = [index[e] for e in subset]
            assert positions == sorted(set(positions)), (free, subset)
            s = frozenset(subset)
            assert valid(s), (groups, subset)
            images = {frozenset(_moved(p, subset)) for p in maps} or {s}
            assert size == len(images), (maps, subset)
            assert not images & seen, (maps, subset)
            seen |= images
            total += size
        want = sum(
            valid(frozenset(c)) for k in range(len(free) + 1) for c in combinations(free, k)
        )
        assert total == want, (free, maps, groups)


def test_nind_of_the_edgeless_graph_is_the_lifted_unit():
    # one orbit search over 15 free pairs under Sym(6) against products with
    # a point, below the 6-slot threshold, with no group listed
    sums = nind(empty_graph(2, 6))
    assert sums == lift(unit(2), 6).lincomb
    assert len(sums.coeffs) == burnside_class_count(2, 6) == 156
    assert sum(sums.coeffs.values()) == 2**15


def test_nind_canonicalises_one_supergraph_per_orbit(monkeypatch):
    # 3K2: 12 missing pairs under a group of order 48. One canonical form per
    # orbit takes 146 calls; every supergraph took 4,097
    calls = []

    def counting(h):
        calls.append(h)
        return canonical(h)

    monkeypatch.setattr(algebra, "canonical", counting)
    algebra._spanned.cache_clear()  # the tensor tests also build nind(3K2)
    nind(Graph(2, 6, None, ((0, 1), (2, 3), (4, 5))))
    assert len(calls) <= 150


def test_a_repeated_product_nind_or_lift_canonicalises_nothing(monkeypatch):
    # each factor tuple is tallied once per process: the second identical
    # call reads every tally back, with the same terms in the same order
    f = LinComb(2, {0, 1}, {P2: 2, Graph(2, 2, (0, 1), ((0, 1),)): -1})
    g = LinComb(2, {0, 1}, {K2: 1, Graph(2, 1, (1,)): Fraction(1, 2)})
    calls = []

    def counting(h):
        calls.append(h)
        return canonical(h)

    monkeypatch.setattr(algebra, "canonical", counting)
    algebra._spanned.cache_clear()
    cold = [product(f, g), nind(f), lift(f, 5).lincomb]
    assert calls
    calls.clear()
    warm = [product(f, g), nind(f), lift(f, 5).lincomb]
    assert not calls
    for a, b in zip(cold, warm):
        assert a == b and list(a.coeffs) == list(b.coeffs)


def test_cached_tallies_give_the_cold_results():
    # seeded products, supergraph sums and lifts, each on an empty tally
    # cache, then all again, in reverse, on the cache they filled
    rng = random.Random("spanned tallies")
    cases = []
    for r, n_max in ((2, 3), (3, 2)):
        for labels in ((0,), (0, 1)):

            def lincomb():
                terms = (_random_graph(rng, n_max, (r,), True, labels) for _ in range(2))
                return LinComb(r, labels, {h: rng.randint(-3, 3) for h in terms})

            cases += [(lincomb(), lincomb()) for _ in range(3)]

    def results(f, g):
        values = product(f, g), nind(f), lift(f, order(f) + 1).lincomb
        return [list(h.coeffs.items()) for h in values]

    cold = []
    for f, g in cases:
        algebra._spanned.cache_clear()
        cold.append(results(f, g))
    warm = [results(f, g) for f, g in reversed(cases)][::-1]
    assert algebra._spanned.cache_info().hits > 0
    assert warm == cold  # the same terms and coefficients, in the same order


def _fraction_sum(zero: LinComb, parts) -> LinComb:
    """The sum of c * value over the (c, value) pairs, by LinComb's scalar
    * and +: one Fraction per term and class, the zeros dropped as it goes."""
    for c, value in parts:
        zero = zero + c * value
    return zero


def test_integer_sums_match_term_by_term_fraction_sums():
    # coprime and large denominators, so the common denominator of a kernel
    # is a product of several; each term alone has coefficient 1, so its
    # kernel sums over denominator 1 and LinComb scales the result
    hard = [Fraction(1, 3), Fraction(-5, 7), Fraction(11, 13), Fraction(1, 2**61 - 1)]
    points = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 10**40 + 1)]
    rng = random.Random("one common denominator")
    for r in (2, 3):
        for label_set in (frozenset({0}), frozenset({0, 1})):
            labels = tuple(sorted(label_set))

            def comb(n_max, terms):
                terms = (_random_graph(rng, n_max, (r,), True, labels) for _ in range(terms))
                return LinComb(r, label_set, {h: rng.choice(hard) for h in terms})

            def one(h):
                return LinComb.from_graph(h, label_set)

            for _ in range(3):
                f, g = comb(3, 3), comb(2, 2)
                n = max(order(f), order(g)) + 1
                pairs = [(x, a, y, b) for x, a in f.coeffs.items() for y, b in g.coeffs.items()]
                lifted = lift(f, n).lincomb
                checks = [
                    (product(f, g), [(a * b, product(one(x), one(y))) for x, a, y, b in pairs]),
                    (nind(f), [(c, nind(one(x))) for x, c in f.coeffs.items()]),
                    (lifted, [(c, lift(one(x), n).lincomb) for x, c in f.coeffs.items()]),
                ]
                if r == 2:
                    for scheme in (box_scheme(), copies_scheme(2)):
                        tau = scheme.transformation(labeled=len(labels) == 2)
                        terms = [(c, operator_apply(tau, one(x))) for x, c in g.coeffs.items()]
                        checks.append((operator_apply(tau, g), terms))
                for got, parts in checks:
                    assert got == _fraction_sum(LinComb.zero(got.r, got.label_set), parts)
                    assert all(type(c) is Fraction and c for c in got.coeffs.values())
                top = next(iter(lifted.coeffs))
                assert alg_equal(f, lifted)
                assert not alg_equal(f, lifted + hard[-1] * one(top))
                h = f - g
                for p in points:
                    want = sum(
                        c * p**x.e * (1 - p) ** (math.comb(x.n, r) - x.e) / len(labels) ** x.n
                        for x, c in h.coeffs.items()
                    )
                    got = eval_quasirandom(h, p)
                    assert type(got) is Fraction and got == want, (h, p)
    # a class whose partial sums cancel is dropped: P2 gets 2c from K2 times
    # a point and -2c from -2c I2 times it, K2 gets c and -c in nind
    c, i2 = hard[-1], LinComb.from_graph(empty_graph(2, 2))
    f = c * LinComb.from_graph(K2) - 2 * c * i2
    want = c * LinComb.from_graph(K3) - 3 * c * LinComb.from_graph(P2C) - 2 * c * LinComb.from_graph(I3)
    assert product(f, point(2, 0)) == lift(f, 3).lincomb == want
    assert nind(c * LinComb.from_graph(K2) - c * i2).coeffs == {empty_graph(2, 2): -c}


def test_alg_equal_ideal_relation():
    f = LinComb.from_graph(K2)
    assert alg_equal(f, product(f, point(2, 0)))
    assert alg_equal(f, product(f, point_sum(2)))
    assert not alg_equal(f, LinComb.from_graph(empty_graph(2, 2)))
    # multi-label: the point sum, not a single point, is the identity
    g = point(2, 0, {0, 1})
    assert alg_equal(g, product(g, point_sum(2, {0, 1})))


def test_alg_equal_zero_and_coercion():
    assert alg_equal(LinComb.zero(2), LinComb.zero(2))
    assert alg_equal(K2, LinComb.from_graph(K2))  # Graph coerced
    with pytest.raises(InputError):
        alg_equal(LinComb.from_graph(K2), unit(3))


def test_alg_equal_decides_at_one_order():
    result = run_alg_equal_one_order()
    assert result["ok"], result["witness"]
    assert result["checked"] == 300


def test_goodman_uniform_representative():
    f = (
        LinComb.from_graph(K3)
        + LinComb.from_graph(I3)
        - Fraction(1, 4) * unit(2)
    )
    rep = lift(f, 3).lincomb
    assert rep.coefficient(K3) == Fraction(3, 4)
    assert rep.coefficient(P2) == Fraction(-3, 4)
    assert rep.coefficient(P2C) == Fraction(-3, 4)
    assert rep.coefficient(I3) == Fraction(3, 4)
    assert len(rep.coeffs) == 4
    assert not coeff_positive_at(f, 3)
    assert not coeff_positive_at(f, 4)
    assert coeff_positive_at(f + Fraction(1, 4) * unit(2), 3)


def test_coeff_positive_at():
    assert coeff_positive_at(LinComb.from_graph(K2), 3)
    assert coeff_positive_at(unit(2), 4)


def test_eval_quasirandom_frozen():
    p = Fraction(1, 3)
    # single label: class of v vertices, e edges -> p^e (1-p)^(C(v,2)-e)
    assert eval_quasirandom(LinComb.from_graph(K3), p) == p**3
    assert eval_quasirandom(LinComb.from_graph(P2), p) == p**2 * (1 - p)
    # two labels: each vertex contributes 1/2
    f2 = LinComb.from_graph(K3, {0, 1})
    assert eval_quasirandom(f2, p) == p**3 * Fraction(1, 8)
    assert eval_quasirandom(unit(2), p) == 1
    with pytest.raises(InputError):
        eval_quasirandom(unit(2), Fraction(3, 2))


def test_eval_quasirandom_sums_by_shape():
    # exactly the term-by-term sum, on combinations where about half of the
    # shapes (v, e) held by two or more classes cancel to zero
    rng = random.Random("eval by shape")
    cancelled = 0
    for _ in range(60):
        r, u = rng.randint(1, 3), rng.randint(1, 3)
        coeffs = {}
        for _ in range(rng.randint(1, 10)):
            n = rng.randint(0, 4)
            labels = [rng.randrange(u) for _ in range(n)]
            edges = [e for e in combinations(range(n), r) if rng.random() < 0.4]
            g = canonical(Graph(r, n, labels, edges))[0]
            coeffs[g] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5))
        shapes = {}
        for g in coeffs:
            shapes.setdefault((g.n, g.e), []).append(g)
        for gs in shapes.values():
            if len(gs) > 1 and rng.random() < 0.5:
                coeffs[gs[-1]] = -sum(coeffs[g] for g in gs[:-1])
                cancelled += 1
        f = LinComb(r, set(range(u)), coeffs)
        for p in [Fraction(0), Fraction(1), Fraction(rng.randint(1, 9), 10)]:
            want = Fraction(0)
            for g, c in f.coeffs.items():
                slots = math.comb(g.n, r)
                want += c * p**g.e * (1 - p) ** (slots - g.e) * Fraction(1, u) ** g.n
            assert eval_quasirandom(f, p) == want, (f, p)
    assert cancelled >= 10


@pytest.mark.parametrize("p", [0.1, 0.5, "1/2"])
def test_eval_quasirandom_rejects_inexact_p(p):
    # 0.1 would otherwise be evaluated at its binary float value
    with pytest.raises(InputError):
        eval_quasirandom(LinComb.from_graph(K3), p)
    assert eval_quasirandom(LinComb.from_graph(K3), 1) == 1


def test_eval_quasirandom_nind_power():
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert eval_quasirandom(nind(cycle_graph(4)), p) == p**4
        assert eval_quasirandom(nind(P2), p) == p**2


def test_eval_invariant_under_lift():
    f = LinComb.from_graph(K2) - Fraction(1, 3) * unit(2)
    for p in (Fraction(0), Fraction(2, 5), Fraction(1)):
        assert eval_quasirandom(lift(f, 4).lincomb, p) == eval_quasirandom(f, p)
    g = point(2, 1, {0, 1}) - point(2, 0, {0, 1})
    assert eval_quasirandom(lift(g, 3).lincomb, Fraction(1, 2)) == eval_quasirandom(
        g, Fraction(1, 2)
    )


def test_extend_label_set():
    f = LinComb.from_graph(K2)
    g = extend_label_set(f, {0, 1})
    assert g.label_set == frozenset({0, 1})
    assert g.coefficient(K2) == 1
    with pytest.raises(InputError):
        extend_label_set(g, {0})


def test_order():
    assert order(LinComb.zero(2)) == 0
    assert order(unit(2)) == 0
    assert order(nind(P2) + unit(2)) == 3


def test_lincomb_text_round_trip():
    f = (
        Fraction(3, 4) * LinComb.from_graph(K3)
        - LinComb.from_graph(P2)
        + 2 * unit(2)
    )
    text = lincomb_to_text(f)
    assert lincomb_from_text(text) == f
    assert lincomb_to_text(LinComb.zero(2)) == "0"
    assert lincomb_from_text("0", r=2) == LinComb.zero(2)
    neg = -1 * LinComb.from_graph(K2)
    assert lincomb_to_text(neg).startswith("-1*graph{")
    assert lincomb_from_text(lincomb_to_text(neg)) == neg


def test_lincomb_text_label_set():
    f = lincomb_from_text("1*graph{r=2;n=2;l=0,1;e=(0 1)}")
    assert f.label_set == frozenset({0, 1})
    g = lincomb_from_text("1*graph{r=2;n=2;l=;e=(0 1)}", label_set={0, 1, 2})
    assert g.label_set == frozenset({0, 1, 2})


@pytest.mark.parametrize(
    "text",
    [
        "",
        "graph{r=2;n=2;l=;e=}",  # missing coefficient
        "1*graph{r=2;n=2;l=;e=} & 2*graph{r=2;n=2;l=;e=}",
        "1*graph{r=2;n=2;l=;e=} + 1*graph{r=3;n=3;l=;e=}",  # mixed r
        "0",  # no uniformity derivable
        "1.5*graph{r=2;n=2;l=;e=}",
        "1/0*graph{r=2;n=2;l=;e=(0 1)}",  # zero denominator
        "01*graph{r=2;n=2;l=;e=}",
        "1*graph{r=2;n=2;l=0,0;e=}",  # the literal does not print back
        "- 1*graph{r=2;n=2;l=;e=}",
        " 1*graph{r=2;n=2;l=;e=}",
        # more digits than `int` reads
        pytest.param(f"{'1' * 5000}*graph{{r=2;n=2;l=;e=}}", id="5000-digit numerator"),
        pytest.param(f"1/{'1' * 5000}*graph{{r=2;n=2;l=;e=}}", id="5000-digit divisor"),
        pytest.param(f"1*graph{{r=2;n={'1' * 5000};l=;e=}}", id="5000-digit n"),
    ],
)
def test_lincomb_text_rejects(text):
    with pytest.raises(InputError):
        lincomb_from_text(text)
