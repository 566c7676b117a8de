"""Density functionals against brute-force map counting."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hypalg import (
    Graph,
    InputError,
    LinComb,
    complete_graph,
    cycle_graph,
    hom_density,
    inj_density,
    limit_inj_blowup,
    loose_expansion,
    nind,
    path_graph,
)

from oracles import (
    _labelled_graphs,
    brute_class,
    brute_hom_count,
    brute_inj_count,
    brute_limit_count,
    closed_walk_count,
)

K2 = complete_graph(2, 2)
K3 = complete_graph(2, 3)


def test_inj_density_frozen_spot_values():
    assert inj_density(K2, path_graph(2)) == Fraction(2, 3)
    assert inj_density(Graph(2, 2), path_graph(2)) == Fraction(1, 3)
    assert inj_density(K2, Graph(2, 2)) == 0
    assert inj_density(LinComb.from_graph(Graph(2, 0)), Graph(2, 0)) == 1
    assert inj_density(K2, Graph(2, 0)) == 0  # host smaller than pattern


@pytest.mark.parametrize(
    "g, h",
    [
        (K2, path_graph(3)),
        (path_graph(2), cycle_graph(5)),
        (cycle_graph(4), complete_graph(2, 5)),
        (Graph(2, 2, (0, 1), ((0, 1),)), Graph(2, 3, (0, 1, 0), ((0, 1),))),
        (complete_graph(3, 3), loose_expansion(path_graph(2), 3)),
        (Graph(3, 3), complete_graph(3, 4)),
    ],
)
def test_inj_density_matches_brute_force(g, h):
    expected = Fraction(brute_inj_count(g, h), math.perm(h.n, g.n))
    assert inj_density(g, h) == expected


def test_inj_density_is_linear():
    f = 2 * LinComb.from_graph(K2) + 3 * LinComb.from_graph(Graph(2, 2))
    h = path_graph(2)
    assert inj_density(f, h) == 2 * Fraction(2, 3) + 3 * Fraction(1, 3)


def test_hom_density_frozen_spot_values():
    assert hom_density(K2, K3) == Fraction(2, 3)
    assert hom_density(cycle_graph(4), K3) == Fraction(2, 9)
    # weak homomorphisms of a cycle are exactly closed walks in the host
    assert closed_walk_count(K3, 4) == 18
    assert hom_density(cycle_graph(4), K3) == Fraction(18, 3**4)


@pytest.mark.parametrize(
    "g, h",
    [
        (K2, path_graph(2)),
        (path_graph(2), cycle_graph(4)),
        (cycle_graph(3), cycle_graph(4)),
        (cycle_graph(4), cycle_graph(5)),
        (Graph(2, 2, (0, 1), ((0, 1),)), Graph(2, 3, (0, 1, 0), ((0, 1), (1, 2)))),
        (complete_graph(3, 3), loose_expansion(K2, 3)),
    ],
)
def test_hom_density_matches_brute_force(g, h):
    assert hom_density(g, h) == Fraction(brute_hom_count(g, h), h.n**g.n)


@pytest.mark.parametrize(
    "k, walks",
    [(3, 6), (4, 18), (5, 30)],
)
def test_cycle_homs_are_closed_walks(k, walks):
    assert closed_walk_count(K3, k) == walks
    assert hom_density(cycle_graph(k), K3) == Fraction(walks, 3**k)


def test_empty_host_behaviour():
    unit = LinComb.from_graph(Graph(2, 0))
    assert hom_density(unit, Graph(2, 0)) == 1
    with pytest.raises(InputError):
        hom_density(K2, Graph(2, 0))
    with pytest.raises(InputError):
        limit_inj_blowup(LinComb.from_graph(K2), Graph(2, 0))
    # limit(nind(G), H) = hom(G, H) holds at G = H = the empty graph too
    assert limit_inj_blowup(nind(unit), Graph(2, 0)) == 1
    assert limit_inj_blowup(3 * unit, Graph(2, 0)) == 3
    with pytest.raises(InputError):
        limit_inj_blowup(unit + LinComb.from_graph(K2), Graph(2, 0))


def test_limit_frozen_and_labeled():
    assert limit_inj_blowup(nind(LinComb.from_graph(K2)), K2) == Fraction(1, 2)
    labeled_host = Graph(2, 2, (0, 1), ((0, 1),))
    assert limit_inj_blowup(Graph(2, 1, (1,)), labeled_host) == Fraction(1, 2)
    assert limit_inj_blowup(Graph(2, 1, (2,)), labeled_host) == 0


@pytest.mark.parametrize(
    "g, h",
    [
        (K2, path_graph(2)),
        (path_graph(2), cycle_graph(4)),
        (cycle_graph(3), cycle_graph(4)),
        (cycle_graph(3), complete_graph(2, 4)),
        (complete_graph(3, 3), loose_expansion(K2, 3)),
    ],
)
def test_blowup_limit_of_supergraph_sum_is_hom_density(g, h):
    lifted = nind(LinComb.from_graph(g))
    assert limit_inj_blowup(lifted, h) == hom_density(g, h)


def _labelled_classes(r, n_max, labels):
    """One graph per class of r-uniform graphs on at most n_max vertices
    with vertex labels drawn from `labels`."""
    return {
        brute_class(g)
        for n in range(n_max + 1)
        for g in _labelled_graphs(r, n, product(labels, repeat=n))
    }


@pytest.mark.parametrize("r, n_max", [(2, 3), (3, 4)])
def test_densities_match_brute_force_per_class(r, n_max):
    """Each class on its own, so errors in different classes cannot cancel
    as they could in a supergraph sum."""
    rng = random.Random(f"densities-per-class:{r}")
    for n in range(7):
        labels = tuple(rng.choice((0, 1)) for _ in range(n))
        edges = tuple(e for e in combinations(range(n), r) if rng.random() < 0.5)
        h = Graph(r, n, labels, edges)
        for g in _labelled_classes(r, n_max, (0, 1)):
            inj = 0 if g.n > n else Fraction(brute_inj_count(g, h), math.perm(n, g.n))
            assert inj_density(g, h) == inj, (g, h)
            if n == 0 < g.n:
                for fn in (hom_density, limit_inj_blowup):
                    with pytest.raises(InputError):
                        fn(g, h)
                continue
            assert hom_density(g, h) == Fraction(brute_hom_count(g, h), n**g.n), (g, h)
            limit = Fraction(brute_limit_count(g, h), n**g.n)
            assert limit_inj_blowup(g, h) == limit, (g, h)


def test_uniformity_mismatch_rejected():
    host3 = complete_graph(3, 4)
    for fn in (inj_density, hom_density, limit_inj_blowup):
        with pytest.raises(InputError):
            fn(K2, host3)
