"""Automorphism counts and isomorphism tests against networkx's VF2 matcher.

networkx is optional: without it these tests are skipped. They reach graphs
on 7-9 vertices, beyond the n! brute-force oracle. A 3-uniform hypergraph
is compared through its incidence graph: one node per vertex (coloured by
its label) and one per edge (coloured apart), joined when the vertex lies
in the edge. Distinct edges have distinct vertex sets, so the incidence
graph's colour-preserving automorphisms are exactly the hypergraph's.
"""

import random
from itertools import combinations

import pytest

from hypalg import Graph, canonical, is_isomorphic

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def _to_nx(g: Graph):
    h = nx.Graph()
    for v, lab in enumerate(g.labels):
        h.add_node(("v", v), colour=("label", lab))
    if g.r == 2:
        h.add_edges_from((("v", a), ("v", b)) for a, b in g.edges)
        return h
    for i, e in enumerate(g.edges):
        h.add_node(("e", i), colour=("edge",))
        h.add_edges_from((("e", i), ("v", v)) for v in e)
    return h


def _same_colour(a, b):
    return a["colour"] == b["colour"]


def _nx_automorphisms(g: Graph) -> int:
    h = _to_nx(g)
    return sum(1 for _ in GraphMatcher(h, h, node_match=_same_colour).isomorphisms_iter())


def _nx_isomorphic(g: Graph, h: Graph) -> bool:
    return GraphMatcher(_to_nx(g), _to_nx(h), node_match=_same_colour).is_isomorphic()


def _random_graph(rng, r, n, label_count):
    density = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85)) if r == 2 else rng.random() / 2
    edges = tuple(e for e in combinations(range(n), r) if rng.random() < density)
    labels = tuple(rng.randrange(label_count) for _ in range(n))
    return Graph(r, n, labels, edges)


def _shuffled(rng, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel_vertices(tuple(perm))


def _switched(rng, g: Graph) -> Graph:
    """g with one edge moved onto a non-edge: same order and edge count,
    isomorphic to g or not."""
    absent = [e for e in combinations(range(g.n), g.r) if e not in g.edge_set]
    if not g.edges or not absent:
        return g
    edges = set(g.edges) - {rng.choice(g.edges)} | {rng.choice(absent)}
    return Graph(g.r, g.n, g.labels, tuple(edges))


@pytest.mark.parametrize("r,orders", [(2, (7, 8, 9)), (3, (7, 8))])
def test_against_networkx(r, orders):
    rng = random.Random(7309 + r)
    for _ in range(30):
        g = _random_graph(rng, r, rng.choice(orders), rng.choice((1, 2)))
        assert canonical(g)[1] == _nx_automorphisms(g), g
        assert is_isomorphic(g, _shuffled(rng, g))
        h = _shuffled(rng, _switched(rng, g))
        assert is_isomorphic(g, h) == _nx_isomorphic(g, h), (g, h)
