"""Known answers computed without the package under test.

Graphs here are plain data: uniformity `r`, vertex count `n`, a label tuple
and a tuple of sorted edge tuples. Every function is a direct count or a
closed form, so a benchmark answer never depends on the canonical forms,
caches or enumeration code it is timing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

# Isomorphism classes of graphs (r = 2) and 3-uniform hypergraphs on n
# vertices, n = 0, 1, ... (OEIS A000088 and A000665).
CLASS_COUNTS = {2: (1, 1, 2, 4, 11, 34, 156), 3: (1, 1, 1, 2, 5, 34)}


def slots(n: int, r: int) -> int:
    return math.comb(n, r)


def quasirandom(terms, r: int, n_labels: int, p: Fraction) -> Fraction:
    """Value at the quasirandom point of density p of a sum of terms
    (coeff, n, n_edges): coeff * p^e (1-p)^(C(n,r)-e) |U|^-n each."""
    u = Fraction(1, n_labels)
    return sum(
        (c * p**e * (1 - p) ** (slots(n, r) - e) * u**n for c, n, e in terms),
        Fraction(0),
    )


def product_mass(n1: int, n2: int, r: int) -> int:
    """Graphs in the product of two classes: every r-set meeting both sides
    is free."""
    return 2 ** (slots(n1 + n2, r) - slots(n1, r) - slots(n2, r))


def lift_mass(k: int, n: int, r: int, n_labels: int) -> int:
    """Labeled extensions of an order-k graph to order n: each new vertex
    takes a label and any set of r-edges back into the earlier vertices."""
    out = 1
    for j in range(k, n):
        out *= n_labels * 2 ** slots(j, r - 1)
    return out


def automorphisms(r: int, n: int, labels, edges) -> int:
    """Label-preserving vertex permutations fixing the edge set, counted by
    backtracking over vertices with equal label and degree."""
    edge_set = set(edges)
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    img = [0] * n
    used = [False] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for w in range(n):
            if used[w] or labels[w] != labels[i] or deg[w] != deg[i]:
                continue
            img[i] = w
            if all(
                (rest + (i,) in edge_set)
                == (tuple(sorted([img[x] for x in rest] + [w])) in edge_set)
                for rest in combinations(range(i), r - 1)
            ):
                used[w] = True
                total += extend(i + 1)
                used[w] = False
        return total

    return extend(0)


def inj_count(g, h) -> int:
    """Injections V(g) -> V(h) preserving labels under which g is exactly
    the induced subgraph, by listing all of them."""
    r, gn, glab, gedges = g
    _, hn, hlab, hedges = h
    g_set, h_set = set(gedges), set(hedges)
    subsets = list(combinations(range(gn), r))
    count = 0
    for phi in permutations(range(hn), gn):
        if any(hlab[phi[i]] != glab[i] for i in range(gn)):
            continue
        if all(
            (s in g_set) == (tuple(sorted(phi[i] for i in s)) in h_set)
            for s in subsets
        ):
            count += 1
    return count


def hom_count(g, h) -> int:
    """Maps V(g) -> V(h) sending each edge injectively onto a host edge,
    by listing all of them."""
    r, gn, glab, gedges = g
    _, hn, hlab, hedges = h
    h_set = set(hedges)
    count = 0
    for phi in product(range(hn), repeat=gn):
        if any(hlab[phi[i]] != glab[i] for i in range(gn)):
            continue
        if all(
            len({phi[v] for v in e}) == r
            and tuple(sorted(phi[v] for v in e)) in h_set
            for e in gedges
        ):
            count += 1
    return count


def _adjacency_power(h, k: int) -> list[list[int]]:
    _, n, _, edges = h
    a = [[0] * n for _ in range(n)]
    for u, v in edges:
        a[u][v] = a[v][u] = 1
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [
            [sum(out[i][t] * a[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


def closed_walks(h, k: int) -> int:
    """tr(A^k): homomorphisms of the k-cycle (k >= 3) into a graph."""
    m = _adjacency_power(h, k)
    return sum(m[i][i] for i in range(len(m)))


def walks(h, k: int) -> int:
    """1^T A^k 1: homomorphisms of the path with k edges into a graph."""
    return sum(map(sum, _adjacency_power(h, k)))
