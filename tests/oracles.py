"""Independent brute-force oracles the tests compare against.

Everything here is deliberately naive: full enumeration over all maps or
all permutations, no pruning, no shared code with the package internals
beyond the Graph value type. Slow but obviously correct on small inputs.
Three exceptions: `reference_canonical`, the package's earlier canonical
search, which pins the exact representatives the current one must keep
producing; `brute_well_defined`, which applies the rules through the
package's `tau_apply` and maps each permutation through the functor with
`functors._positions`, so that it checks the rules as they are actually
evaluated; and `brute_operator_apply`, which likewise applies
the rules through `tau_apply` and keys classes by `reference_canonical`.

`brute_product`, `brute_nind` and `brute_lift` take the package's
`LinComb` as input only for its terms and label set; they enumerate every
labelled graph on [n] allowed by the definition and key classes by
`brute_class`, the memoised `brute_canonical` representative.

`burnside_class_count` counts classes from cycle types alone, so it reaches
orders where the n! oracles above cannot.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product as iter_product
from types import SimpleNamespace

from hypalg import Graph, functor_size, tau_apply
from hypalg.functors import _positions


def brute_canonical(g: Graph):
    """Minimum over all n! relabelings of (labels, edges), and the number
    of relabelings fixing g (the automorphism count)."""
    best = None
    best_graph = None
    aut = 0
    base = (g.labels, g.edges)
    for perm in permutations(range(g.n)):
        h = g.relabel_vertices(perm)
        key = (h.labels, h.edges)
        if key == base:
            aut += 1
        if best is None or key < best:
            best = key
            best_graph = h
    if best_graph is None:  # n == 0
        return g, 1
    return best_graph, aut


def reference_canonical(g: Graph):
    """The package's original canonical search, kept as the oracle for the
    integer-segment one: a depth-first search over relabelings that
    compares each new vertex's edge segment as a tuple of bools, built by
    sorting and probing every (r-1)-subset of the placed vertices. Returns
    the lexicographically least relabeling and the number of relabelings
    attaining it, without caching."""
    n, r = g.n, g.r
    if n <= 1 or len(g.edges) == 0:
        labels = tuple(sorted(g.labels))
        rep = Graph(r, n, labels, g.edges)
        aut = 1
        for lab in set(labels):
            c = labels.count(lab)
            for i in range(2, c + 1):
                aut *= i
        return rep, aut

    target_labels = tuple(sorted(g.labels))
    # old vertices usable at each new position, grouped by label
    slots: list[list[int]] = [
        [v for v in range(n) if g.labels[v] == target_labels[i]]
        for i in range(n)
    ]
    edge_set = g.edge_set
    perm = [0] * n  # new position -> old vertex
    used = [False] * n
    best: list[tuple[bool, ...] | None] = [None] * n
    best_perm = [0] * n
    count = 0

    def segment(i: int, v: int) -> tuple[bool, ...]:
        # membership bits for r-sets whose largest new vertex is i
        return tuple(
            tuple(sorted([perm[c] for c in rest] + [v])) in edge_set
            for rest in combinations(range(i), r - 1)
        )

    def dfs(i: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            best_perm[:] = perm
            return
        for v in slots[i]:
            if used[v]:
                continue
            seg = segment(i, v)
            ref = best[i]
            if ref is not None:
                if seg > ref:
                    continue
                if seg < ref:
                    best[i] = seg
                    for d in range(i + 1, n):
                        best[d] = None
                    count = 0
            else:
                best[i] = seg
            used[v] = True
            perm[i] = v
            dfs(i + 1)
            used[v] = False

    dfs(0)
    # best_perm maps new position -> old vertex; invert for relabel_vertices
    inv = [0] * n
    for newpos, old in enumerate(best_perm):
        inv[old] = newpos
    return g.relabel_vertices(tuple(inv)), count


@lru_cache(maxsize=None)
def brute_class(g: Graph) -> Graph:
    """The `brute_canonical` representative of g's class."""
    return brute_canonical(g)[0]


def _restrict(h: Graph, verts) -> Graph:
    """The labelled graph h induces on verts, renumbered 0.. in order."""
    pos = {v: i for i, v in enumerate(verts)}
    edges = tuple(
        tuple(pos[v] for v in e) for e in h.edges if all(v in pos for v in e)
    )
    return Graph(h.r, len(verts), tuple(h.labels[v] for v in verts), edges)


def _labelled_graphs(r: int, n: int, labellings):
    """Every r-uniform graph on [n] carrying one of these label tuples."""
    slots = list(combinations(range(n), r))
    for labels in labellings:
        for bits in range(1 << len(slots)):
            edges = tuple(slots[i] for i in range(len(slots)) if bits >> i & 1)
            yield Graph(r, n, labels, edges)


def _accumulate(pairs, key_of=brute_class) -> dict:
    out = {}
    for g, c in pairs:
        key = key_of(g)
        out[key] = out.get(key, Fraction(0)) + c
    return {g: c for g, c in out.items() if c != 0}


def brute_product(f, g) -> dict:
    """Product by its definition: for each pair of terms F, G, every
    labelled graph on [v(F) + v(G)] inducing F on the first v(F) vertices
    and G on the rest (so its labels are those of F, then those of G)."""
    pairs = []
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            n = a.n + b.n
            for h in _labelled_graphs(f.r, n, [a.labels + b.labels]):
                if (
                    _restrict(h, range(a.n)) == a
                    and _restrict(h, range(a.n, n)) == b
                ):
                    pairs.append((h, ca * cb))
    return _accumulate(pairs)


def brute_nind(f) -> dict:
    """Supergraph sum by its definition: for each term F, every labelled
    graph on [v(F)] with F's labels whose edge set contains F's."""
    pairs = []
    for a, c in f.coeffs.items():
        for h in _labelled_graphs(f.r, a.n, [a.labels]):
            if a.edge_set <= h.edge_set:
                pairs.append((h, c))
    return _accumulate(pairs)


def brute_lift(f, n: int) -> dict:
    """Lift by its definition: for each term F, every labelled graph on
    [n] inducing F on its first v(F) vertices, the others carrying any
    labels of the label set."""
    pairs = []
    for a, c in f.coeffs.items():
        extra = iter_product(sorted(f.label_set), repeat=n - a.n)
        for h in _labelled_graphs(f.r, n, (a.labels + x for x in extra)):
            if _restrict(h, range(a.n)) == a:
                pairs.append((h, c))
    return _accumulate(pairs)


def brute_operator_apply(tau, f) -> dict:
    """The preimage sum by its definition: for each term G of order n, every
    labelled graph h on eta([n]), over tau's input labels, with
    tau_apply(h, n) == G. Keyed by the `reference_canonical` representative:
    the n! relabelings of `brute_class` are too slow for the hundreds of
    6-vertex preimages one term can have."""
    pairs = []
    for g, c in f.coeffs.items():
        w = functor_size(tau.eta, g.n)
        labellings = iter_product(sorted(tau.labels), repeat=w)
        for h in _labelled_graphs(tau.r, w, labellings):
            if tau_apply(tau, h, g.n) == g:
                pairs.append((h, c))
    return _accumulate(pairs, lambda h: reference_canonical(h)[0])


def brute_inj_count(g: Graph, h: Graph) -> int:
    """Injections [n_g] -> [n_h] inducing exactly g (labels and all
    r-subsets)."""
    count = 0
    for image in permutations(range(h.n), g.n):
        if any(h.labels[image[i]] != g.labels[i] for i in range(g.n)):
            continue
        ok = True
        for sub in combinations(range(g.n), g.r):
            present = tuple(sorted(image[v] for v in sub)) in h.edge_set
            if present != (sub in g.edge_set):
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_hom_count(g: Graph, h: Graph) -> int:
    """Maps [n_g] -> [n_h] preserving labels and sending every edge
    injectively onto an edge of h."""
    count = 0
    for image in iter_product(range(h.n), repeat=g.n):
        if any(h.labels[image[i]] != g.labels[i] for i in range(g.n)):
            continue
        ok = True
        for e in g.edges:
            img = [image[v] for v in e]
            if len(set(img)) != len(img) or tuple(sorted(img)) not in h.edge_set:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_limit_count(g: Graph, h: Graph) -> int:
    """Maps [n_g] -> [n_h] realizing g exactly in the infinite blow-up of
    h: labels pulled back along the map equal g's, and the r-subsets the
    map sends injectively onto an edge of h are exactly g's edges. Every
    map is tried and its pattern compared whole."""
    subs = list(combinations(range(g.n), g.r))
    count = 0
    for image in iter_product(range(h.n), repeat=g.n):
        labels = tuple(h.labels[v] for v in image)
        edges = set()
        for s in subs:
            mapped = [image[i] for i in s]
            if len(set(mapped)) == g.r and tuple(sorted(mapped)) in h.edge_set:
                edges.add(s)
        if labels == g.labels and edges == g.edge_set:
            count += 1
    return count


def brute_maps(g: Graph, h: Graph, induced: bool, injective: bool) -> list:
    """Every vertex map [n_g] -> [n_h], as its image tuple, that preserves
    labels and sends each edge of g injectively onto an edge of h; with
    `induced` also every other r-subset off the edges of h or onto fewer
    than r vertices, with `injective` only one-to-one maps. Sorted."""
    if injective:
        images = permutations(range(h.n), g.n)
    else:
        images = iter_product(range(h.n), repeat=g.n)
    out = []
    for image in images:
        if any(h.labels[image[i]] != g.labels[i] for i in range(g.n)):
            continue
        ok = True
        for sub in combinations(range(g.n), g.r):
            mapped = [image[v] for v in sub]
            hit = len(set(mapped)) == g.r and tuple(sorted(mapped)) in h.edge_set
            is_edge = sub in g.edge_set
            if (is_edge or induced) and hit != is_edge:
                ok = False
                break
        if ok:
            out.append(image)
    return sorted(out)


def brute_check_symmetry(f: Graph, sets) -> bool:
    """Whether every permutation sigma of the vertex sets is realized by an
    automorphism of f sending the j-th set onto the sigma(j)-th element-wise,
    by trying every vertex permutation of f."""
    realized = set()
    for perm in permutations(range(f.n)):
        sigma = []
        for s in sets:
            target = [j for j, t in enumerate(sets) if t[0] == perm[s[0]]]
            if not target or any(
                perm[v] != sets[target[0]][i] for i, v in enumerate(s)
            ):
                break
            sigma.append(target[0])
        else:
            if f.relabel_vertices(perm) == f:
                realized.add(tuple(sigma))
    return len(realized) == math.factorial(len(sets))


def closed_walk_count(h: Graph, length: int) -> int:
    """Closed walks of the given length in a 2-uniform host, via integer
    adjacency-matrix powers. Counts maps of a cycle, independently of any
    map enumeration."""
    n = h.n
    adj = [[0] * n for _ in range(n)]
    for u, v in h.edges:
        adj[u][v] += 1
        adj[v][u] += 1
    power = [row[:] for row in adj]
    for _ in range(length - 1):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(power[i][i] for i in range(n))


def all_graph_classes(r: int, n: int):
    """One representative per isomorphism class of unlabeled r-uniform
    graphs on n vertices, by exhaustive edge-subset enumeration and
    brute-force minimization."""
    slots = list(combinations(range(n), r))
    seen = set()
    reps = []
    for bits in range(1 << len(slots)):
        edges = tuple(slots[i] for i in range(len(slots)) if bits >> i & 1)
        g = Graph(r, n, None, edges)
        key_graph, _ = brute_canonical(g)
        key = (key_graph.labels, key_graph.edges)
        if key not in seen:
            seen.add(key)
            reps.append(key_graph)
    return reps


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most `largest`, parts falling."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def burnside_class_count(r: int, n: int, u: int = 1) -> int:
    """The number of isomorphism classes of r-uniform graphs on n vertices
    with labels from a set of u, by Burnside's lemma: the mean over Sym(n)
    of u^c_1 2^c_r, where c_1 counts the cycles of a permutation on the
    vertices and c_r those on the r-sets. The sum runs over cycle types,
    each weighted by its number of permutations, so it needs no n! loop."""
    total = Fraction(0)
    for parts in _partitions(n, n):
        sigma, start = [], 0
        for k in parts:
            sigma += [start + (i + 1) % k for i in range(k)]
            start += k
        image = {s: tuple(sorted(sigma[v] for v in s)) for s in combinations(range(n), r)}
        seen, c_r = set(), 0
        for s in image:
            c_r += s not in seen
            while s not in seen:
                seen.add(s)
                s = image[s]
        centraliser = math.prod(
            k ** parts.count(k) * math.factorial(parts.count(k)) for k in set(parts)
        )
        total += Fraction(u ** len(parts) * 2**c_r, centraliser)
    assert total.denominator == 1
    return int(total)


def brute_well_defined(
    eta,
    r,
    base_r,
    edge_template,
    labels=frozenset({0}),
    base_labels=frozenset({0}),
    vertex_rules=(),
    default_label=0,
):
    """Whether template rules commute with every permutation of [base_r],
    by enumerating every graph h on eta([base_r]) and every permutation
    sigma: tau(h pulled back along eta(sigma)) must equal tau(h) pulled back
    along sigma. Takes the fields of `UpwardTransformation` without
    constructing one (construction rejects ill-defined rules). Returns None
    when the rules commute, else the first failing permutation, as the
    image tuple of sigma."""
    tau = SimpleNamespace(
        eta=eta,
        r=r,
        base_r=base_r,
        edge_template=edge_template,
        labels=frozenset(labels),
        base_labels=frozenset(base_labels),
        vertex_rules=tuple(vertex_rules),
        default_label=default_label,
    )
    n_rule = functor_size(eta, base_r)
    slot_list = list(combinations(range(n_rule), r))
    fill = (min(tau.labels),) * n_rule
    for bits in range(1 << len(slot_list)):
        edges = tuple(slot_list[i] for i in range(len(slot_list)) if bits >> i & 1)
        h = Graph(r, n_rule, fill, edges)
        base = tau_apply(tau, h, base_r)
        for sigma in list(permutations(range(base_r)))[1:]:  # skip the identity
            h_perm = _pull_back(h, _positions(eta, base_r, sigma))
            if tau_apply(tau, h_perm, base_r) != _pull_back(base, sigma):
                return sigma
    return None


def _pull_back(g: Graph, image: tuple) -> Graph:
    """The graph on [len(image)] whose vertex i carries g's data at
    image[i]: an r-set is an edge iff its image is an edge of g."""
    k = len(image)
    edges = [
        e
        for e in combinations(range(k), g.r)
        if tuple(sorted(image[v] for v in e)) in g.edge_set
    ]
    return Graph(g.r, k, tuple(g.labels[i] for i in image), tuple(edges))
