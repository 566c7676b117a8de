"""Randomized property suites with fixed seeds.

Each suite is a plain function returning {"ok", "checked", "witness"} so the
acceptance gate can run them at pinned sizes and report totals. Failures
carry a textual witness of the first offending instance.
"""

import random
from fractions import Fraction
from itertools import combinations

import hypalg as H
from hypalg.functors import _positions

_COEFF_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(-3, 2),
)


def _random_graph(rng, n_max, rs=(2, 3), labeled=False, label_set=(0, 1)):
    r = rng.choice(rs)
    n = rng.randint(0, n_max)
    subs = list(combinations(range(n), r))
    edges = tuple(s for s in subs if rng.random() < 0.5)
    labels = tuple(rng.choice(label_set) for _ in range(n)) if labeled else None
    return H.Graph(r, n, labels, edges)


def _random_lincomb(rng, n_max, label_set=frozenset({0}), terms=2):
    out = H.LinComb.zero(2, label_set)
    labeled = label_set != frozenset({0})
    for _ in range(rng.randint(1, terms)):
        g = _random_graph(
            rng, n_max, (2,), labeled=labeled, label_set=tuple(sorted(label_set))
        )
        out = out + rng.choice(_COEFF_POOL) * H.LinComb.from_graph(g, label_set)
    return out


def _random_injection(rng, a, b):
    """An injection [a] -> [b], as its image tuple."""
    return tuple(rng.sample(range(b), a))


# ---------------------------------------------------------------------------


def run_canonical_invariance(count=500, seed=90101):
    """Relabeling a graph never changes its canonical form or automorphism
    count."""
    rng = random.Random(seed)
    for i in range(count):
        g = _random_graph(rng, 8, (2, 3), labeled=(i % 5 == 0))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel_vertices(tuple(perm))
        if H.canonical(g) != H.canonical(h):
            return {"ok": False, "checked": i, "witness": H.graph_to_text(g)}
    return {"ok": True, "checked": count, "witness": ""}


_FUNCTOR_SHAPES = {
    "subsets": H.SubsetsF(2),
    "singletons": H.SubsetsF(1),
    "const": H.ConstF(2),
    "union": H.UnionF(H.SubsetsF(1), H.ConstF(1)),
    "product": H.ProductF(H.SubsetsF(1), H.ConstF(2)),
    "nested": H.UnionF(
        H.ProductF(H.SubsetsF(1), H.ConstF(2)),
        H.ProductF(H.SubsetsF(2), H.ConstF(1)),
    ),
}


def run_functor_composition(count=200, seed=90202):
    """Applying a functor to a composite injection equals composing the
    functor's images, on random composable pairs for every shipped shape;
    injections are image tuples, mapped by `functors._positions`."""
    rng = random.Random(seed)
    checked = 0
    for name, eta in _FUNCTOR_SHAPES.items():
        for _ in range(count):
            a = rng.randint(0, 5)
            b = rng.randint(a, 6)
            c = rng.randint(b, 7)
            alpha = _random_injection(rng, a, b)
            beta = _random_injection(rng, b, c)
            lhs = _positions(eta, c, tuple(beta[i] for i in alpha))
            outer = _positions(eta, c, beta)
            rhs = tuple(outer[i] for i in _positions(eta, b, alpha))
            if lhs != rhs:
                return {
                    "ok": False,
                    "checked": checked,
                    "witness": f"shape {name}, {alpha} then {beta}",
                }
            checked += 1
    return {"ok": True, "checked": checked, "witness": ""}


def _shipped_gadgets():
    return [
        ("blowup:1", H.blowup_scheme(1)),
        ("blowup:2", H.blowup_scheme(2)),
        ("blowup:3", H.blowup_scheme(3)),
        ("copies:1", H.copies_scheme(1)),
        ("copies:2", H.copies_scheme(2)),
        ("copies:3", H.copies_scheme(3)),
        ("path:1", H.path_scheme(1)),
        ("path:2", H.path_scheme(2)),
        ("box", H.box_scheme()),
        ("crossing", H.crossing_scheme()),
        ("triangle", H.triangle_scheme()),
        ("mixed:3:1", H.mixed_scheme(3, 1)),
        ("mixed:4:1", H.mixed_scheme(4, 1)),
        ("mixed:4:2", H.mixed_scheme(4, 2)),
        ("mixed:5:2", H.mixed_scheme(5, 2)),
        ("mixed:6:3", H.mixed_scheme(6, 3)),
    ]


def run_tau_well_definedness():
    """Every shipped gadget's transformation passes the well-definedness
    check (construction runs it: eta of each generator of Sym(base_r) must
    map the edge template onto itself), in both label variants; the
    direction-sensitive long-path gadget is rejected as the negative
    control."""
    checked = 0
    for name, scheme in _shipped_gadgets():
        for labeled in (False, True):
            try:
                scheme.transformation(labeled=labeled)
            except (H.InputError, H.ResourceError) as exc:
                return {
                    "ok": False,
                    "checked": checked,
                    "witness": f"{name} labeled={labeled}: {exc}",
                }
            checked += 1
    try:
        H.path_scheme(3).transformation()
        return {
            "ok": False,
            "checked": checked,
            "witness": "direction-sensitive path gadget was accepted",
        }
    except H.InputError:
        checked += 1
    return {"ok": True, "checked": checked, "witness": ""}


def run_product_laws(count=100, seed=90303):
    """The algebra product is commutative and associative as formal sums."""
    rng = random.Random(seed)
    for i in range(count):
        label_set = frozenset({0, 1}) if i % 4 == 0 else frozenset({0})
        f = _random_lincomb(rng, 2, label_set)
        g = _random_lincomb(rng, 2, label_set)
        h = _random_lincomb(rng, 2, label_set)
        if H.product(f, g) != H.product(g, f):
            return {
                "ok": False,
                "checked": i,
                "witness": f"commutativity: {H.lincomb_to_text(f)} vs "
                f"{H.lincomb_to_text(g)}",
            }
        if H.product(H.product(f, g), h) != H.product(f, H.product(g, h)):
            return {
                "ok": False,
                "checked": i,
                "witness": f"associativity: {H.lincomb_to_text(f)} / "
                f"{H.lincomb_to_text(g)} / {H.lincomb_to_text(h)}",
            }
    return {"ok": True, "checked": count, "witness": ""}


def run_operator_kernel_compat(count=50, seed=90404):
    """Multiplying by the one-vertex class before applying a scheme operator
    lands in the same algebra class afterwards."""
    rng = random.Random(seed)
    tau = H.blowup_scheme(2).transformation()
    pt = H.point(2, 0)
    for i in range(count):
        f = _random_lincomb(rng, 2, frozenset({0}))
        lhs = H.operator_apply(tau, H.product(f, pt))
        rhs = H.operator_apply(tau, f)
        if not H.alg_equal(lhs, rhs):
            return {"ok": False, "checked": i, "witness": H.lincomb_to_text(f)}
    return {"ok": True, "checked": count, "witness": ""}


def run_alg_equal_one_order(count=300, seed=90505):
    """With 2 and 3 labels, `alg_equal`'s verdict at the largest term order
    agrees with comparing the lifts one order higher, and pairs equal in
    the quotient by construction are reported equal."""
    rng = random.Random(seed)
    for i in range(count):
        label_set = frozenset(range(2 + i % 2))
        f = _random_lincomb(rng, 2, label_set)
        kind = i % 3
        if kind == 0:
            g = _random_lincomb(rng, 2, label_set)
        elif kind == 1:  # multiplying by the point sum is the identity
            g = H.product(f, H.point_sum(2, label_set))
        else:  # one order up, one coefficient moved
            g = H.lift(f, H.order(f) + 1).lincomb
            terms = sorted(g.coeffs, key=H.graph_to_text)
            key = rng.choice(terms or [H.Graph(2, H.order(f) + 1)])
            g = g + rng.choice(_COEFF_POOL) * H.LinComb.from_graph(key, label_set)
        n = max(H.order(f), H.order(g))
        verdict = H.alg_equal(f, g)
        above = H.lift(f, n + 1).lincomb == H.lift(g, n + 1).lincomb
        if verdict != above or (kind == 1 and not verdict):
            return {
                "ok": False,
                "checked": i,
                "witness": f"{H.lincomb_to_text(f)} vs {H.lincomb_to_text(g)}: "
                f"order {n} says {verdict}, order {n + 1} says {above}",
            }
    return {"ok": True, "checked": count, "witness": ""}


def run_all():
    return {
        "canonical-invariance": run_canonical_invariance(),
        "functor-composition": run_functor_composition(),
        "tau-well-definedness": run_tau_well_definedness(),
        "product-laws": run_product_laws(),
        "operator-kernel-compat": run_operator_kernel_compat(),
    }
