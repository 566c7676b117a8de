"""The acceptance gate: ten timed criteria, one summary line each.

Every test here computes its criterion's checks, records outcome and timing
in the shared registry (the terminal summary prints one line per criterion),
then asserts. The time bounds are part of the criteria; all value checks are
exact rational comparisons except the crossover root, which is pinned to
plus/minus 1e-4.
"""

import random
import time
from fractions import Fraction

import hypalg as H
import property_suites
from conftest import record_acceptance
from oracles import (
    all_graph_classes,
    brute_hom_count,
    brute_inj_count,
    closed_walk_count,
)

K2 = H.complete_graph(2, 2)
P2 = H.path_graph(2)


def _finish(number, label, bound, ok, t0, extra=""):
    dt = time.perf_counter() - t0
    in_time = dt < bound
    detail = f"{dt:.2f}s < {bound:g}s" + (f"; {extra}" if extra else "")
    record_acceptance(number, label, ok and in_time, detail)
    assert ok, f"criterion {number} ({label}) failed"
    assert in_time, f"criterion {number} ({label}) took {dt:.2f}s, bound {bound:g}s"


def test_01_unit_expansion_order3():
    t0 = time.perf_counter()
    got = H.lift(H.unit(2), 3).lincomb
    want = (
        H.LinComb.from_graph(H.complete_graph(2, 3))
        + 3 * H.LinComb.from_graph(H.Graph(2, 3, None, ((0, 1), (1, 2))))
        + 3 * H.LinComb.from_graph(H.Graph(2, 3, None, ((0, 1),)))
        + H.LinComb.from_graph(H.Graph(2, 3))
    )
    _finish(
        1,
        "unit expands at order 3 with weights 1, 3, 3, 1",
        1.0,
        got == want,
        t0,
    )


def test_02_parallel_copies_operator_squares():
    t0 = time.perf_counter()
    tau = H.copies_scheme(2).transformation()
    ok = True
    for g in (K2, P2):
        lifted = H.nind(H.LinComb.from_graph(g))
        image = H.operator_apply(tau, lifted)
        ok = ok and H.alg_equal(image, H.product(lifted, lifted))
    _finish(
        2,
        "two-copies operator squares the supergraph sum (edge and path bases)",
        10.0,
        ok,
        t0,
    )


def test_03_subdivision_operator_swap():
    cases = [
        ("two-fold blow-up of an edge", H.blowup_scheme(2), K2),
        ("path subdivision of a two-edge path", H.path_scheme(2), P2),
        ("loose three-uniform expansion of an edge", H.loose_scheme(3), K2),
    ]
    per_case = []
    ok = True
    for name, scheme, base in cases:
        t_case = time.perf_counter()
        tau = scheme.transformation()
        image = H.operator_apply(tau, H.nind(H.LinComb.from_graph(base)))
        closed = H.nind(H.LinComb.from_graph(H.subdivide(scheme, base)))
        ok = ok and H.alg_equal(image, closed)
        per_case.append((name, time.perf_counter() - t_case))
    ok = ok and H.is_isomorphic(
        H.subdivide(H.blowup_scheme(2), K2), H.cycle_graph(4)
    )
    time_ok = all(dt < 30.0 for _, dt in per_case)
    detail = (
        "; ".join(f"{name} {dt:.2f}s" for name, dt in per_case) + "; bound 30s each"
    )
    label = "scheme operators send supergraph sums to subdivided-graph sums"
    record_acceptance(3, label, ok and time_ok, detail)
    assert ok, f"criterion 3 ({label}) failed"
    assert time_ok, f"criterion 3 ({label}) exceeded 30s on a case: {detail}"


def test_04_box_chain():
    t0 = time.perf_counter()
    scheme = H.box_scheme()
    tau = scheme.transformation(labeled=True)
    embedded = H.extend_label_set(
        H.nind(H.LinComb.from_graph(K2)), frozenset({0, 1})
    )
    sub = H.subdivide(scheme, K2)
    swap_ok = H.alg_equal(
        H.operator_apply(tau, embedded),
        H.nind(H.LinComb.from_graph(sub)),
    )
    point_image = H.operator_apply(tau, H.point(2, 0, frozenset({0, 1})))
    point_ok = H.alg_equal(point_image, H.LinComb.from_graph(K2))
    cube = H.box_product(H.cycle_graph(4), K2)
    hamming = H.Graph(
        2,
        8,
        None,
        tuple(
            (x, y)
            for x in range(8)
            for y in range(x + 1, 8)
            if bin(x ^ y).count("1") == 1
        ),
    )
    cube_ok = cube.e == 12 and H.is_isomorphic(cube, hamming)
    _finish(
        4,
        "dump-label operator inverts the box subdivision; point maps to an "
        "edge; the boxed 4-cycle is the 12-edge cube",
        60.0,
        swap_ok and point_ok and cube_ok,
        t0,
    )


def test_05_density_identity_sweep():
    t0 = time.perf_counter()
    patterns = [g for n in range(0, 5) for g in all_graph_classes(2, n)]
    hosts = [h for n in range(1, 6) for h in all_graph_classes(2, n)]
    checked = 0
    witness = ""
    for g in patterns:
        lifted = H.nind(H.LinComb.from_graph(g))
        for h in hosts:
            if H.hom_density(g, h) != H.limit_inj_blowup(lifted, h):
                witness = f"{H.graph_to_text(g)} in {H.graph_to_text(h)}"
                break
            checked += 1
        if witness:
            break
    _finish(
        5,
        "weak homomorphism density equals the blow-up limit of the "
        "supergraph sum (all patterns to 4 vertices, hosts to 5)",
        300.0,
        not witness,
        t0,
        extra=witness or f"{checked} pairs",
    )


def test_06_quasirandom_evaluation_suite():
    t0 = time.perf_counter()
    rng = random.Random(61406)
    ps = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    ok = True
    for i in range(100):
        n_max = 3 if i % 5 == 0 else 2
        f = property_suites._random_lincomb(rng, n_max)
        g = property_suites._random_lincomb(rng, n_max)
        p = rng.choice(ps)
        ok = ok and H.eval_quasirandom(H.product(f, g), p) == H.eval_quasirandom(
            f, p
        ) * H.eval_quasirandom(g, p)
    for n in range(0, 6):
        for g in all_graph_classes(2, n):
            lifted = H.nind(H.LinComb.from_graph(g))
            for p in ps:
                ok = ok and H.eval_quasirandom(lifted, p) == p ** g.e
    base = H.LinComb.from_graph(K2) - Fraction(1, 3) * H.unit(2)
    two_label = H.extend_label_set(H.LinComb.from_graph(P2), frozenset({0, 1}))
    for f, n in ((base, 4), (two_label, 4)):
        for p in ps:
            ok = ok and H.eval_quasirandom(
                H.lift(f, n).lincomb, p
            ) == H.eval_quasirandom(f, p)
    _finish(
        6,
        "quasirandom evaluation is multiplicative, sends supergraph sums to "
        "edge powers, and is lift-invariant",
        60.0,
        ok,
        t0,
    )


def test_07_spot_densities_vs_oracle():
    t0 = time.perf_counter()
    k3 = H.complete_graph(2, 3)
    c4 = H.cycle_graph(4)
    ok = (
        H.inj_density(K2, P2) == Fraction(2, 3)
        and H.hom_density(K2, k3) == Fraction(2, 3)
        and H.hom_density(c4, k3) == Fraction(2, 9)
        and brute_inj_count(K2, P2) == 4
        and brute_hom_count(K2, k3) == 6
        and brute_hom_count(c4, k3) == 18
        and closed_walk_count(k3, 4) == 18
    )
    _finish(
        7,
        "spot densities 2/3, 2/3, 2/9 match brute-force map counting",
        1.0,
        ok,
        t0,
    )


def test_08_ladder_pipeline():
    t0 = time.perf_counter()
    ladder = H.subdivide(H.crossing_scheme(), H.cycle_graph(5))
    construct_ok = (
        ladder.n == 10
        and ladder.e == 15
        and set(ladder.degrees) == {3}
        and H.is_isomorphic(ladder, H.m5_direct())
    )
    derived, root = H.m5_bound()
    coeff_ok = derived == (
        (13, Fraction(4)),
        (11, Fraction(-6)),
        (9, Fraction(4)),
        (7, Fraction(-1)),
    )
    root_ok = abs(root - Fraction(74142, 100000)) < Fraction(1, 10**4)
    _finish(
        8,
        "crossed subdivision of the 5-cycle is the ladder; derived bound has "
        "coefficients (4,-6,4,-1) on exponents (13,11,9,7); crossover at "
        "0.74142 within 1e-4",
        10.0,
        construct_ok and coeff_ok and root_ok,
        t0,
        extra=f"root {float(root):.6f}",
    )


def test_09_isolated_vertex_failure_detected():
    t0 = time.perf_counter()
    scheme = H.box_scheme()
    tau = scheme.transformation()
    one = H.Graph(2, 1)
    image = H.operator_apply(tau, H.nind(H.LinComb.from_graph(one)))
    closed = H.nind(H.LinComb.from_graph(H.subdivide(scheme, one)))
    detected = not H.alg_equal(image, closed)
    exact_image = image == H.LinComb.from_graph(K2) + H.LinComb.from_graph(
        H.Graph(2, 2)
    )
    _finish(
        9,
        "isolated base vertex breaks the unlabeled swap (edged vertex "
        "gadget) and the mismatch is detected",
        10.0,
        detected and exact_image,
        t0,
    )


def test_10_property_suites():
    t0 = time.perf_counter()
    results = property_suites.run_all()
    ok = all(r["ok"] for r in results.values())
    total = sum(r["checked"] for r in results.values())
    bad = "; ".join(
        f"{name}: {r['witness']}" for name, r in results.items() if not r["ok"]
    )
    _finish(
        10,
        "randomized property suites with fixed seeds (canonical forms, "
        "functor composition, rule well-definedness, product laws, operator "
        "kernel compatibility)",
        600.0,
        ok,
        t0,
        extra=(f"{total} checks" + (f"; {bad}" if bad else "")),
    )
