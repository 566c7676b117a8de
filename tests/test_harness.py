"""Verification reports: plumbing, evaluation helpers, and each checker."""

import time
from fractions import Fraction

import pytest

from hypalg import (
    CITED_FIVE_CYCLE_POLY,
    Graph,
    InputError,
    LinComb,
    ResourceError,
    TheoremReport,
    box_product,
    box_scheme,
    complete_graph,
    cycle_graph,
    eval_nind_quasirandom,
    eval_quasirandom,
    format_report,
    is_isomorphic,
    loose_scheme,
    m5_bound,
    m5_direct,
    nind,
    operator_apply,
    path_graph,
    path_scheme,
    subdivide,
    verify_box,
    verify_forcing_pair_operator,
    verify_gensubdivision,
    verify_goodman_lift,
    verify_hypergraph,
    verify_m5,
    verify_tensor_power,
)
from hypalg.harness import _on_label

K2 = complete_graph(2, 2)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_verdict_and_formats():
    report = TheoremReport("demo")
    assert report.verdict  # vacuously true
    report.add("first", "exact-identity", True, "fine")
    report.add("second", "evaluation-inequality", False, "multi  line\nwitness")
    assert not report.verdict

    text = format_report(report, "text")
    assert text.splitlines()[0] == "== demo =="
    assert "[PASS] (exact-identity) first" in text
    assert "[FAIL] (evaluation-inequality) second" in text
    assert text.splitlines()[-1].startswith("verdict: FAIL (1/2 steps)")

    machine = format_report(report, "machine")
    lines = machine.splitlines()
    assert lines[0] == "first\texact-identity\tpass\tfine"
    assert lines[1] == "second\tevaluation-inequality\tfail\tmulti line witness"

    with pytest.raises(InputError):
        format_report(report, "json")


# ---------------------------------------------------------------------------
# quasirandom evaluation of supergraph sums


@pytest.mark.parametrize(
    "g",
    [K2, path_graph(2), cycle_graph(4), Graph(2, 4), complete_graph(3, 4), Graph(3, 5)],
)
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
def test_eval_nind_quasirandom_collapses_to_edge_power(g, p):
    assert eval_nind_quasirandom(g, p) == p ** len(g.edges)


def test_eval_nind_quasirandom_matches_generic_evaluation():
    cases = [(g, {0}) for g in (K2, path_graph(2), Graph(2, 3), complete_graph(3, 4))]
    # two labels: every term carries |U|^-n = 2^-n
    cases += [(K2, {0, 1}), (Graph(2, 3, (0, 1, 1), ((0, 2),)), {0, 1})]
    for g, label_set in cases:
        for p in (Fraction(1, 4), Fraction(2, 3)):
            direct = eval_quasirandom(nind(LinComb.from_graph(g, label_set)), p)
            assert eval_nind_quasirandom(g, p, u=len(label_set)) == direct


def test_eval_nind_quasirandom_host_scaling():
    p = Fraction(1, 2)
    assert eval_nind_quasirandom(K2, p, u=2) == p * Fraction(1, 4)


@pytest.mark.parametrize(
    "p, u, message",
    [
        (0.1, 1, "sample points must be exact rationals, got float"),
        (0.5, 1, "sample points must be exact rationals, got float"),
        ("1/2", 1, "sample points must be exact rationals, got str"),
        # p outside [0, 1], which eval_quasirandom rejects too, and a u that
        # is not a label count
        (2, 1, "p must lie in [0, 1], got 2"),
        (Fraction(-1, 2), 1, "p must lie in [0, 1], got -1/2"),
        (Fraction(1, 2), 0, "u must be >= 1, got 0"),
        (Fraction(1, 2), -1, "u must be >= 1, got -1"),
        (Fraction(1, 2), 1.5, "u must be ints, got (1.5,)"),
    ],
    ids=["0.1", "0.5", "1/2", "p=2", "p=-1/2", "u=0", "u=-1", "u=1.5"],
)
def test_eval_nind_quasirandom_rejects_inexact_p(p, u, message):
    with pytest.raises(InputError) as info:
        eval_nind_quasirandom(K2, p, u)
    assert str(info.value) == message
    assert eval_nind_quasirandom(K2, 1) == 1


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: verify_goodman_lift(p_samples=(Fraction(1, 2), p)),
        lambda p: eval_quasirandom(_on_label(LinComb.from_graph(K2), 0), p),
    ],
    ids=["sample-list", "all-label-mass"],
)
def test_sample_points_must_be_exact(evaluate):
    with pytest.raises(InputError, match="exact rationals"):
        evaluate(0.5)
    evaluate(Fraction(1, 3))
    evaluate(1)


# ---------------------------------------------------------------------------
# the ladder bound and its pipeline


def _value(pairs, p):
    """The polynomial given by (exponent, coefficient) pairs, at p."""
    return sum(c * p**e for e, c in pairs)


def test_cited_polynomial_is_frozen():
    assert CITED_FIVE_CYCLE_POLY == (
        (4, Fraction(4)),
        (3, Fraction(-6)),
        (2, Fraction(4)),
        (1, Fraction(-1)),
    )
    assert _value(CITED_FIVE_CYCLE_POLY, Fraction(1)) == 1
    # the cited bound factors as p*(2p-1)*(2p^2-2p+1): zero at one half
    assert _value(CITED_FIVE_CYCLE_POLY, Fraction(1, 2)) == 0


def test_ladder_host_direct():
    h = m5_direct()
    assert h.n == 10 and h.e == 15
    assert set(h.degrees) == {3}
    for u, v in h.edges:  # bipartite across parities
        assert (u + v) % 2 == 1


def test_derived_bound_and_root():
    derived, root = m5_bound()
    assert derived == (
        (13, Fraction(4)),
        (11, Fraction(-6)),
        (9, Fraction(4)),
        (7, Fraction(-1)),
    )
    assert verify_m5().steps[1].witness == "4*p^13 - 6*p^11 + 4*p^9 - 1*p^7"
    assert _value(derived, Fraction(1)) == 1
    assert _value(derived, Fraction(1, 2)) == Fraction(-5, 2048)
    assert Fraction(74, 100) < root < Fraction(75, 100)
    assert abs(root - Fraction(74142, 100000)) < Fraction(1, 10**4)
    assert _value(derived, Fraction(74, 100)) < Fraction(74, 100) ** 17
    assert _value(derived, Fraction(75, 100)) > Fraction(75, 100) ** 17


# ---------------------------------------------------------------------------
# the verification checkers on fast instances


def test_verify_tensor_power():
    report = verify_tensor_power(K2, 2)
    assert report.verdict and len(report.steps) == 2
    assert report.identifier == "tensor-power-s2"
    assert verify_tensor_power(Graph(2, 0), 3).verdict
    with pytest.raises(InputError):
        verify_tensor_power(K2, 0)
    with pytest.raises(InputError):
        verify_tensor_power(Graph(2, 1, (1,)), 2)


def test_tensor_report_makes_no_operator_call(monkeypatch):
    from hypalg import harness

    def refuse(*args, **kwargs):
        raise AssertionError("the tensor report called the operator")

    monkeypatch.setattr(harness, "operator_apply", refuse)
    report = verify_tensor_power(K2, 3)
    assert report.verdict
    assert [s.kind for s in report.steps] == ["construction-equality", "exact-identity"]


def test_tensor_exact_step_fails_on_a_wrong_power(monkeypatch):
    from hypalg import harness, product

    def spurious(f, g):
        return product(f, g) + LinComb.from_graph(Graph(2, 1))

    monkeypatch.setattr(harness, "product", spurious)
    construct, exact = verify_tensor_power(K2, 2).steps
    assert construct.passed
    assert not exact.passed and exact.witness.startswith("difference at order")


def test_tensor_construction_step_fails_on_a_wrong_forced_graph(monkeypatch):
    from hypalg import functors, harness

    def one_slot_short(tau, g):
        return sorted(functors._forced_slots(tau, g))[1:]

    monkeypatch.setattr(harness, "_forced_slots", one_slot_short)
    construct, exact = verify_tensor_power(path_graph(2), 2).steps
    assert not construct.passed
    assert construct.witness == "3 forced edges; 6 vertices, 4 edges"
    assert exact.passed


def test_tensor_budget_bounds_the_subdivisions_supergraphs(monkeypatch):
    # C4 with s = 2 subdivides to two disjoint 4-cycles: 28 - 8 = 20 absent
    # pairs, 2^20 supergraphs, refused under 2^19 before any is canonicalised
    from hypalg import algebra, functors

    def canonicalise(*args, **kwargs):
        raise AssertionError("a graph was canonicalised before the refusal")

    for module in (algebra, functors):
        monkeypatch.setattr(module, "canonical", canonicalise)
    with pytest.raises(ResourceError, match="leaves 20 absent edge slots"):
        verify_tensor_power(cycle_graph(4), 2, budget=1 << 19)


def test_verify_gensubdivision_direct_swap(monkeypatch):
    # multiplicativity is cited, not checked: the swap is the report's one
    # operator_apply
    from hypalg import harness

    calls = []

    def counting(tau, f, budget):
        calls.append(f)
        return operator_apply(tau, f, budget)

    monkeypatch.setattr(harness, "operator_apply", counting)
    report = verify_gensubdivision(path_scheme(2), K2)
    assert report.verdict and len(report.steps) == 3
    assert "single-edge instance" not in report.steps[0].description
    assert len(calls) == 1 and not hasattr(harness, "check_multiplicative")


def test_verify_gensubdivision_budget_fallbacks():
    # swap falls back to the single-edge instance
    report = verify_gensubdivision(path_scheme(2), cycle_graph(4), budget=1 << 10)
    assert report.verdict
    assert "single-edge instance" in report.steps[0].description

    tier2 = verify_gensubdivision(loose_scheme(3), K2, budget=4)
    assert tier2.verdict


def test_verify_gensubdivision_refuses_before_swap_enumeration(monkeypatch):
    # blowup:4 on K2 leaves 12 edge slots, 4,096 completions; a 2^11 budget
    # refuses it before any completion is canonicalised. K2 is the single
    # edge the report would fall back to, so the first refusal stands
    from hypalg import blowup_scheme, functors, harness

    def canonicalise(*args, **kwargs):
        raise AssertionError("a completion was canonicalised before the refusal")

    calls = []

    def counting(tau, f, budget):
        calls.append(f)
        return operator_apply(tau, f, budget)

    monkeypatch.setattr(functors, "canonical", canonicalise)
    monkeypatch.setattr(harness, "operator_apply", counting)
    with pytest.raises(ResourceError, match="leaves 12 undecided edge slots"):
        verify_gensubdivision(blowup_scheme(4), K2, budget=1 << 11)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_gensubdivision(path_scheme(2), K2),
        lambda: verify_box(K2),
        lambda: verify_hypergraph(K2, 3, 1),
    ],
    ids=["gensub", "box", "hyper"],
)
def test_swap_step_fails_on_a_wrong_image(monkeypatch, verify):
    from hypalg import harness, operator_apply

    def spurious(tau, f, budget):
        image = operator_apply(tau, f, budget)
        return image + LinComb.from_graph(Graph(image.r, 1), image.label_set)

    monkeypatch.setattr(harness, "operator_apply", spurious)
    report = verify()
    swaps = [s for s in report.steps if "preimage sum" in s.description]
    assert swaps
    for step in swaps:
        assert not step.passed
        assert step.witness.startswith("difference at order")
    evals = [s for s in report.steps if s.kind == "evaluation-inequality"]
    assert evals
    for step in evals:
        assert not step.passed
        assert step.witness.startswith("image breaks at p=")
    assert not report.verdict


@pytest.mark.parametrize(
    "verify, calls",
    [
        (lambda: verify_gensubdivision(path_scheme(2), K2), 2),
        (lambda: verify_gensubdivision(path_scheme(2), cycle_graph(4), budget=1 << 10), 3),
        (lambda: verify_box(K2), 1),
        (lambda: verify_hypergraph(K2, 3, 1), 2),
        (lambda: verify_hypergraph(path_graph(2), 3, 1), 3),
    ],
    ids=["gensub", "gensub-single-edge", "box", "hyper", "hyper-single-edge"],
)
def test_swap_step_reads_the_reports_own_subdivision(monkeypatch, verify, calls):
    # one subdivision per swapped instance: the base graph, plus the single
    # edge when the report falls back to it; and one more for the edge
    # template of each unlabelled transformation, the subdivision of one edge
    from hypalg import constructions, harness

    real, seen = constructions.subdivide, []

    def counting(scheme, g):
        seen.append(g)
        return real(scheme, g)

    monkeypatch.setattr(harness, "subdivide", counting)
    monkeypatch.setattr(constructions, "subdivide", counting)
    assert verify().verdict
    assert len(seen) == calls


def test_verify_gensubdivision_preconditions():
    from hypalg import box_scheme

    with pytest.raises(InputError):
        verify_gensubdivision(box_scheme(), Graph(2, 1))  # isolated + edged gadget
    with pytest.raises(InputError, match=r"p must lie in \[0, 1\], got 3/2"):
        verify_gensubdivision(path_scheme(2), K2, p_samples=(Fraction(3, 2),))
    with pytest.raises(InputError):
        verify_gensubdivision(path_scheme(2), Graph(2, 2, (0, 1), ((0, 1),)))


# each report that subdivides a base graph, as a function of that base
_SUBDIVIDING = {
    "tensor": lambda g: verify_tensor_power(g, 2),
    "gensub": lambda g: verify_gensubdivision(path_scheme(2), g),
    "box": verify_box,
    "hyper": lambda g: verify_hypergraph(g, 3, 1),
}


@pytest.mark.parametrize(
    "base, message",
    [
        (Graph(2, 2, (0, 1), ((0, 1),)), "subdivide expects an unlabeled base graph"),
        (complete_graph(3, 3), "scheme subdivides 2-uniform graphs, got 3"),
    ],
    ids=["labelled", "3-uniform"],
)
@pytest.mark.parametrize("target", sorted(_SUBDIVIDING))
def test_subdividing_reports_refuse_a_base_before_any_enumeration(
    monkeypatch, target, base, message
):
    # subdivide is the one check of a base graph, and each report calls it
    # before it builds a supergraph sum or a preimage sum
    from hypalg import algebra, functors, harness

    def enumeration(*args, **kwargs):
        raise AssertionError("an enumeration ran before the refusal")

    for module in (algebra, harness):
        monkeypatch.setattr(module, "nind", enumeration)
    for module in (functors, harness):
        monkeypatch.setattr(module, "operator_apply", enumeration)
    with pytest.raises(InputError) as info:
        _SUBDIVIDING[target](base)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_gensubdivision(path_scheme(2), K2, ()),
        lambda: verify_box(K2, p_samples=()),
        lambda: verify_hypergraph(K2, 3, 1, []),
        lambda: verify_goodman_lift(p_samples=()),
    ],
    ids=["gensub", "box", "hyper", "goodman"],
)
def test_an_empty_sample_list_is_refused(verify):
    # no sample point would leave the evaluation steps nothing to check
    with pytest.raises(InputError) as info:
        verify()
    assert str(info.value) == "sample points must be nonempty"


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_tensor_power(K2, 2),
        lambda: verify_gensubdivision(path_scheme(2), K2),
        lambda: verify_box(K2),
        lambda: verify_hypergraph(K2, 3, 1),
        verify_goodman_lift,
        lambda: verify_forcing_pair_operator(2),
        verify_m5,
    ],
    ids=["tensor", "gensub", "box", "hyper", "goodman", "forcingpair", "m5"],
)
def test_wall_time_is_the_whole_call(verify):
    t0 = time.perf_counter()
    report = verify()
    outside = time.perf_counter() - t0
    assert 0 < report.wall_time <= outside


def test_verify_box():
    report = verify_box(K2)
    assert report.verdict and len(report.steps) == 4
    kinds = [s.kind for s in report.steps]
    assert kinds.count("construction-equality") == 1
    assert kinds.count("exact-identity") == 2
    with pytest.raises(InputError):
        verify_box(complete_graph(3, 3))


def test_verify_box_on_the_square_builds_the_cube():
    # "cubes are forcing": C4 is K2 box K2, so the box chain on C4 runs on
    # the cube Q3, and every step of its report passes
    c4 = cycle_graph(4)
    report = verify_box(c4)
    assert report.verdict and len(report.steps) == 4
    sub = subdivide(box_scheme(), c4)
    assert is_isomorphic(sub, box_product(c4, K2))
    assert is_isomorphic(sub, box_product(box_product(K2, K2), K2))


def test_verify_hypergraph_branches():
    loose = verify_hypergraph(K2, 3, 1)
    assert loose.verdict and len(loose.steps) == 3
    assert "loose" in loose.steps[0].description

    even = verify_hypergraph(K2, 4, 2)
    assert even.verdict and len(even.steps) == 3
    assert "even" in even.steps[0].description

    mixed = verify_hypergraph(path_graph(2), 5, 2)
    assert mixed.verdict and len(mixed.steps) == 3
    assert "mixed expansion" in mixed.steps[0].description

    with pytest.raises(InputError):
        verify_hypergraph(complete_graph(3, 3), 4, 1)
    with pytest.raises(InputError):
        verify_hypergraph(K2, 3, 2)  # two blocks of 2 do not fit in 3


def test_mixed_expansion_step_fails_on_shared_privates(monkeypatch):
    # both edges of P2 take the one private 6 and 7 stays isolated: the
    # vertex and edge counts of the real subdivision, so only a comparison
    # with the direct expansion can tell them apart
    from hypalg import harness, mixed_scheme, subdivide

    p2 = path_graph(2)
    real = subdivide(mixed_scheme(5, 2), p2)
    shared = Graph(5, 8, None, ((0, 1, 2, 3, 6), (2, 3, 4, 5, 6)))
    assert (shared.n, len(shared.edges)) == (real.n, len(real.edges))

    def sharing(scheme, g):
        return shared if g == p2 else subdivide(scheme, g)

    monkeypatch.setattr(harness, "subdivide", sharing)
    report = verify_hypergraph(p2, 5, 2)
    assert [s.passed for s in report.steps] == [False, True, True]
    assert "mixed expansion" in report.steps[0].description


def test_gensub_edge_count_is_the_only_failing_step():
    # two base edges on one pair of vertices give two triangles sharing the
    # edge (0 1): five distinct edges, where the count expects six, while
    # the swap and its evaluation hold
    from hypalg import scheme_from_text

    scheme = scheme_from_text(
        "graph{r=2;n=1;l=;e=}\ngraph{r=2;n=3;l=;e=(0 1)(0 2)(1 2)}\nsets=(0)(1)(2)\n"
    )
    report = verify_gensubdivision(scheme, Graph(3, 4, None, ((0, 1, 2), (0, 1, 3))))
    assert [s.passed for s in report.steps] == [True, False, True]
    assert report.steps[1].witness == "5 edges vs 2*3 + 4*0"


def test_verify_goodman_lift():
    report = verify_goodman_lift()
    assert report.verdict and len(report.steps) == 5
    report_custom = verify_goodman_lift(p_samples=(Fraction(1, 3), Fraction(2, 5)))
    assert report_custom.verdict


def test_verify_forcing_pair_operator():
    report = verify_forcing_pair_operator(2)
    assert report.verdict and len(report.steps) == 3
    with pytest.raises(InputError):
        verify_forcing_pair_operator(1)


def test_verify_m5():
    report = verify_m5()
    assert report.verdict and len(report.steps) == 3
    assert report.identifier == "five-cycle-ladder-bound"


def test_machine_reports_are_deterministic():
    for make in (verify_goodman_lift, verify_m5):
        first = format_report(make(), "machine")
        second = format_report(make(), "machine")
        assert first == second
        assert all(line.split("\t")[2] == "pass" for line in first.splitlines())
