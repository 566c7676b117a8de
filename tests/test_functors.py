"""Downward functors, template transformations, and the preimage operator."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest

import property_suites
from hypalg import (
    ConstF,
    Graph,
    InputError,
    LinComb,
    ProductF,
    ResourceError,
    SubsetsF,
    UnionF,
    UpwardTransformation,
    alg_equal,
    apply_functor_set,
    blowup_scheme,
    box_scheme,
    canonical,
    complete_graph,
    copies_scheme,
    crossing_scheme,
    cycle_graph,
    even_scheme,
    functor_from_text,
    functor_size,
    functor_to_text,
    lift,
    loose_scheme,
    mixed_scheme,
    nind,
    operator_apply,
    path_graph,
    path_scheme,
    point,
    product,
    subdivide,
    tau_apply,
    triangle_scheme,
)
from hypalg import algebra, functors, graphs
from oracles import (
    brute_operator_apply,
    brute_well_defined,
    inclusion_exclusion_operator_apply,
    reference_canonical,
)


def test_apply_functor_set_orderings():
    assert apply_functor_set(SubsetsF(2), 3) == ((0, 1), (0, 2), (1, 2))
    assert apply_functor_set(SubsetsF(0), 2) == ((),)
    assert apply_functor_set(ConstF(2), 5) == (0, 1)
    eta = UnionF(SubsetsF(1), ConstF(1))
    assert apply_functor_set(eta, 2) == ((0, (0,)), (0, (1,)), (1, 0))
    prod = ProductF(SubsetsF(1), ConstF(2))
    assert apply_functor_set(prod, 2) == (
        ((0,), 0),
        ((0,), 1),
        ((1,), 0),
        ((1,), 1),
    )


def test_box_functor_block_positions():
    # vertex v's block must occupy flat positions 2v, 2v+1 and privates none
    eta = box_scheme().eta()
    elems = apply_functor_set(eta, 3)
    assert len(elems) == 6
    for v in range(3):
        assert elems[2 * v] == (0, ((v,), 0))
        assert elems[2 * v + 1] == (0, ((v,), 1))


def test_loose_functor_private_positions():
    eta = loose_scheme(3).eta()
    elems = apply_functor_set(eta, 3)
    # three singleton blocks then one private per pair, pairs in lex order
    assert elems[:3] == ((0, ((0,), 0)), (0, ((1,), 0)), (0, ((2,), 0)))
    assert elems[3:] == ((1, ((0, 1), 0)), (1, ((0, 2), 0)), (1, ((1, 2), 0)))


def test_functor_positions():
    eta = SubsetsF(2)
    alpha = (2, 0, 3)
    ind = functors._positions(eta, 4, alpha)
    src = apply_functor_set(eta, 3)
    tgt = apply_functor_set(eta, 4)
    for i, sub in enumerate(src):
        assert tgt[ind[i]] == tuple(sorted(alpha[v] for v in sub))


def test_functor_composition_law_spot():
    eta = UnionF(ProductF(SubsetsF(1), ConstF(2)), SubsetsF(2))
    alpha, beta = (2, 0), (1, 4, 2)
    lhs = functors._positions(eta, 5, tuple(beta[i] for i in alpha))
    outer = functors._positions(eta, 5, beta)
    assert lhs == tuple(outer[i] for i in functors._positions(eta, 3, alpha))


def test_functor_size():
    assert functor_size(SubsetsF(2), 4) == 6
    assert functor_size(ConstF(1), 99) == 1
    assert functor_size(box_scheme().eta(), 4) == 8


def test_functor_size_in_closed_form():
    # no set is built: a constant set past any index fits, and every
    # catalog scheme's eta has the size of its listed elements
    assert functor_size(ConstF(10**30), 1) == 10**30
    assert functor_size(ProductF(ConstF(10**30), SubsetsF(2)), 4) == 6 * 10**30
    catalog = [f(k) for f in (blowup_scheme, copies_scheme, path_scheme) for k in (1, 2, 3)]
    catalog += [box_scheme(), crossing_scheme(), triangle_scheme()]
    catalog += [loose_scheme(3), loose_scheme(4), even_scheme(4), mixed_scheme(5, 2)]
    for scheme in catalog:
        for n in range(7):
            assert functor_size(scheme.eta(), n) == len(apply_functor_set(scheme.eta(), n))


def test_apply_functor_set_refuses_a_size_no_tuple_holds():
    # the closed-form size is checked before any element is listed: 10**30
    # constants, and the C(10**10, 2) ~ 5e19 pairs of SubsetsF(2)
    tracemalloc.start()
    try:
        for eta, n in ((ConstF(10**30), 1), (SubsetsF(2), 10**10)):
            size = functor_size(eta, n)
            with pytest.raises(ResourceError, match=f"has {size} elements"):
                apply_functor_set(eta, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_functor_text_round_trip():
    cases = [
        SubsetsF(1),
        ConstF(3),
        UnionF(ProductF(SubsetsF(1), ConstF(2)), ProductF(SubsetsF(2), ConstF(0))),
    ]
    for eta in cases:
        assert functor_from_text(functor_to_text(eta)) == eta
    assert functor_to_text(box_scheme().eta()) == "u(x(sub(1),const(2)),x(sub(2),const(0)))"
    # `u` and `x` nest up to 100 deep
    deep = "u(" * 100 + "sub(1)" + ",sub(1))" * 100
    assert functor_to_text(functor_from_text(deep)) == deep
    # whitespace may surround every token, at both ends too
    assert functor_from_text("sub(1) ") == SubsetsF(1)
    assert functor_from_text("\tu ( sub(1) ,const( 2 ) )\n") == UnionF(
        SubsetsF(1), ConstF(2)
    )
    # a constant set is read as its size, however large, without building it
    huge = "const(" + "9" * 30 + ")"
    assert functor_from_text(huge) == ConstF(10**30 - 1)
    assert functor_to_text(functor_from_text(huge)) == huge


@pytest.mark.parametrize(
    "text",
    [
        "sub()",
        "sub(1",
        "u(sub(1))",
        "x(sub(1),sub(2)) trailing",
        "nope(2)",
        "",
        "const(x)",  # argument not an integer
        "x sub(1)",  # no '(' after x
        "u(sub(1),sub(2)",  # no closing ')'
        ")",  # unexpected token
        "sub(1) sub(2)",  # trailing tokens
        "sub(１)",  # full-width digit
        "sub(01)",  # leading zero
        pytest.param(f"sub({'1' * 5000})", id="5000-digit argument"),
        pytest.param("u(" * 1000 + "sub(1)" + ",sub(1))" * 1000, id="1000 nested u"),
        pytest.param("x(" * 101 + "sub(1)" + ",sub(1))" * 101, id="101 nested x"),
        # parentheses, commas and arguments out of place
        "u(sub(1)sub(2))",
        "u(sub(1),,sub(2))",
        "u((sub(1),sub(2)))",
        "sub(1 2)",
        "sub 1",
        "u(sub(1),sub(2),sub(3))",
        "(sub(1))",
        # deep in u but not in parentheses: refused before the printer recurses
        pytest.param("u" * 3000 + "sub(1)" * 3001, id="3000 u without parentheses"),
    ],
)
def test_functor_text_rejects(text):
    with pytest.raises(InputError):
        functor_from_text(text)


def test_tau_apply_box_scheme():
    scheme = box_scheme()
    tau = scheme.transformation()
    c4 = cycle_graph(4)
    sub = subdivide(scheme, c4)
    assert tau_apply(tau, sub, 4) == c4
    # dropping one crossing edge erases exactly the base edges that need it
    weaker = Graph(2, sub.n, None, tuple(e for e in sub.edges if e != (0, 1)))
    out = tau_apply(tau, weaker, 4)
    assert (0, 1) not in out.edge_set and (0, 3) not in out.edge_set


def test_tau_apply_labeled_box_scheme():
    scheme = box_scheme()
    tau = scheme.transformation(labeled=True)
    sub = subdivide(scheme, path_graph(2))
    assert tau_apply(tau, sub, 3) == Graph(2, 3, (0, 0, 0), path_graph(2).edges)
    # remove one block's internal edge: that vertex falls to the dump label
    weaker = Graph(2, sub.n, None, tuple(e for e in sub.edges if e != (4, 5)))
    out = tau_apply(tau, weaker, 3)
    assert out.labels == (0, 0, 1)
    # edge rule reads only the crossing gadget, so base edges survive
    assert out.edge_set == path_graph(2).edge_set


def test_tau_apply_validation():
    tau = box_scheme().transformation()
    with pytest.raises(InputError):
        tau_apply(tau, complete_graph(3, 4), 2)  # wrong uniformity
    with pytest.raises(InputError):
        tau_apply(tau, Graph(2, 4, (0, 0, 0, 1), ()), 2)  # label outside tau's set
    with pytest.raises(InputError):
        tau_apply(tau, complete_graph(2, 4), 3)  # eta([3]) has 6 elements


def test_tau_apply_constant_functor():
    # eta([n]) has the same two elements for every n, so only n fixes the output
    tau = UpwardTransformation(ConstF(2), 2, 2, Graph(2, 2, None, ((0, 1),)))
    assert tau_apply(tau, complete_graph(2, 2), 3) == complete_graph(2, 3)
    assert tau_apply(tau, Graph(2, 2), 3) == Graph(2, 3)


def test_transformation_validation():
    eta = SubsetsF(1)
    with pytest.raises(InputError):  # template on wrong vertex count
        UpwardTransformation(eta, 2, 2, Graph(2, 3))
    with pytest.raises(InputError):  # labeled template refused
        UpwardTransformation(eta, 2, 2, Graph(2, 2, (0, 1), ()))
    with pytest.raises(InputError):  # default label outside output labels
        UpwardTransformation(eta, 2, 2, Graph(2, 2), default_label=5)
    with pytest.raises(InputError):  # vertex rule label outside output labels
        UpwardTransformation(
            eta, 2, 2, Graph(2, 2), vertex_rules=((7, Graph(2, 1)),)
        )
    with pytest.raises(InputError):  # vertex template on wrong vertex count
        UpwardTransformation(eta, 2, 2, Graph(2, 2), vertex_rules=((0, Graph(2, 2)),))
    with pytest.raises(InputError):  # labeled vertex template refused
        UpwardTransformation(
            eta, 2, 2, Graph(2, 2), vertex_rules=((0, Graph(2, 1, (1,))),)
        )
    # a 1-uniform output has no permutation to commute with
    one = UpwardTransformation(eta, 2, 1, Graph(2, 1))
    assert tau_apply(one, Graph(2, 3), 3) == Graph(1, 3, None, ((0,), (1,), (2,)))


def test_ill_defined_transformation_rejected():
    # an asymmetric template over Union(Subsets(0), Subsets(1)): the edge
    # depends on which base vertex is which, so permuting [2] changes the rule
    eta = UnionF(SubsetsF(0), SubsetsF(1))
    template = Graph(2, 3, None, ((0, 1),))
    with pytest.raises(InputError, match="ill-defined"):
        UpwardTransformation(eta, 2, 2, template)


def test_well_definedness_has_no_size_ceiling():
    # 66 slots on eta([2]): far beyond enumerating the 2^66 graphs
    eta = ProductF(SubsetsF(1), ConstF(6))
    empty = UpwardTransformation(eta, 2, 2, Graph(2, 12))
    assert tau_apply(empty, Graph(2, 18), 3) == complete_graph(2, 3)
    # copy c of vertex 0 joined to copy c of vertex 1
    matching = Graph(2, 12, None, tuple((c, 6 + c) for c in range(6)))
    tau = UpwardTransformation(eta, 2, 2, matching)
    h = Graph(2, 18, None, tuple((c, 6 + c) for c in range(6)) + ((6, 12),))
    assert tau_apply(tau, h, 3) == Graph(2, 3, None, ((0, 1),))
    # blowup:4 has 28 slots on eta([2])
    scheme = blowup_scheme(4)
    sub = subdivide(scheme, path_graph(3))
    assert tau_apply(scheme.transformation(), sub, 4) == path_graph(3)


def _constructs(fields):
    try:
        UpwardTransformation(**fields)
    except InputError as exc:
        assert "ill-defined (witness permutation" in str(exc)
        return False
    return True


def _random_functor(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return SubsetsF(rng.choice((0, 1, 1, 2)))
        return ConstF(rng.choice((1, 2)))
    cls = rng.choice((UnionF, ProductF))
    return cls(_random_functor(rng, depth - 1), _random_functor(rng, depth - 1))


def _slot_orbits(eta, r, k, group):
    """Orbits of r-sets of eta([k]) under eta of a permutation group."""
    n_rule = functor_size(eta, k)
    slots = list(combinations(range(n_rule), r))
    moves = [functors._positions(eta, k, g) for g in group]
    seen, orbits = set(), []
    for s in slots:
        if s in seen:
            continue
        orbit = {tuple(sorted(pos[v] for v in s)) for pos in moves}
        seen |= orbit
        orbits.append(sorted(orbit))
    return slots, orbits


# Sym(3) and its subgroups <(0 1)> and <(0 1 2)>, so that templates fixed by
# one generator but not the other occur
_SYM3_GROUPS = (
    tuple(permutations(range(3))),
    ((0, 1, 2), (1, 0, 2)),
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
)


def _random_rule_fields(rng):
    """Fields of a random small rule set: a union of slot orbits under
    Sym(base_r) or one of its subgroups, then with probability 1/3 one slot
    of a non-trivial orbit toggled (usually breaking symmetry), sometimes
    with a vertex rule and a two-label input side."""
    while True:
        eta = _random_functor(rng, 2)
        k = rng.choice((2, 3))
        r = rng.choice((1, 2, 2, 3))
        n_rule = functor_size(eta, k)
        if n_rule >= r and math.comb(n_rule, r) <= (10 if k == 2 else 9):
            break
    group = rng.choice(_SYM3_GROUPS) if k == 3 else ((0, 1), (1, 0))
    slots, orbits = _slot_orbits(eta, r, k, group)
    edges = {s for orbit in orbits if rng.random() < 0.5 for s in orbit}
    moved = [s for orbit in orbits if len(orbit) > 1 for s in orbit]
    if moved and rng.random() < 1 / 3:
        edges ^= {rng.choice(moved)}
    fields = {
        "eta": eta,
        "r": r,
        "base_r": k,
        "edge_template": Graph(r, n_rule, None, tuple(sorted(edges))),
        "labels": frozenset({0, 1}) if rng.random() < 0.3 else frozenset({0}),
    }
    n_vert = functor_size(eta, 1)
    if rng.random() < 0.3:
        vslots = list(combinations(range(n_vert), r))
        vedges = tuple(s for s in vslots if rng.random() < 0.5)
        fields["base_labels"] = frozenset({0, 1})
        fields["vertex_rules"] = ((0, Graph(r, n_vert, None, vedges)),)
        fields["default_label"] = 1
    return fields


def test_well_definedness_matches_brute_force():
    # shipped gadgets with at most 2^10 graphs on eta([base_r])
    cases = []
    for _, scheme in property_suites._shipped_gadgets():
        for labeled in (False, True):
            tau = scheme.transformation(labeled=labeled)
            if math.comb(functor_size(tau.eta, tau.base_r), tau.r) <= 10:
                fields = dataclasses.fields(tau)
                cases.append({f.name: getattr(tau, f.name) for f in fields})
    assert len(cases) == 28
    # negative controls: the direction-sensitive path gadget, and an
    # asymmetric template over Union(Subsets(0), Subsets(1))
    path = path_scheme(3)
    cases.append(
        {
            "eta": path.eta(),
            "r": 2,
            "base_r": 2,
            "edge_template": path.f_e,
        }
    )
    cases.append(
        {
            "eta": UnionF(SubsetsF(0), SubsetsF(1)),
            "r": 2,
            "base_r": 2,
            "edge_template": Graph(2, 3, None, ((0, 1),)),
        }
    )
    # each generator is needed: over ordered pairs of [3] (r = 1), the
    # template {(0,1), (1,2), (2,0)} is fixed by (0 1 2) but not by (0 1),
    # and {(0,1), (1,0)} by (0 1) but not by (0 1 2)
    pairs = ProductF(SubsetsF(1), SubsetsF(1))
    for template in (((1,), (5,), (6,)), ((1,), (3,))):
        cases.append(
            {
                "eta": pairs,
                "r": 1,
                "base_r": 3,
                "edge_template": Graph(1, 9, None, template),
            }
        )
    rng = random.Random(31337)
    cases += [_random_rule_fields(rng) for _ in range(200)]
    verdicts = []
    for fields in cases:
        expected = brute_well_defined(**fields) is None
        assert _constructs(fields) == expected, fields
        verdicts.append(expected)
    assert verdicts[:28] == [True] * 28
    assert verdicts[28:32] == [False] * 4
    assert verdicts[32:].count(True) >= 40 and verdicts[32:].count(False) >= 40


def test_operator_budget():
    tau = box_scheme().transformation()
    with pytest.raises(ResourceError, match="undecided edge slots"):
        operator_apply(tau, nind(path_graph(2)), budget=4)
    with pytest.raises(InputError):
        operator_apply(tau, nind(path_graph(2)), budget=0)


def test_operator_budget_message_counts_labellings():
    # one edge on three vertices: each non-edge is one slot that must stay
    # off, so no slot is undecided; the three input vertices carry either
    # of two labels: 2^0 * 2^3 = 8
    tau = UpwardTransformation(
        SubsetsF(1), 2, 2, complete_graph(2, 2), labels=frozenset({0, 1})
    )
    term = LinComb.from_graph(Graph(2, 3, None, ((0, 1),)))
    with pytest.raises(ResourceError) as info:
        operator_apply(tau, term, budget=4)
    assert str(info.value) == (
        "term of order 3 leaves 0 undecided edge slots on eta([3]) "
        "(2^0 edge sets * 2^3 labellings = 8 completions; budget 4)"
    )
    # the only edge set is the term's own edge, under all 8 labellings
    got = operator_apply(tau, term, budget=8)
    assert sum(got.coeffs.values()) == 8


def test_operator_decides_slots_a_lone_non_edge_forces_off():
    # under blowup:1 each non-edge of the term is one slot that must stay
    # off, so the only completion of P7 is P7 itself; counting those slots
    # as undecided asked for 2^21 edge sets, over the default budget
    tau = blowup_scheme(1).transformation()
    got = operator_apply(tau, LinComb.from_graph(path_graph(7)))
    assert got == LinComb.from_graph(path_graph(7))


def test_operator_on_a_supergraph_sum_shaped_term_enumerates():
    # under blowup:1 each of the 28 non-edges of the empty graph on 8
    # vertices is a slot that stays off: one completion, and nothing may
    # expand the term's 2^28 supergraphs on the way
    term = LinComb.from_graph(Graph(2, 8))
    assert operator_apply(blowup_scheme(1).transformation(), term) == term


def test_operator_validates_input():
    tau = box_scheme().transformation()
    with pytest.raises(InputError):
        operator_apply(tau, nind(complete_graph(3, 3)))  # wrong uniformity
    with pytest.raises(InputError):
        operator_apply(tau, point(2, 0, {0, 1}))  # wrong label set


def test_operator_point_preimage_counts_completions():
    # blow-up style gadget: the point's block has one internal slot, so both
    # completions map back to the point
    from hypalg import blowup_scheme

    tau = blowup_scheme(2).transformation()
    got = operator_apply(tau, point(2, 0))
    assert got.coefficient(Graph(2, 2)) == 1
    assert got.coefficient(complete_graph(2, 2)) == 1
    assert len(got.coeffs) == 2


def _two_rule_transformation(labels):
    """Two copies of each base vertex; a base edge joins the 0-copies, and a
    vertex is labelled 1 when its copies are adjacent, else 2 (the second
    rule's empty template always holds). Two vertex rules send the operator
    through its per-completion label check."""
    return UpwardTransformation(
        functor_from_text("x(sub(1),const(2))"),
        2,
        2,
        Graph(2, 4, None, ((0, 2),)),
        labels=labels,
        base_labels=frozenset({1, 2}),
        vertex_rules=((1, complete_graph(2, 2)), (2, Graph(2, 2))),
        default_label=2,
    )


_K2 = complete_graph(2, 2)
_K3 = complete_graph(2, 3)
_P2 = path_graph(2)
_I2 = Graph(2, 2)
_I3 = Graph(2, 3)
_PT = Graph(2, 1)

# (operator, terms): the terms' automorphism groups have orders 1, 2 and 6,
# and eta([n]) has at most 6 elements, or 4 with two input labels, which
# multiply the graphs to enumerate by 2^|eta([n])|
_BRUTE_CASES = {
    "blowup:1": (blowup_scheme(1).transformation(), [_K3, _I3, _P2, _PT]),
    "blowup:2": (blowup_scheme(2).transformation(), [_K3, _K2, _PT]),
    "copies:2": (copies_scheme(2).transformation(), [_K2, _I2]),
    "copies:3": (copies_scheme(3).transformation(), [_PT]),
    "path:2": (path_scheme(2).transformation(), [_K2, _I2]),
    "triangle": (triangle_scheme().transformation(), [_K2, _I2]),
    "box": (box_scheme().transformation(), [_K2, _I2, _PT]),
    "crossing": (crossing_scheme().transformation(), [_K2]),
    "loose:3": (loose_scheme(3).transformation(), [_K2, _I2]),
    "even:4": (even_scheme(4).transformation(), [_K2, _I2]),
    "box/dump": (
        box_scheme().transformation(labeled=True),
        [
            Graph(2, 3, (1, 1, 1), _K3.edges),
            Graph(2, 2, (0, 1), ((0, 1),)),
            Graph(2, 2, (1, 1), ((0, 1),)),
            Graph(2, 2, (0, 0)),
            Graph(2, 2, (0, 1)),  # a trivial Aut(g) with a label constraint
        ],
    ),
    "crossing/dump": (
        crossing_scheme().transformation(labeled=True),
        [Graph(2, 2, (0, 1), ((0, 1),)), Graph(2, 2, (1, 1)), Graph(2, 2, (0, 1))],
    ),
    "two rules": (
        _two_rule_transformation(frozenset({0, 1})),
        [Graph(2, 2, (1, 2), ((0, 1),)), Graph(2, 2, (2, 2)), Graph(2, 1, (1,))],
    ),
    "two rules, one input label": (
        _two_rule_transformation(frozenset({0})),
        [Graph(2, 3, (1, 1, 1), _K3.edges)],
    ),
    # one vertex rule (label 0) and the default 1: a term vertex labelled 2
    # has no preimage
    "box/dump, a third label": (
        dataclasses.replace(
            box_scheme().transformation(labeled=True),
            base_labels=frozenset({0, 1, 2}),
        ),
        [Graph(2, 2, (0, 2), ((0, 1),)), Graph(2, 1, (2,)), Graph(2, 2, (0, 1))],
    ),
    # the one rule gives the default label 0, so its template is never
    # forced: a vertex gets 0 with or without it
    "box, the rule's label as default": (
        dataclasses.replace(box_scheme().transformation(labeled=True), default_label=0),
        [Graph(2, 2, (0, 0), ((0, 1),)), Graph(2, 1, (0,)), Graph(2, 2, (0, 1))],
    ),
    # both rules give the default label 2, so every vertex gets 2 whatever
    # the edges are, and a term with label 1 has no preimage
    "two default rules": (
        UpwardTransformation(
            functor_from_text("x(sub(1),const(2))"),
            2,
            2,
            Graph(2, 4, None, ((0, 2),)),
            base_labels=frozenset({1, 2}),
            vertex_rules=((2, _K2), (2, _I2)),
            default_label=2,
        ),
        [
            Graph(2, 2, (2, 2), ((0, 1),)),
            Graph(2, 2, (1, 2), ((0, 1),)),
            Graph(2, 1, (2,)),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_BRUTE_CASES))
def test_operator_matches_brute_force(case):
    tau, terms = _BRUTE_CASES[case]
    for term in terms:
        f = LinComb.from_graph(term, tau.base_labels)
        got = operator_apply(tau, f)
        by_class = {reference_canonical(h)[0]: c for h, c in got.coeffs.items()}
        assert len(by_class) == len(got.coeffs)
        assert by_class == brute_operator_apply(tau, f), (case, term)


# the catalog's schemes; loose:3 reads 3-uniform graphs on eta([n]), where
# one edgeless 3-vertex term takes seconds, so its terms keep to 2 vertices
_CATALOG = {
    "blowup:1": (blowup_scheme(1), 3),
    "blowup:2": (blowup_scheme(2), 3),
    "copies:2": (copies_scheme(2), 3),
    "path:2": (path_scheme(2), 3),
    "triangle": (triangle_scheme(), 3),
    "box": (box_scheme(), 3),
    "crossing": (crossing_scheme(), 3),
    "loose:3": (loose_scheme(3), 2),
    "even:4": (even_scheme(4), 3),
}
_CATALOG_TAUS = {
    f"{name}{'/dump' * labeled}": (scheme.transformation(labeled), n_max)
    for name, (scheme, n_max) in _CATALOG.items()
    for labeled in (False, True)
}
# a term label that no rule gives: beside the one rule, and where the one
# rule gives the default label
for _case in ("box/dump, a third label", "box, the rule's label as default"):
    _CATALOG_TAUS[_case] = _BRUTE_CASES[_case][0], 3
_NON_UNIT = [Fraction(-5, 7), Fraction(3, 2), Fraction(11, 13), Fraction(-2), Fraction(1, 3)]


@pytest.mark.parametrize("case", sorted(_CATALOG_TAUS))
def test_operator_matches_inclusion_exclusion(case):
    # an algorithm sharing only nind and canonical with the operator; on 3
    # vertices eta([3]) has 6 elements, past the brute force's reach
    tau, n_max = _CATALOG_TAUS[case]
    rng = random.Random(f"inclusion-exclusion {case}")
    for _ in range(6):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, n_max)
            labels = [rng.choice(sorted(tau.base_labels)) for _ in range(n)]
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            coeffs[Graph(2, n, labels, edges)] = rng.choice(_NON_UNIT)
        f = LinComb(2, tau.base_labels, coeffs)
        assert operator_apply(tau, f) == inclusion_exclusion_operator_apply(tau, f), f


def test_trusted_values_are_in_normal_form():
    # the kernels build their graphs without the constructor's checks; each
    # graph they canonicalise and each key they return must be the value the
    # public constructor makes of it
    start = len(graphs._CANON_CACHE)  # the cache only grows, in order
    rng = random.Random(8117)
    keys = []
    for r in (2, 3):
        for labels in (frozenset({0}), frozenset({0, 1})):

            def graph(n_max):
                return property_suites._random_graph(
                    rng, n_max, (r,), labeled=True, label_set=tuple(sorted(labels))
                )

            keys += [canonical(graph(6))[0] for _ in range(40)]
            # operands small enough that a product has at most 2^9 terms
            n_max = 3 if r == 2 else 2
            for _ in range(4):
                f, g = (
                    LinComb(r, labels, {graph(n_max): 1 for _ in range(2)})
                    for _ in range(2)
                )
                keys += product(f, g).coeffs
                keys += nind(f).coeffs
                keys += lift(f, 4).lincomb.coeffs
    for case in ("copies:2", "box/dump", "two rules"):
        tau, terms = _BRUTE_CASES[case]
        for term in terms:
            f = LinComb.from_graph(term, tau.base_labels)
            keys += operator_apply(tau, f).coeffs
    keys += islice(graphs._CANON_CACHE, start, None)
    for g in keys:
        public = Graph(g.r, g.n, g.labels, g.edges)
        assert public == g and hash(public) == hash(g) and repr(public) == repr(g)
        assert all(type(x) is int for x in g.labels), g


@pytest.mark.parametrize(
    "scheme, term, bound",
    [
        (copies_scheme(3), complete_graph(2, 2), 2080),
        (copies_scheme(2), path_graph(2), 920),
        (triangle_scheme(), path_graph(2), 268),
        (path_scheme(2), path_graph(2), 920),
    ],
)
def test_operator_canonicalises_one_completion_per_orbit(
    monkeypatch, scheme, term, bound
):
    # one canonical form per Aut(term)-orbit of completions; enumerating
    # every completion took 4096, 2048, 512 and 2048 calls
    calls = []

    def counting(h):
        calls.append(h)
        return canonical(h)

    monkeypatch.setattr(functors, "canonical", counting)
    tau = scheme.transformation()
    operator_apply(tau, nind(term))
    assert len(calls) <= bound


def test_product_canonicalises_one_cross_subset_per_orbit(monkeypatch):
    # the right side of the crossing scheme's multiplicativity check: one
    # canonical form per Aut(F) x Aut(G)-orbit of cross subsets takes 240
    # calls; every cross subset took 1,536
    tau = crossing_scheme().transformation()
    f = operator_apply(tau, complete_graph(2, 2))
    g = operator_apply(tau, point(2, 0))
    calls = []

    def counting(h):
        calls.append(h)
        return canonical(h)

    monkeypatch.setattr(algebra, "canonical", counting)
    algebra._spanned.cache_clear()  # else earlier tests may hold the tallies
    product(f, g)
    assert len(calls) <= 400


def _multiplicative(tau, f, g):
    """Whether tau's operator carries the product of f and g to the product
    of their images."""
    images = product(operator_apply(tau, f), operator_apply(tau, g))
    return alg_equal(operator_apply(tau, product(f, g)), images)


_K2_POINT = (LinComb.from_graph(complete_graph(2, 2)), point(2, 0))
_POINT_POINT = (point(2, 0), point(2, 0))


@pytest.mark.parametrize(
    "scheme, pair",
    [
        (triangle_scheme(), _K2_POINT),
        (crossing_scheme(), _K2_POINT),
        (box_scheme(), _K2_POINT),
        (blowup_scheme(2), _K2_POINT),
        (path_scheme(2), _K2_POINT),
        (loose_scheme(3), _POINT_POINT),
    ],
    ids=["triangle", "crossing", "box", "blowup:2", "path:2", "loose:3"],
)
def test_multiplicativity_and_const_counterexample(scheme, pair):
    # a constant part makes the operator non-multiplicative: tie both base
    # vertices to one shared constant vertex
    eta = UnionF(SubsetsF(1), ConstF(1))
    tau = UpwardTransformation(eta, 2, 2, Graph(2, 3, None, ((0, 2), (1, 2))))
    k2 = LinComb.from_graph(complete_graph(2, 2))
    assert operator_apply(tau, k2) == nind(path_graph(2))
    assert _multiplicative(tau, k2, point(2, 0))
    assert not _multiplicative(tau, k2, k2)
    # constant-free schemes are multiplicative: every scheme's eta is empty
    # on the empty set, so operator_apply must agree with product on the
    # schemes whose gensub reports cite the lemma rather than check it
    for _, shipped in property_suites._shipped_gadgets():
        assert functor_size(shipped.eta(), 0) == 0
    assert _multiplicative(scheme.transformation(), *pair)
