"""Downward set functors, upward template transformations, and the
preimage-sum operator between graph algebras.

A `DownwardFunctor` is an expression tree over four constructors — k-subsets,
a constant set, disjoint union, cartesian product — evaluated on the sets
{0..n-1} and on injections between them. Elements of an applied functor carry
a fixed canonical ordering, so a graph "on eta([n])" is an ordinary `Graph`
whose vertex i is the i-th element of that ordering.

An `UpwardTransformation` tau maps graphs on eta([n]) to graphs on [n]. It is
given by rules on the small sets eta([r']) and eta([1]): an r'-set of the
output is an edge iff a fixed template is contained in the corresponding
induced subgraph, and each output vertex gets the label of the first vertex
rule whose template is contained (or a default). Rules read only the edge
relation of the input graph, never its labels; this template-containment
form is a deliberate restriction — it covers every transformation shipped
here and makes well-definedness decidable. Construction checks the
well-definedness condition, that the rule-induced map on graphs over
eta([r']) commutes with every permutation of [r'], through its exact
criterion: the two generators of Sym(r') must map the edge template onto
itself (see `UpwardTransformation._check_well_defined`).

`operator_apply` maps a combination over the output algebra of a
transformation tau to one over its input algebra by summing, for each term
G, all graphs H on eta(V_G) with tau(H) = G. It always enumerates the
completions of G (edge sets and labellings of eta(V_G)) but canonicalises
only those of one edge set per orbit of Aut(G), weighted by the orbit size,
through the subset search and the automorphism list that products and
`nind` share (`algebra._orbit_subsets`, `algebra._aut`). Its budget bounds
the completions enumerated, not those canonicalised. On nind(g) a scheme's
transformation gives nind of the forced graph (`_forced_slots`), which
equals `nind(subdivide(scheme, g))` in the quotient.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as iter_product

from .algebra import LinComb, _aut, _coerce, _fractions, _label_set, _orbit_subsets, _scaled
from .errors import InputError, ResourceError
from .graphs import _INT, Graph, _ints, _moved, canonical

__all__ = [
    "ConstF",
    "ProductF",
    "SubsetsF",
    "UnionF",
    "UpwardTransformation",
    "apply_functor_set",
    "functor_from_text",
    "functor_size",
    "functor_to_text",
    "operator_apply",
    "tau_apply",
]


# ---------------------------------------------------------------------------
# downward functors


@dataclass(frozen=True)
class SubsetsF:
    """The functor sending M to its k-element subsets."""

    k: int

    def __post_init__(self) -> None:
        (k,) = _ints((self.k,), "subset size", 0)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class ConstF:
    """The constant functor: every set maps to the fixed set {0..k-1}. Only
    its size reaches a graph on eta([n]), whose vertices are positions."""

    k: int

    def __post_init__(self) -> None:
        (k,) = _ints((self.k,), "constant set size", 0)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class UnionF:
    left: object
    right: object


@dataclass(frozen=True)
class ProductF:
    left: object
    right: object


@lru_cache(maxsize=None, typed=True)
def apply_functor_set(eta, n: int) -> tuple:
    """The ordered elements of eta([n]).

    Subsets are ascending tuples in lexicographic order; union elements are
    tagged (0, x) then (1, y); product elements are pairs in row-major
    order. The ordering is what gives graphs on eta([n]) stable vertex
    indices. The cache is typed, so an n of another type is checked afresh.
    A size above `sys.maxsize`, which no tuple holds, raises `ResourceError`.
    """
    size = functor_size(eta, n)  # checks eta and n
    if size > sys.maxsize:
        raise ResourceError(f"eta([{n}]) has {size} elements, more than a tuple can hold")
    if isinstance(eta, SubsetsF):
        return tuple(combinations(range(n), eta.k))
    if isinstance(eta, ConstF):
        return tuple(range(eta.k))
    if isinstance(eta, UnionF):
        return tuple((0, x) for x in apply_functor_set(eta.left, n)) + tuple(
            (1, y) for y in apply_functor_set(eta.right, n)
        )
    if isinstance(eta, ProductF):
        right = apply_functor_set(eta.right, n)
        return tuple(
            (x, y) for x in apply_functor_set(eta.left, n) for y in right
        )
    raise InputError(f"not a downward functor: {eta!r}")


def functor_size(eta, n: int) -> int:
    """|eta([n])| in closed form, no set built: C(n, k), k, a + b, a * b."""
    (n,) = _ints((n,), "set size", 0)
    if isinstance(eta, (SubsetsF, ConstF)):
        return math.comb(n, eta.k) if isinstance(eta, SubsetsF) else eta.k
    if not isinstance(eta, (UnionF, ProductF)):
        raise InputError(f"not a downward functor: {eta!r}")
    a, b = functor_size(eta.left, n), functor_size(eta.right, n)
    return a + b if isinstance(eta, UnionF) else a * b


def _map_element(eta, image: tuple, x):
    if isinstance(eta, SubsetsF):
        return tuple(sorted(image[i] for i in x))
    if isinstance(eta, ConstF):
        return x
    if isinstance(eta, UnionF):
        side = eta.left if x[0] == 0 else eta.right
        return (x[0], _map_element(side, image, x[1]))
    # a ProductF: `apply_functor_set` has refused every other node
    return (_map_element(eta.left, image, x[0]), _map_element(eta.right, image, x[1]))


def _positions(eta, n: int, image: tuple) -> tuple:
    """The positions in eta([n]) of eta(alpha), for alpha: i -> image[i]."""
    index = {el: i for i, el in enumerate(apply_functor_set(eta, n))}
    src = apply_functor_set(eta, len(image))
    return tuple(index[_map_element(eta, image, x)] for x in src)


# for increasing maps only (r-sets and single vertices); a term's
# automorphisms go through `_positions` uncached, as there can be n! of them
_eta_image = lru_cache(maxsize=None)(_positions)


# ---------------------------------------------------------------------------
# upward transformations


@dataclass(frozen=True)
class UpwardTransformation:
    """Template rules turning graphs on eta([n]) into graphs on [n].

    `r` and `labels` describe the input side (graphs on functor images);
    `base_r` and `base_labels` the output side. The edge template lives on
    eta([base_r]); each vertex rule's template lives on eta([1]). Vertex
    rules are tried in order; the first whose template is contained wins,
    otherwise `default_label` applies, so the labeling is total.

    Construction verifies well-definedness: the rules must commute with
    every permutation of [base_r], which holds iff eta of each generator of
    Sym(base_r) maps the edge template's edge set onto itself. Transformations
    failing this are rejected, since they would not induce a map on
    isomorphism classes.
    """

    eta: object
    r: int
    base_r: int
    edge_template: Graph
    labels: frozenset = frozenset({0})
    base_labels: frozenset = frozenset({0})
    vertex_rules: tuple = ()
    default_label: int = 0

    def __post_init__(self) -> None:
        _ints((self.r, self.base_r), "uniformities", 1)
        object.__setattr__(self, "labels", _label_set(self.labels, "labels"))
        object.__setattr__(
            self, "base_labels", _label_set(self.base_labels, "output labels")
        )
        object.__setattr__(self, "vertex_rules", tuple(self.vertex_rules))
        _ints(tuple(lab for lab, _ in self.vertex_rules), "vertex rule labels")
        _ints((self.default_label,), "default label")
        rules = [("edge", self.base_r, self.edge_template)]
        rules += [("vertex", 1, tmpl) for _, tmpl in self.vertex_rules]
        for kind, k, tmpl in rules:
            size = functor_size(self.eta, k)
            if tmpl.r != self.r or tmpl.n != size:
                raise InputError(
                    f"{kind} template must be {self.r}-uniform on {size} "
                    f"vertices (the size of eta([{k}]))"
                )
            if any(tmpl.labels):
                raise InputError("templates carry no labels; use all-zero labels")
        labels = [("vertex rule label", lab) for lab, _ in self.vertex_rules]
        for what, lab in labels + [("default label", self.default_label)]:
            if lab not in self.base_labels:
                raise InputError(f"{what} {lab} not in output label set")
        self._check_well_defined()

    def _check_well_defined(self) -> None:
        """Reject rules that do not commute with permuting [base_r].

        tau induces a map on isomorphism classes iff, for every sigma in
        Sym(base_r) and every graph h on eta([base_r]), tau of h pulled back
        along eta(sigma) equals tau(h) pulled back along sigma.

        Vertex rules always commute: vertex v of the output reads h along
        eta(iota_v) for the map iota_v: [1] -> [base_r] with image {v}, and
        an injection from [1] is determined by its image, so sigma o iota_v =
        iota_{sigma(v)} and functoriality gives the same template test on
        both sides.

        The edge rule asks for T = E(edge_template) inside E(h); on the
        permuted side it asks for eta(sigma)(T) inside E(h). The up-set
        {h : T <= E(h)} determines T, its least member, so the two rules
        agree on every h iff eta(sigma)(T) = T. The sigma fixing T form a
        group, since sigma -> eta(sigma) is a homomorphism, so it suffices
        to test the generators (0 1) and (0 1 ... base_r-1) of Sym(base_r).
        Each test maps the |T| template edges once; nothing is enumerated.
        """
        k = self.base_r
        if k < 2:
            return
        template = self.edge_template.edge_set
        swap = (1, 0) + tuple(range(2, k))
        cycle = tuple(range(1, k)) + (0,)
        for sigma in dict.fromkeys((swap, cycle)):
            pos = _positions(self.eta, k, sigma)
            if not template.issuperset(_moved(pos, self.edge_template.edges)):
                raise InputError(
                    "rules are not permutation-invariant on graphs over "
                    f"eta([{k}]); transformation is ill-defined "
                    f"(witness permutation {sigma})"
                )


def tau_apply(tau: UpwardTransformation, h: Graph, n: int) -> Graph:
    """Apply the transformation to a graph on eta([n]), yielding one on [n].

    n is always given: the vertex count of h cannot fix it in general (a
    constant functor has the same size on every [n])."""
    if h.r != tau.r:
        raise InputError(f"input has uniformity {h.r}, transformation reads {tau.r}")
    if not set(h.labels) <= tau.labels:
        raise InputError("input graph labels outside the transformation's label set")
    if functor_size(tau.eta, n) != h.n:
        raise InputError(
            f"graph on {h.n} vertices is not a graph on eta([{n}]) "
            f"(which has {functor_size(tau.eta, n)} elements)"
        )
    template = tau.edge_template.edges
    edges = tuple(
        e
        for e in combinations(range(n), tau.base_r)
        if h.edge_set.issuperset(_moved(_eta_image(tau.eta, n, e), template))
    )
    labels = tuple(_vertex_label(tau, n, h.edge_set, v) for v in range(n))
    return Graph(tau.base_r, n, labels, edges)


def _vertex_label(tau: UpwardTransformation, n: int, edge_set, v: int) -> int:
    """The label tau gives vertex v of [n] on the graph on eta([n]) with edge
    set `edge_set`: the first rule whose template it has on eta({v}), else the
    default label."""
    pos = _eta_image(tau.eta, n, (v,))
    for rule_lab, tmpl in tau.vertex_rules:
        if all(e in edge_set for e in _moved(pos, tmpl.edges)):
            return rule_lab
    return tau.default_label


# ---------------------------------------------------------------------------
# the operator


# the completions `operator_apply` enumerates per term unless told otherwise
DEFAULT_BUDGET = 1 << 20


def _forced_slots(tau: UpwardTransformation, g: Graph) -> set:
    """The slots of eta([n]), n = v(g), on in every H with tau(H) = g: each
    edge's template copy, and the template of each vertex carrying the label
    of tau's single vertex rule, if not the default. They form F(g).

    Lemma: if tau reads one input label and g's vertices all carry that
    rule's label, or all the default one with no rule giving another, then
    operator_apply(tau, nind(g)) = nind(F(g)) as coefficient dicts. Proof:
    nind(g) sums the supergraphs G' of g on V(g), labelled as g, and the
    operator the H on eta(V(g)) with tau(H) = G'. So it sums once each H
    with tau(H) ⊇ g labelled as g, which by the hypothesis are the H ⊇ F(g).
    """
    rules, copies = tau.vertex_rules, [(e, tau.edge_template) for e in g.edges]
    if len(rules) == 1 and rules[0][0] != tau.default_label:
        copies += [((v,), rules[0][1]) for v in range(g.n) if g.labels[v] == rules[0][0]]
    return {s for sub, t in copies for s in _moved(_eta_image(tau.eta, g.n, sub), t.edges)}


def _term_preimages(
    tau: UpwardTransformation, g: Graph, coeff: int, out: dict, budget: int
) -> None:
    """Add the int coeff times the class of every graph H on eta([n]) with
    tau(H) = g to the int sums of `out`, where n = v(g).

    Slots are the r-sets of eta([n]). A completion is an edge set E with a
    labelling of eta([n]). E holds the slots g forces on and free slots
    picked so that each of g's non-edges and labels keeps a slot of its
    group off; a group's only unforced slot is decided off. The budget,
    checked first, bounds 2^(free slots) times the labellings. Vertex rules
    that are not folded into the groups are checked once per edge set, not
    per labelling, since rules never read labels.

    Only one edge set per Aut(g)-orbit is canonicalised. tau is natural, so
    each automorphism sigma of g, acting through eta(sigma), maps the forced
    slots, the groups and the vertex-label checks onto themselves, hence the
    decided and the free slots each onto themselves and valid edge sets onto
    valid edge sets. `algebra._orbit_subsets`, which products and `nind`
    share, enumerates the free subsets with the groups as constraints, one
    per orbit of `algebra._aut((g,))` pushed through eta, deciding the
    grouped slots first, as the top bits. Each labelling of a kept E adds
    coeff times the orbit size |Aut(g)| / |Stab(E)|, an int, to the sum of
    its class in `out`; `operator_apply` turns the sums into Fractions once
    the last term is done. Labellings need no orbit test of
    their own: a sigma with sigma(E) = E' maps the labellings of E one to
    one onto those of E', each graph onto an isomorphic one.
    """
    n = g.n
    w = functor_size(tau.eta, n)

    def template_slots(sub: tuple, template: Graph) -> frozenset:
        return frozenset(_moved(_eta_image(tau.eta, n, sub), template.edges))

    forced = _forced_slots(tau, g)
    # each group: at least one slot must stay off
    groups = [
        template_slots(e, tau.edge_template)
        for e in combinations(range(n), tau.base_r)
        if e not in g.edge_set
    ]
    postcheck = []  # vertices needing a label check per edge set
    default_only = all(lab == tau.default_label for lab, _ in tau.vertex_rules)
    for v in range(n):
        if default_only:
            if g.labels[v] != tau.default_label:
                return
        elif len(tau.vertex_rules) == 1:
            if g.labels[v] == tau.default_label:
                groups.append(template_slots((v,), tau.vertex_rules[0][1]))
            elif g.labels[v] != tau.vertex_rules[0][0]:
                return
        else:
            postcheck.append(v)

    groups = [grp - forced for grp in groups]
    if not all(groups):
        return  # a group's slots are all forced on; no completion satisfies it
    # a group's only unforced slot stays off, satisfying every group holding it
    off = {s for grp in groups if len(grp) == 1 for s in grp}
    groups = [grp for grp in groups if not grp & off]
    # slots under a not-all-on constraint first, so pruning bites early
    grouped = set().union(*groups)
    decided = forced | off
    free = [s for s in combinations(range(w), tau.r) if s not in decided]
    free.sort(key=lambda s: s not in grouped)

    labelings = sorted(tau.labels)
    k = len(free)
    completions = (1 << k) * len(labelings) ** w
    if completions > budget:
        raise ResourceError(
            f"term of order {n} leaves {k} undecided edge slots on "
            f"eta([{n}]) (2^{k} edge sets * {len(labelings)}^{w} labellings "
            f"= {completions} completions; budget {budget})"
        )

    # with no free slot the one edge set is its own orbit
    maps = [_positions(tau.eta, n, sigma) for sigma in _aut((g,))] if free else ()
    base = tuple(forced)

    for subset, orbit in _orbit_subsets(free, maps, groups):
        edges = tuple(sorted(base + subset))
        if postcheck and any(
            _vertex_label(tau, n, edges, v) != g.labels[v] for v in postcheck
        ):
            continue
        for labs in iter_product(labelings, repeat=w):
            cls = canonical(Graph._trusted(tau.r, w, labs, edges))[0]
            out[cls] = out.get(cls, 0) + coeff * orbit


def operator_apply(tau: UpwardTransformation, f, budget: int = DEFAULT_BUDGET) -> LinComb:
    """The operator of tau: the sum of tau-preimages, extended linearly
    to a Graph, LinComb or UniformRep, read as the algebra reads them.
    Each term G contributes all graphs H on eta(V_G) with tau(H) = G, found
    by the completion search; a term with more than `budget` completions
    raises `ResourceError`."""
    _ints((budget,), "budget", 1)
    f = _coerce(f, tau.base_labels)
    if f.r != tau.base_r:
        raise InputError(f"operator consumes uniformity {tau.base_r}, got {f.r}")
    if f.label_set != tau.base_labels:
        raise InputError(
            f"operator consumes label set {sorted(tau.base_labels)}, "
            f"got {sorted(f.label_set)}"
        )
    d, scaled = _scaled(f.coeffs)
    out: dict[Graph, int] = {}
    for g, c in scaled.items():
        _term_preimages(tau, g, c, out, budget)
    return LinComb._raw(tau.r, tau.labels, _fractions(out, d))


# ---------------------------------------------------------------------------
# functor expressions

# ASCII whitespace may surround every token
_TOKEN = rf"\s*(sub|const|u|x|[(),]|{_INT})"
_TOKEN_RE = re.compile(_TOKEN, re.ASCII)
_TOKENS_RE = re.compile(rf"(?:{_TOKEN})*\s*", re.ASCII)


def functor_to_text(eta) -> str:
    if isinstance(eta, SubsetsF):
        return f"sub({eta.k})"
    if isinstance(eta, ConstF):
        return f"const({eta.k})"
    if isinstance(eta, UnionF):
        return f"u({functor_to_text(eta.left)},{functor_to_text(eta.right)})"
    if isinstance(eta, ProductF):
        return f"x({functor_to_text(eta.left)},{functor_to_text(eta.right)})"
    raise InputError(f"not a downward functor: {eta!r}")


def functor_from_text(text: str):
    """The functor of a `sub(k)`, `const(s)`, `u(A,B)` or `x(A,B)`
    expression, where k and s are ASCII integers without leading zeros and
    `const(s)` is `ConstF(s)`, the constant set {0..s-1}. The text is
    accepted exactly when `functor_to_text` prints back its tokens, so ASCII
    whitespace may surround any token and nothing else varies; `u` and `x`
    nest at most 100 deep, as the printer and dataclass equality recurse.
    Anything else raises `InputError`.
    """
    tokens = _TOKEN_RE.findall(text) if _TOKENS_RE.fullmatch(text) else []
    # a prefix expression, parentheses and commas skipped, read right to left
    # onto a stack of integers and (functor, u/x depth) pairs: no recursion
    stack = []
    for t in reversed(tokens):
        if t.isdigit():
            stack.append(int(t))
        elif t in ("sub", "const") and stack and isinstance(stack[-1], int):
            k = stack.pop()
            stack.append(((SubsetsF if t == "sub" else ConstF)(k), 0))
        elif t in ("u", "x") and len(stack) > 1 and all(
            isinstance(a, tuple) and a[1] < 100 for a in stack[-2:]
        ):
            (left, i), (right, j) = stack.pop(), stack.pop()
            stack.append(((UnionF if t == "u" else ProductF)(left, right), max(i, j) + 1))
        elif t not in "(),":
            break
    else:
        if len(stack) == 1 and isinstance(stack[0], tuple):
            eta = stack[0][0]
            if _TOKEN_RE.findall(functor_to_text(eta)) == tokens:
                return eta
    raise InputError(f"not a functor expression: {text!r}")
