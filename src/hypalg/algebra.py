"""Formal rational linear combinations of graph classes, and their algebra.

A `LinComb` holds finitely many isomorphism classes of labeled r-uniform
graphs (keyed by canonical representative) with Fraction coefficients, for
a fixed uniformity r and finite label set U. The product of two classes
sums over all graphs on the disjoint union of their vertex sets restricting
to each factor, with every mixed r-set free; `nind` sums over supergraphs
on the same vertices. Both are one sum: fixed base edges plus any subset
of free r-sets, summed by class. `_aut` lists the group Aut(F) x Aut(G) of
a product, or Aut(G) for `nind`, and `_orbit_subsets`, shared with the
operator kernel, canonicalises one free subset per orbit, weighted by its
size; below 6 free r-sets or for a trivial group every subset is. Orbit
sizes are ints: each kernel sums them per class and multiplies a class's
total by the Fraction coefficient once (`_add_tallied`), so the per-subset
path does no Fraction arithmetic.
`lift` rewrites an element as a combination of classes of one fixed order
by repeated product with the sum of all single-vertex classes, the identity
of the quotient algebra.

Equality in the quotient is decided by `alg_equal`, which lifts the
difference of the two sides to their largest term order. `eval_quasirandom`
evaluates the homomorphism sending a class with v vertices and e edges to
p^e (1-p)^(C(v,r)-e) |U|^(-v).

All arithmetic is exact (fractions.Fraction); nothing here is numeric.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .graphs import _INT, Graph, _ints, _maps, _moved, canonical, graph_from_text, graph_to_text

__all__ = [
    "LinComb",
    "UniformRep",
    "alg_equal",
    "coeff_positive_at",
    "eval_quasirandom",
    "extend_label_set",
    "lift",
    "lincomb_from_text",
    "lincomb_to_text",
    "nind",
    "order",
    "point",
    "point_sum",
    "product",
    "unit",
]


def _as_fraction(x, what: str = "coefficients") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"{what} must be exact rationals, got {type(x).__name__}")


def _probability(p) -> Fraction:
    p = _as_fraction(p, "sample points")
    if p < 0 or p > 1:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def _label_set(values, what: str) -> frozenset:
    """A nonempty label set of ints, as a frozenset."""
    labels = frozenset(_ints(values, what))
    if not labels:
        raise InputError(f"{what} must be nonempty")
    return labels


def _add(out: dict, key, c: Fraction) -> None:
    """Add c to out[key], dropping the key when the sum is zero."""
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


class LinComb:
    """A finite formal sum of graph classes with Fraction coefficients.

    Instances should be treated as immutable. Graph keys are stored by
    canonical representative; zero coefficients are dropped, so two values
    are equal iff they are the same element of the free vector space.
    """

    __slots__ = ("r", "label_set", "coeffs")

    def __init__(self, r: int, label_set=frozenset({0}), coeffs=None):
        (r,) = _ints((r,), "uniformity", 1)
        label_set = _label_set(label_set, "label set")
        norm: dict[Graph, Fraction] = {}
        for g, c in (coeffs or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            if g.r != r:
                raise InputError(f"term {g!r} has uniformity {g.r}, expected {r}")
            if not set(g.labels) <= label_set:
                raise InputError(
                    f"term {g!r} uses labels outside {sorted(label_set)}"
                )
            _add(norm, canonical(g)[0], c)
        self.r = r
        self.label_set = label_set
        self.coeffs = norm

    @classmethod
    def _raw(cls, r: int, label_set: frozenset, coeffs: dict) -> "LinComb":
        """Internal: keys already canonical, zeros already dropped."""
        self = object.__new__(cls)
        self.r = r
        self.label_set = label_set
        self.coeffs = coeffs
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, r: int, label_set=frozenset({0})) -> "LinComb":
        return cls(r, label_set, {})

    @classmethod
    def from_graph(cls, g: Graph, label_set=None, coeff=1) -> "LinComb":
        if label_set is None:
            label_set = frozenset(g.labels) | {0}
        return cls(g.r, label_set, {g: _as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def terms(self) -> list[tuple[Graph, Fraction]]:
        """Terms sorted by (order, labels, edges) — the printing order."""
        return sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].n, kv[0].labels, kv[0].edges)
        )

    def coefficient(self, g: Graph) -> Fraction:
        return self.coeffs.get(canonical(g)[0], Fraction(0))

    def _check_compatible(self, other: "LinComb") -> None:
        if self.r != other.r:
            raise InputError(f"uniformity mismatch: {self.r} vs {other.r}")
        if self.label_set != other.label_set:
            raise InputError(
                f"label set mismatch: {sorted(self.label_set)} vs "
                f"{sorted(other.label_set)}"
            )

    # -- vector space ops --------------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            _add(out, g, c)
        return LinComb._raw(self.r, self.label_set, out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1) * other

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        c = _as_fraction(scalar)
        if c == 0:
            return LinComb._raw(self.r, self.label_set, {})
        return LinComb._raw(
            self.r, self.label_set, {g: c * v for g, v in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, LinComb):
            return product(self, other)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinComb)
            and self.r == other.r
            and self.label_set == other.label_set
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return lincomb_to_text(self)


class UniformRep:
    """A LinComb all of whose terms have the same vertex count n."""

    __slots__ = ("lincomb", "n")

    def __init__(self, lincomb: LinComb, n: int):
        (n,) = _ints((n,), "order", 0)
        for g in lincomb.coeffs:
            if g.n != n:
                raise InputError(
                    f"term {g!r} has order {g.n}, expected uniform order {n}"
                )
        self.lincomb = lincomb
        self.n = n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniformRep)
            and self.n == other.n
            and self.lincomb == other.lincomb
        )

    def __repr__(self) -> str:
        return f"UniformRep(n={self.n}, {self.lincomb!r})"


# ---------------------------------------------------------------------------
# generators


def unit(r: int, label_set=frozenset({0})) -> LinComb:
    """The class of the empty graph — the multiplicative identity."""
    return LinComb.from_graph(Graph(r, 0), label_set)


def point(r: int, label: int, label_set=frozenset({0})) -> LinComb:
    """The class of a single vertex carrying `label`."""
    return LinComb.from_graph(Graph(r, 1, (label,)), label_set)


def point_sum(r: int, label_set=frozenset({0})) -> LinComb:
    """Sum of all single-vertex classes, the identity of the quotient
    algebra: every label, and for r = 1 with and without the edge (0,)."""
    out = LinComb.zero(r, label_set)
    for lab in sorted(out.label_set):
        for edges in [()] + [((0,),)] * (r == 1):
            out.coeffs[Graph._trusted(r, 1, (lab,), edges)] = Fraction(1)
    return out


def _coerce(f, label_set=None) -> LinComb:
    if isinstance(f, UniformRep):
        return f.lincomb
    if isinstance(f, LinComb):
        return f
    if isinstance(f, Graph):
        return LinComb.from_graph(f, label_set)
    raise InputError(f"expected LinComb, UniformRep or Graph, got {type(f).__name__}")


def order(f) -> int:
    """Largest vertex count among terms (0 for the zero element)."""
    f = _coerce(f)
    return max((g.n for g in f.coeffs), default=0)


# ---------------------------------------------------------------------------
# product, supergraph sum, lift


def _aut(factors) -> list:
    """Aut(F_1) x ... x Aut(F_k) on the disjoint union of the factors, each
    placed after the ones before it: every element as its tuple of images,
    the identity included. A factor with |Aut| = 1 is not searched; the
    factors are class representatives, so |Aut| is a cache hit. `_maps`
    checks edges only, which decides isomorphism (`is_isomorphic`)."""
    maps, shift = [()], 0
    for h in factors:
        own = _maps(h, h, induced=False) if canonical(h)[1] > 1 else [range(h.n)]
        own = [tuple(shift + v for v in t) for t in own]
        maps = [s + t for s in maps for t in own]
        shift += h.n
    return maps


def _orbit_subsets(free: list, maps, groups=()):
    """Yield (subset, orbit size) for one subset of the r-sets `free` per
    orbit of the group `maps` of vertex maps, skipping subsets that hold
    every r-set of a group in `groups`. Every element must map `free` and
    the groups onto themselves; a subset lists its r-sets in `free` order.
    Orbit sizes are ints, so a caller tallies them per class and scales
    by its coefficient once per class (`_add_tallied`).

    With fewer than two maps and no groups, every subset is its own orbit,
    in binary order. Otherwise free[i] is bit i of a mask, and a
    depth-first search over `free` carries the mask, the subset it stands
    for and its image under every map, identity included. A mask is kept
    when no image is smaller, and its orbit has |G| / |Stab| members,
    counting elements, not their actions, so distinct elements may act
    alike.
    """
    if len(maps) < 2 and not groups:
        for bits in range(1 << len(free)):
            yield tuple([e for i, e in enumerate(free) if bits >> i & 1]), 1
        return
    bit = {e: 1 << i for i, e in enumerate(free)}
    # columns[i] holds the bit that free[i] moves to under each map
    columns = list(zip(*([bit[e] for e in _moved(p, free)] for p in maps)))
    masks = [sum(bit[e] for e in grp) for grp in groups]
    member = [[m for m in masks if m & b] for b in bit.values()]
    stack = [(0, 0, [0] * len(maps), ())]
    while stack:
        i, mask, images, subset = stack.pop()
        if i == len(free):
            if min(images) == mask:
                yield subset, len(maps) // images.count(mask)
            continue
        # free[i] on, unless that turns all of one of its groups on; pushed
        # first so that the branch with it off runs first
        on = mask | 1 << i
        if all(on & m != m for m in member[i]):
            images_on = [a + b for a, b in zip(images, columns[i])]
            stack.append((i + 1, on, images_on, subset + (free[i],)))
        stack.append((i + 1, mask, images, subset))


def _add_tallied(out: dict, c: Fraction, weighted) -> None:
    """Add c times the summed weight of each class that `weighted` yields
    as (class, int weight) pairs: the weights are summed per class as ints,
    and each class costs one Fraction product and one `_add` when the
    enumeration ends, not one per pair."""
    tally: dict[Graph, int] = {}
    for cls, k in weighted:
        tally[cls] = tally.get(cls, 0) + k
    for cls, k in tally.items():
        _add(out, cls, c * k)


def _add_spanned(out: dict, c: Fraction, r: int, n: int, labels, base, free, factors):
    """Add c to the class of every graph on [n] with these labels whose
    edges are `base` plus a subset of `free`. The factors lie side by side
    on [n], and their automorphisms fix the base edges and labels and
    permute `free`, so one subset per orbit is canonicalised, weighted by
    its size; the int weights are summed per class before c scales them.
    Below 6 free r-sets listing the group costs more than it saves."""
    maps = _aut(factors) if len(free) >= 6 else ()
    classes = (
        (canonical(Graph._trusted(r, n, labels, tuple(sorted(base + extra))))[0], orbit)
        for extra, orbit in _orbit_subsets(free, maps)
    )
    _add_tallied(out, c, classes)


def _product(r: int, f: dict, g: dict) -> dict:
    """Coefficients of the product of two coefficient dicts: for each pair
    of terms, the base edges of both and any subset of the cross r-sets."""
    out: dict[Graph, Fraction] = {}
    for gf, a in f.items():
        n1 = gf.n
        for gg, b in g.items():
            n = n1 + gg.n
            base = gf.edges + tuple(tuple(v + n1 for v in e) for e in gg.edges)
            cross = [e for e in combinations(range(n), r) if e[0] < n1 <= e[-1]]
            _add_spanned(out, a * b, r, n, gf.labels + gg.labels, base, cross, (gf, gg))
    return out


def product(f, g) -> LinComb:
    """Algebra product: all graphs on the disjoint vertex union restricting
    to the two factors, every r-set meeting both sides chosen freely."""
    f = _coerce(f)
    g = _coerce(g, f.label_set)
    f._check_compatible(g)
    return LinComb._raw(f.r, f.label_set, _product(f.r, f.coeffs, g.coeffs))


def nind(f, label_set=None) -> LinComb:
    """Sum of all spanning supergraphs of each term (same vertices and
    labels, any superset of the edges), weighted by the term coefficient."""
    f = _coerce(f, label_set)
    out: dict[Graph, Fraction] = {}
    for g, c in f.coeffs.items():
        missing = [e for e in combinations(range(g.n), f.r) if e not in g.edge_set]
        _add_spanned(out, c, f.r, g.n, g.labels, g.edges, missing, (g,))
    return LinComb._raw(f.r, f.label_set, out)


def lift(f, n: int) -> UniformRep:
    """Rewrite f as an equal element of the algebra supported on order n.

    Requires n >= the order of every term. Lifting is repeated product with
    the point sum, the identity of the quotient: terms join in order of
    their vertex count and each step multiplies by it, so a term of order
    k is multiplied n - k times and classes merge after every step.
    """
    f = _coerce(f)
    (n,) = _ints((n,), "order")
    if n < order(f):
        raise InputError(
            f"cannot lift to order {n}: a term already has order {order(f)}"
        )
    points = point_sum(f.r, f.label_set).coeffs
    current: dict[Graph, Fraction] = {}
    for k in range(n + 1):
        for g, c in f.coeffs.items():
            if g.n == k:
                _add(current, g, c)
        if k < n and current:
            current = _product(f.r, current, points)
    return UniformRep(LinComb._raw(f.r, f.label_set, current), n)


# ---------------------------------------------------------------------------
# equality in the quotient, positivity, evaluation


def _difference(f, g) -> UniformRep:
    """f - g lifted to n = max(order(f), order(g)); `alg_equal` reads it."""
    f = _coerce(f)
    g = _coerce(g, f.label_set)
    return lift(f - g, max(order(f), order(g)))


def alg_equal(f, g) -> bool:
    """Whether f and g are the same element of the quotient algebra.

    f - g is lifted to the maximum term order n of the two sides and
    compared with zero; the verdict is conclusive. Lifting multiplies by
    the identity, so a zero lift is a zero element. Conversely, order-n
    classes are linearly independent in the quotient (Razborov, "Flag
    algebras", 2007): for a labeled graph H on [n], the probability
    phi_H(F) that a uniformly random injection [v(F)] -> [n] pulls H back
    to F is a class function with phi_H(F) = phi_H(F * point_sum) while
    v(F) < n, so a linear functional on the quotient, and on order-n
    classes it is nonzero only at the class of H.
    """
    return not _difference(f, g).lincomb


def coeff_positive_at(f, n: int) -> bool:
    """Whether every coefficient of the order-n representative of f is
    nonnegative."""
    return all(c >= 0 for c in lift(f, n).lincomb.coeffs.values())


def eval_quasirandom(f, p) -> Fraction:
    """Evaluate at the quasirandom point with edge density p.

    Sends the class of a graph with v vertices and e edges to
    p^e (1-p)^(C(v,r)-e) |U|^(-v), extended linearly. Exact in Fraction
    arithmetic; p must be a Fraction or int in [0, 1].
    """
    f = _coerce(f)
    p = _probability(p)
    u = Fraction(1, len(f.label_set))
    # the value depends on a class only through its shape (v, e)
    by_shape: dict[tuple[int, int], Fraction] = {}
    for g, c in f.coeffs.items():
        shape = (g.n, len(g.edges))
        by_shape[shape] = by_shape.get(shape, 0) + c
    total = Fraction(0)
    for (v, e), c in by_shape.items():
        total += c * p**e * (1 - p) ** (math.comb(v, f.r) - e) * u**v
    return total


def extend_label_set(f, label_set) -> LinComb:
    """The same formal sum viewed over a larger label set."""
    f = _coerce(f)
    label_set = _label_set(label_set, "label set")
    if not f.label_set <= label_set:
        raise InputError(
            f"new label set {sorted(label_set)} must contain "
            f"{sorted(f.label_set)}"
        )
    return LinComb._raw(f.r, label_set, dict(f.coeffs))


# ---------------------------------------------------------------------------
# text format

# a term is a rational times a graph literal, whose own grammar
# `graph_from_text` checks; a sign goes before the first term or between two
_TERM = rf"({_INT}(?:/(?!0){_INT})?)\*(graph\{{[^{{}}]*\}})"
_LINCOMB_RE = re.compile(rf"-?{_TERM}(?: [+-] {_TERM})*")
_TERM_RE = re.compile(rf"(-| - | \+ |){_TERM}")


def _signed_sum(terms) -> str:
    """Join (coefficient, suffix) pairs as `|c|suffix` with ' + ' or ' - '
    between them and a bare '-' before a negative first term; '0' if none."""
    text = "".join(f" {'-' if c < 0 else '+'} {abs(c)}{suffix}" for c, suffix in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def lincomb_to_text(f: LinComb) -> str:
    return _signed_sum((c, f"*{graph_to_text(g)}") for g, c in f.terms())


def lincomb_from_text(text: str, r: int = None, label_set=None) -> LinComb:
    """Parse `0` or `-?c*G( [+-] c*G)*`: rationals c (ASCII integers, a
    positive denominator) times graph literals G, which need not be
    canonical; repeated terms are summed. The label set is not encoded in
    the text, so pass it explicitly to get anything beyond labels-seen + {0}."""
    if r is not None:
        (r,) = _ints((r,), "uniformity", 1)
    if text == "0":
        if r is None:
            raise InputError("cannot infer uniformity of the zero element")
        return LinComb.zero(r, label_set if label_set is not None else {0})
    if _LINCOMB_RE.fullmatch(text) is None:
        raise InputError(
            f"not a combination such as '-1/2*graph{{...}} + 3*graph{{...}}' "
            f"(integer or fraction coefficients, positive denominators): {text!r}"
        )
    terms = [
        (graph_from_text(m[3]), Fraction(m[2]) * (-1 if "-" in m[1] else 1))
        for m in _TERM_RE.finditer(text)
    ]
    if r is None:
        r = terms[0][0].r
    coeffs: dict[Graph, Fraction] = {}
    for g, c in terms:
        if g.r != r:
            raise InputError(f"mixed uniformities {r} and {g.r} in {text!r}")
        coeffs[g] = coeffs.get(g, 0) + c
    if label_set is None:
        label_set = {0}.union(*(g.labels for g in coeffs))
    return LinComb(r, label_set, coeffs)
