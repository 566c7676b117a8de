"""Exact density functionals: injective induced densities, weak
homomorphism densities, and the blow-up limit connecting them.

All values are exact Fractions that count vertex maps with one pruned
search, `graphs._last_masks`, run afresh for each term: nothing is cached.
The search filters host vertices as bit masks. It places every pattern
vertex but the last and yields the mask of the last one's images, and the
functional sums the masks' bit counts, so no map is built as a tuple.
The three functionals differ only in the maps they count: injective and
induced, any map sending edges onto edges, or any map sending edges onto
edges and every other r-set off them. Hosts are desk-scale (a dozen
vertices, blow-ups a couple dozen). Every functional extends linearly to
LinComb arguments with coefficient weights.

For uniformity above 2 a map counts as a homomorphism when it is injective
on every edge and sends every edge onto an edge of the host. With that
reading, the weak density of a graph equals the blow-up limit of the
injective density of its supergraph sum in every uniformity, which is the
identity `limit_inj_blowup(nind(G), H) = hom_density(G, H)` exercised by the
test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import LinComb, _coerce
from .errors import InputError
from .graphs import Graph, _last_masks

__all__ = [
    "hom_density",
    "inj_density",
    "limit_inj_blowup",
]


def _check_host(f: LinComb, h: Graph) -> None:
    if f.r != h.r:
        raise InputError(f"uniformity mismatch: {f.r} vs host {h.r}")


def inj_density(f, h: Graph) -> Fraction:
    """Fraction of injections into h inducing exactly the argument.

    Zero when the argument has more vertices than the host; one for the
    empty graph. Linear in LinComb arguments.
    """
    return _map_density(f, h, induced=True, injective=True)


def _map_density(f, h: Graph, induced: bool, injective: bool = False) -> Fraction:
    """Fraction of the vertex maps into h (injections with `injective`)
    that `_last_masks` finds, extended linearly. A term with no injection
    into h has density zero; on a host without vertices only the empty
    graph has a map at all."""
    f = _coerce(f)
    _check_host(f, h)
    total = Fraction(0)
    for g, c in f.coeffs.items():
        maps = math.perm(h.n, g.n) if injective else h.n**g.n
        if maps:
            masks = _last_masks(g, h, induced, injective)
            count = sum(mask.bit_count() for mask in masks)
            total += c * Fraction(count, maps)
        elif not injective:
            raise InputError("host graph has no vertices")
    return total


def hom_density(f, h: Graph) -> Fraction:
    """Probability that a uniformly random vertex map is a homomorphism."""
    return _map_density(f, h, induced=False)


def limit_inj_blowup(f, h: Graph) -> Fraction:
    """Exact limit of inj_density against ever larger blow-ups of h.

    Equals the probability that a uniform map phi realizes the argument's
    edge set exactly: each r-subset is an edge iff phi is injective on it
    and sends it onto an edge of h (labels pulled back along phi).
    """
    return _map_density(f, h, induced=True)

