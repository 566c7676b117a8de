"""Pinned canonical representatives, products, lifts and operator images.

`canonical` may pick any representative per class; the one it picks today
is what every stored `LinComb` is keyed by and what every report prints.
`tests/golden/canonical_values.txt` pins those choices: canonical forms
with automorphism counts of seeded graphs, `product`, `nind` and `lift` of
seeded small graphs, and `operator_apply` of the five schemes that the
multiplicativity tests use on K2, P2 and K2 plus an isolated vertex. The
operator images run to thousands of characters each, so they are pinned by
term count and a SHA-256 prefix of their text.

A change to the search that keeps every representative leaves the file
byte-identical. An intended change of representatives rewrites it with

    PYTHONPATH=src python tests/test_canonical_golden.py
"""

import hashlib
import random
from itertools import combinations
from pathlib import Path

from hypalg import (
    Graph,
    blowup_scheme,
    box_scheme,
    canonical,
    complete_graph,
    crossing_scheme,
    graph_to_text,
    lift,
    lincomb_to_text,
    nind,
    operator_apply,
    path_graph,
    path_scheme,
    product,
    triangle_scheme,
)

GOLDEN = Path(__file__).parent / "golden" / "canonical_values.txt"


def _random_graph(rng, r, n, label_count):
    density = rng.random()
    edges = tuple(e for e in combinations(range(n), r) if rng.random() < density)
    labels = tuple(rng.randrange(label_count) for _ in range(n))
    return Graph(r, n, labels, edges)


def golden_lines() -> list[str]:
    rng = random.Random(1707)
    lines = []
    for _ in range(120):
        r = rng.randint(1, 3)
        g = _random_graph(rng, r, rng.randint(0, 7), rng.randint(1, 3))
        rep, aut = canonical(g)
        lines.append(f"canonical {graph_to_text(g)} -> {graph_to_text(rep)} aut={aut}")
    for _ in range(12):
        f = _random_graph(rng, 2, rng.randint(1, 3), 1)
        g = _random_graph(rng, 2, rng.randint(1, 3), 1)
        lines.append(f"product {f!r} {g!r} = {lincomb_to_text(product(f, g))}")
    for _ in range(12):
        r = rng.randint(2, 3)
        g = _random_graph(rng, r, rng.randint(r, 4), rng.randint(1, 2))
        lines.append(f"nind {g!r} = {lincomb_to_text(nind(g, {0, 1}))}")
    for _ in range(8):
        g = _random_graph(rng, 2, rng.randint(1, 3), 1)
        lines.append(f"lift {g!r} 4 = {lincomb_to_text(lift(g, 4).lincomb)}")
    schemes = {
        "triangle": triangle_scheme(),
        "crossing": crossing_scheme(),
        "box": box_scheme(),
        "blowup:2": blowup_scheme(2),
        "path:2": path_scheme(2),
    }
    probes = {
        "K2": complete_graph(2, 2),
        "P2": path_graph(2),
        "K2+K1": Graph(2, 3, None, ((0, 1),)),
    }
    for name, scheme in schemes.items():
        tau = scheme.transformation()
        for gname, g in probes.items():
            image = operator_apply(tau, g)
            digest = hashlib.sha256(lincomb_to_text(image).encode()).hexdigest()
            lines.append(
                f"operator {name} {gname} terms={len(image.coeffs)} sha256={digest[:16]}"
            )
    return lines


def test_representatives_match_the_golden_file():
    text = "".join(line + "\n" for line in golden_lines())
    assert text.encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in golden_lines()))
