"""Seeded round-trip and mutation properties of the four text formats:
graph literals, linear combinations, functor expressions and scheme files.

Random valid objects print, parse and compare equal. A mutant is a printed
text with one token deleted, replaced or inserted. It either raises
`InputError` or parses to a value that keeps its format's contract, and no
other exception may escape the parser:

- graph literal: the value prints back to the mutant;
- functor: the value prints back to the mutant with whitespace removed;
- combination and scheme: the printed value parses back to the same value.
"""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from hypalg import (
    ConstF,
    Graph,
    InputError,
    LinComb,
    ProductF,
    SubsetsF,
    UnionF,
    blowup_scheme,
    box_scheme,
    copies_scheme,
    crossing_scheme,
    even_scheme,
    functor_from_text,
    functor_to_text,
    graph_from_text,
    graph_to_text,
    lincomb_from_text,
    lincomb_to_text,
    loose_scheme,
    mixed_scheme,
    path_scheme,
    scheme_from_text,
    scheme_to_text,
    triangle_scheme,
)

# a token is a digit run, a letter run or any other single character
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z]+|.", re.S)
# what a mutation puts in: small integers, forms no printer emits, every
# mark the four formats use, and their words
_POOL = (
    "0", "1", "2", "3", "00", "01", "-1", "１", "٣",
    " ", "  ", "\t", "\n", "\u00a0",
    "(", ")", ",", ";", "=", "{", "}", "*", "/", "+", "-", "#", ".",
    "graph", "sets", "sub", "const", "u", "x", "r", "n", "l", "e", "a",
)  # fmt: skip


def _mutants(rng, text, count):
    tokens = _TOKEN_RE.findall(text)
    for _ in range(count):
        out = list(tokens)
        i = rng.randrange(len(out))
        kind = rng.randrange(3)
        if kind == 0:
            del out[i]
        elif kind == 1:
            out[i] = rng.choice(_POOL)
        else:
            out.insert(i, rng.choice(_POOL))
        yield "".join(out)


def _check_mutants(rng, texts, parse, keeps_contract, per_text):
    """Parse each mutant of each text; return (accepted, rejected)."""
    accepted = rejected = 0
    for text in texts:
        for mutant in _mutants(rng, text, per_text):
            if mutant == text:
                continue
            try:
                value = parse(mutant)
            except InputError:
                rejected += 1
                continue
            assert keeps_contract(value, mutant), (text, mutant, value)
            accepted += 1
    return accepted, rejected


def _random_graph(rng, rs=(1, 2, 3), n_max=5, labels=(-2, 0, 1, 3)):
    r = rng.choice(rs)
    n = rng.randint(0, n_max)
    edges = tuple(e for e in combinations(range(n), r) if rng.random() < 0.4)
    if rng.random() < 0.5:
        return Graph(r, n, None, edges)
    return Graph(r, n, tuple(rng.choice(labels) for _ in range(n)), edges)


def _random_lincomb(rng):
    r = rng.choice((2, 3))
    label_set = frozenset(rng.choice(((0,), (0, 1), (-1, 0, 2))))
    out = LinComb.zero(r, label_set)
    for _ in range(rng.randint(0, 3)):
        g = _random_graph(rng, (r,), 4, tuple(label_set))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + LinComb.from_graph(g, label_set, c)
    return out


def _random_functor(rng, depth=3):
    if depth == 0 or rng.random() < 0.4:
        k = rng.randint(0, 3)
        return SubsetsF(k) if rng.random() < 0.5 else ConstF(k)
    node = UnionF if rng.random() < 0.5 else ProductF
    return node(_random_functor(rng, depth - 1), _random_functor(rng, depth - 1))


def _random_scheme(rng):
    maker = rng.choice(
        (
            lambda: blowup_scheme(rng.randint(1, 3)),
            lambda: copies_scheme(rng.randint(1, 3)),
            lambda: path_scheme(rng.randint(1, 3)),
            lambda: loose_scheme(rng.randint(3, 4)),
            lambda: even_scheme(4),
            lambda: mixed_scheme(5, 2),
            box_scheme,
            crossing_scheme,
            triangle_scheme,
        )
    )
    return maker()


def _spaced(rng, text):
    """The functor text with random ASCII whitespace around its tokens."""
    return "".join(
        rng.choice(("", " ", "\t", "\n ")) + tok for tok in _TOKEN_RE.findall(text)
    ) + rng.choice(("", " ", "\n"))


def test_graph_literals_round_trip_and_mutants_print_back():
    rng = random.Random(19101)
    graphs = [_random_graph(rng) for _ in range(300)]
    for g in graphs:
        assert graph_from_text(graph_to_text(g)) == g
    accepted, rejected = _check_mutants(
        rng,
        [graph_to_text(g) for g in graphs],
        graph_from_text,
        lambda g, text: graph_to_text(g) == text,
        per_text=20,
    )
    assert accepted >= 50 and rejected >= 4000, (accepted, rejected)


def test_combinations_round_trip_and_mutants_reparse():
    rng = random.Random(19202)
    combs = [_random_lincomb(rng) for _ in range(300)]
    for f in combs:
        assert lincomb_from_text(lincomb_to_text(f), f.r, f.label_set) == f

    def reparses(f, text):
        return lincomb_from_text(lincomb_to_text(f), f.r, f.label_set) == f

    accepted, rejected = _check_mutants(
        rng,
        [lincomb_to_text(f) for f in combs if f],
        lincomb_from_text,
        reparses,
        per_text=30,
    )
    assert accepted >= 50 and rejected >= 4000, (accepted, rejected)


def test_functors_round_trip_and_mutants_print_back():
    rng = random.Random(19303)
    functors = [_random_functor(rng) for _ in range(200)]
    for eta in functors:
        text = functor_to_text(eta)
        assert functor_from_text(text) == eta
        assert functor_from_text(_spaced(rng, text)) == eta
    accepted, rejected = _check_mutants(
        rng,
        [functor_to_text(eta) for eta in functors],
        functor_from_text,
        lambda eta, text: functor_to_text(eta) == "".join(text.split()),
        per_text=20,
    )
    assert accepted >= 150 and rejected >= 3000, (accepted, rejected)


def test_schemes_round_trip_and_mutants_reparse():
    rng = random.Random(19404)
    schemes = [_random_scheme(rng) for _ in range(100)]
    for scheme in schemes:
        assert scheme_from_text(scheme_to_text(scheme)) == scheme
    accepted, rejected = _check_mutants(
        rng,
        [scheme_to_text(scheme) for scheme in schemes],
        scheme_from_text,
        lambda s, text: scheme_from_text(scheme_to_text(s)) == s,
        per_text=40,
    )
    assert accepted >= 30 and rejected >= 3000, (accepted, rejected)


def test_long_digit_runs_are_rejected_quickly():
    # an integer is a whole digit run, so a failed match cannot try every
    # split of a long run (exponential backtracking)
    digits = "1" * 60
    bad = [
        (functor_from_text, f"sub({digits})!"),
        (functor_from_text, f"u(sub({digits} "),
        (functor_from_text, f"sub(1){' ' * 2000}!"),
        (graph_from_text, f"graph{{r=2;n={digits}!"),
        (graph_from_text, f"graph{{r=2;n=2;l=;e=({' '.join([digits] * 40)}!"),
        (lincomb_from_text, f"{digits}/{digits}*graph{{r=2;n=2;l=;e=}}!"),
        (scheme_from_text, f"graph{{r=2;n=1;l=;e=}}\ngraph{{r=2;n=2;l=;e=}}\nsets=({digits}!"),
    ]
    for parse, text in bad:
        with pytest.raises(InputError):
            parse(text)
