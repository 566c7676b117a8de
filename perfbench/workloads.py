"""Seeded task lists for the three benchmark workloads.

Inputs are generated here, from the seed alone, as plain data; nothing is
imported from the package under test or from its test suite. A task's `run`
receives the imported `hypalg` package and does all of its work through it,
so the benchmark times only the package. Every task carries a known answer
computed by `oracles` from the inputs, never from the package's output.

Each workload has a fixed shape: which operations, on which orders and
sizes, in which sequence. The seed draws the vertex numbering of every input
graph, the coefficients, the sample points and the density workload's host
graphs. The classes of the report instances and of the algebra operands are
fixed, so run time depends on the code, not on how expensive the drawn
instances happen to be.

- reports: every `verify_*` builder over a pool of instances that all finish
  within seconds with cold caches, some through the command line, plus two
  inputs that must be refused. This is what users run, and the only
  workload that reaches the harness, the CLI, subdivision, transformation
  construction and `operator_apply`; canonical forms run there on larger,
  symmetric 6-8 vertex graphs.
- algebra: random small combinations through `product`, `lift`, `nind`,
  `alg_equal` and `eval_quasirandom`, plus the unit lifted to order 6
  (r = 2) and 5 (r = 3). Canonical forms see many tiny repeated graphs next
  to a burst of distinct 6-vertex ones.
- density: injective, homomorphism and blow-up-limit densities of small
  patterns in random hosts. Map enumeration dominates; canonical forms and
  the functor layer are barely touched.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracles

WORKLOADS = ("reports", "algebra", "density")

ONE = frozenset({0})
TWO = frozenset({0, 1})


@dataclass(frozen=True)
class Task:
    """One request of the closed loop.

    `run(hg)` is timed. `summarize(result)` and `expected()` are not: the
    task is correct when they are equal. A task with `refusal` set must
    instead raise the `hypalg` exception of that name.
    """

    name: str
    run: Callable
    summarize: Callable = None
    expected: Callable = None
    refusal: str = None


def build(workload: str, seed: int) -> list[Task]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return globals()["_" + workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# plain graphs: (r, n, labels, edges)


def _graph(r, n, edges, labels=None):
    labels = tuple(labels) if labels is not None else (0,) * n
    return (r, n, labels, tuple(sorted(tuple(sorted(e)) for e in edges)))


def _relabel(g, rng):
    r, n, labels, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    new_labels = [0] * n
    for v in range(n):
        new_labels[perm[v]] = labels[v]
    return _graph(r, n, [[perm[v] for v in e] for e in edges], new_labels)


def _random_graph(rng, r, n, label_set=ONE):
    labs = sorted(label_set)
    labels = [rng.choice(labs) for _ in range(n)]
    return _graph(r, n, [e for e in combinations(range(n), r) if rng.random() < 0.5], labels)


def _to_hg(hg, g):
    r, n, labels, edges = g
    return hg.Graph(r, n, labels, edges)


def _text(g):
    r, n, labels, edges = g
    lab = " ".join(map(str, labels)) if any(labels) else ""
    body = "".join("(" + " ".join(map(str, e)) + ")" for e in edges)
    return f"graph{{r={r};n={n};l={lab};e={body}}}"


K2 = _graph(2, 2, [(0, 1)])
P2 = _graph(2, 3, [(0, 1), (1, 2)])
P3 = _graph(2, 4, [(0, 1), (1, 2), (2, 3)])
K3 = _graph(2, 3, [(0, 1), (0, 2), (1, 2)])
C4 = _graph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = _graph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
EDGE3 = _graph(3, 3, [(0, 1, 2)])
PAIR3 = _graph(3, 4, [(0, 1, 2), (0, 1, 3)])


def _samples(rng, k=3):
    return tuple(sorted(Fraction(x, 10) for x in rng.sample(range(1, 11), k)))


# ---------------------------------------------------------------------------
# reports

# (builder, base graph, parameters, through the command line). The pool is
# the same for every seed, so seeds differ in content, not in amount of
# work; the seed renumbers each base graph's vertices and draws the sample
# points. Light reports come first and the heaviest last, so a round cut
# short to fit the time budget still samples every light report.
REPORT_POOL = (
    ("m5", None, {}, True),
    ("forcingpair", None, {"k": 2}, True),
    ("forcingpair", None, {"k": 3}, False),
    ("goodman", None, {}, False),
    *(
        ("hyper", g, {"r": r, "m": m}, via_cli)
        for r, m in ((3, 1), (4, 2), (5, 2))
        for g, via_cli in ((K2, False), (P2, True))
    ),
    ("hyper", K3, {"r": 4, "m": 1}, True),
    ("tensor", K2, {"s": 2}, False),
    ("box", K2, {}, False),
    ("box", P2, {}, True),
    *(
        ("gensub", g, {"scheme": scheme}, via_cli)
        for scheme in ("triangle", "crossing", "box")
        for g, via_cli in ((P2, False), (K2, True))
    ),
    ("gensub", K3, {"scheme": "blowup:2"}, False),
    ("gensub", P2, {"scheme": "blowup:2"}, True),
    ("gensub", P2, {"scheme": "path:2"}, False),
    ("gensub", C4, {"scheme": "path:2"}, True),
    ("tensor", P2, {"s": 2}, False),
    ("tensor", K2, {"s": 3}, True),
)


def _scheme(hg, name):
    head, *args = name.split(":")
    return getattr(hg, f"{head}_scheme")(*map(int, args))


def _verify_direct(hg, target, g, params, samples):
    if target == "tensor":
        return hg.verify_tensor_power(g, params["s"])
    if target == "gensub":
        return hg.verify_gensubdivision(_scheme(hg, params["scheme"]), g, samples)
    if target == "box":
        return hg.verify_box(g, samples)
    if target == "hyper":
        return hg.verify_hypergraph(g, params["r"], params["m"], samples)
    if target == "goodman":
        return hg.verify_goodman_lift(samples)
    if target == "forcingpair":
        return hg.verify_forcing_pair_operator(params["k"])
    return hg.verify_m5()


def _cli_args(target, g, params, samples):
    argv = ["verify", target, "--format", "machine"]
    if g is not None:
        argv += ["--graph", _text(g)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    if samples is not None and target in ("gensub", "box", "hyper", "goodman"):
        argv += ["--p", ",".join(str(p) for p in samples)]
    return argv


def _run_cli(hg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hg.cli.main(argv)
    return code, out.getvalue()


def _cli_summary(result):
    code, text = result
    lines = text.splitlines()
    failed = sum(1 for line in lines if line.split("\t")[2:3] != ["pass"])
    return code, len(lines) > 0, failed


def _report_summary(report):
    return len(report.steps) > 0, sum(1 for s in report.steps if not s.passed)


def _reports(rng):
    # path:3 rules are not permutation-invariant, and an edged vertex gadget
    # breaks the swap on a base graph with an isolated vertex
    isolated = _relabel(_graph(2, 3, [(0, 1)]), rng)
    scheme = rng.choice(("box", "crossing"))
    tasks = [
        Task(
            "refuse:path:3-transformation",
            lambda hg: hg.path_scheme(3).transformation(),
            refusal="InputError",
        ),
        Task(
            f"refuse:gensub:{scheme}-isolated-vertex",
            lambda hg: hg.verify_gensubdivision(_scheme(hg, scheme), _to_hg(hg, isolated)),
            refusal="InputError",
        ),
    ]
    for target, base, params, via_cli in REPORT_POOL:
        g = _relabel(base, rng) if base else None
        samples = _samples(rng)
        name = ":".join([target] + [f"{k}={v}" for k, v in params.items()])
        if g is not None:
            name += f":n={g[1]}"
        if via_cli:
            argv = _cli_args(target, g, params, samples)
            tasks.append(Task(
                "cli-" + name,
                lambda hg, argv=argv: _run_cli(hg, argv),
                _cli_summary,
                lambda: (0, True, 0),
            ))
        else:
            tasks.append(Task(
                name,
                lambda hg, t=target, g=g, p=params, s=samples: _verify_direct(
                    hg, t, _to_hg(hg, g) if g else None, p, s
                ),
                _report_summary,
                lambda: (True, 0),
            ))
    return tasks


# ---------------------------------------------------------------------------
# algebra

# Term orders of each operand; every shape runs REPEATS times per label set.
# Shapes stay at most 6 cross r-sets (64 graphs per pair of terms), so the
# tail is a crowd of like-sized products whatever graphs the seed draws; the
# unit lifts supply the burst of distinct 6-vertex graphs.
PRODUCT_SHAPES = (
    ((1,), (2,)), ((2,), (2,)), ((3,), (1,)), ((2, 1), (2,)),
    ((3,), (2,)), ((3, 2), (1,)), ((2,), (3,)), ((3, 1), (2,)),
)
# (term orders, lift target) per label set
LIFT_SHAPES = {
    ONE: (((1,), 3), ((2,), 4), ((3,), 5), ((2, 1), 4), ((3, 2), 5), ((1,), 5)),
    TWO: (((1,), 3), ((2,), 3), ((2,), 4), ((3,), 4), ((3, 1), 4), ((1,), 4)),
}
EQUAL_SHAPES = ((1,), (2,), (3,), (2, 1), (3, 2), (3, 3))
NIND_ORDERS = (2, 3, 3, 4, 4, 4)
UNIT_LIFTS = (
    [(2, ONE, n) for n in range(7)] + [(3, ONE, n) for n in range(6)] + [(2, TWO, 4)]
)
REPEATS = 3


def _random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


def _to_comb(hg, terms, label_set):
    f = hg.LinComb.zero(2, label_set)
    for c, g in terms:
        f = f + hg.LinComb.from_graph(_to_hg(hg, g), label_set, c)
    return f


def _plain_eval(terms, label_set, p):
    return oracles.quasirandom(
        [(c, g[1], len(g[3])) for c, g in terms], 2, len(label_set), p
    )


def _result_eval(comb, p):
    return oracles.quasirandom(
        [(c, g.n, len(g.edges)) for g, c in comb.coeffs.items()],
        comb.r,
        len(comb.label_set),
        p,
    )


def _evals(hg, comb, samples):
    return tuple(hg.eval_quasirandom(comb, p) for p in samples)


def _unit_lift_task(r, label_set, n):
    def summarize(rep):
        terms = rep.lincomb.coeffs
        exact = all(
            c * oracles.automorphisms(r, g.n, g.labels, g.edges) == math.factorial(n)
            for g, c in terms.items()
        )
        return len(terms) if len(label_set) == 1 else None, sum(terms.values()), exact

    def expected():
        count = oracles.CLASS_COUNTS[r][n] if len(label_set) == 1 else None
        return count, len(label_set) ** n * 2 ** oracles.slots(n, r), True

    return Task(
        f"lift-unit:r={r}:labels={len(label_set)}:n={n}",
        lambda hg: hg.lift(hg.unit(r, label_set), n),
        summarize,
        expected,
    )


def _product_task(f, g, label_set, samples):
    def run(hg):
        h = hg.product(_to_comb(hg, f, label_set), _to_comb(hg, g, label_set))
        return h, _evals(hg, h, samples)

    def summarize(out):
        h, evals = out
        return sum(h.coeffs.values()), evals, tuple(_result_eval(h, p) for p in samples)

    def expected():
        mass = sum(
            a * b * oracles.product_mass(x[1], y[1], 2) for a, x in f for b, y in g
        )
        ev = tuple(
            _plain_eval(f, label_set, p) * _plain_eval(g, label_set, p) for p in samples
        )
        return mass, ev, ev

    return Task(f"product:labels={len(label_set)}", run, summarize, expected)


def _lift_task(f, n, label_set, samples):
    def run(hg):
        rep = hg.lift(_to_comb(hg, f, label_set), n)
        return rep, _evals(hg, rep, samples)

    def summarize(out):
        rep, evals = out
        terms = rep.lincomb.coeffs
        return (
            sum(terms.values()),
            all(g.n == n for g in terms),
            evals,
            tuple(_result_eval(rep.lincomb, p) for p in samples),
        )

    def expected():
        mass = sum(c * oracles.lift_mass(g[1], n, 2, len(label_set)) for c, g in f)
        ev = tuple(_plain_eval(f, label_set, p) for p in samples)
        return mass, True, ev, ev

    return Task(f"lift:labels={len(label_set)}:n={n}", run, summarize, expected)


def _equal_task(kind, f, label_set, extra):
    """kind 'lift' compares f with its lift one order up, 'unit' with its
    product by the point sum (the identity), 'shift' with f plus a nonzero
    multiple of one class, which no quotient identification can cancel."""

    def run(hg):
        a = _to_comb(hg, f, label_set)
        if kind == "lift":
            b = hg.lift(a, max(g[1] for _, g in f) + 1)
        elif kind == "unit":
            b = hg.product(a, hg.point_sum(2, label_set))
        else:
            b = a + _to_comb(hg, extra, label_set)
        return hg.alg_equal(a, b)

    return Task(
        f"alg_equal:{kind}:labels={len(label_set)}",
        run,
        lambda verdict: verdict,
        lambda: kind != "shift",
    )


def _nind_task(g, label_set, samples):
    def run(hg):
        s = hg.nind(hg.LinComb.from_graph(_to_hg(hg, g), label_set))
        return s, _evals(hg, s, samples)

    def summarize(out):
        s, evals = out
        return sum(s.coeffs.values()), evals

    def expected():
        # the supergraph sum evaluates to p^e |U|^-n
        r, n, _, edges = g
        e = len(edges)
        ev = tuple(p**e * Fraction(1, len(label_set)) ** n for p in samples)
        return 2 ** (oracles.slots(n, r) - e), ev

    return Task(f"nind:labels={len(label_set)}:n={g[1]}", run, summarize, expected)


def _algebra(rng):
    # The operands' isomorphism classes come from one fixed random stream;
    # the seed renumbers their vertices and draws the coefficients and sample
    # points. How many graphs each product or lift must canonicalize then
    # does not depend on the seed, which keeps the tail steady across seeds.
    classes = random.Random("algebra-classes")

    def graph(n, label_set):
        return _relabel(_random_graph(classes, 2, n, label_set), rng)

    def comb(orders, label_set):
        return tuple((_random_coeff(rng), graph(n, label_set)) for n in orders)

    tasks = [_unit_lift_task(*spec) for spec in UNIT_LIFTS]
    for _ in range(REPEATS):
        for label_set in (ONE, TWO):
            for fo, go in PRODUCT_SHAPES:
                f, g = comb(fo, label_set), comb(go, label_set)
                tasks.append(_product_task(f, g, label_set, _samples(rng, 2)))
            for fo, n in LIFT_SHAPES[label_set]:
                tasks.append(_lift_task(comb(fo, label_set), n, label_set, _samples(rng, 2)))
            for kind in ("lift", "unit", "shift"):
                for fo in EQUAL_SHAPES:
                    f, extra = comb(fo, label_set), comb(fo[:1], label_set)
                    tasks.append(_equal_task(kind, f, label_set, extra))
            for n in NIND_ORDERS:
                tasks.append(_nind_task(graph(n, label_set), label_set, _samples(rng, 2)))
    return tasks


# ---------------------------------------------------------------------------
# density

# (pattern, homomorphism count oracle); each host meets every pattern of its
# uniformity through inj_density, hom_density and the blow-up limit of the
# pattern's supergraph sum, which equals the homomorphism density.
PATTERNS = {
    2: (
        (K2, lambda h: oracles.walks(h, 1)),
        (P2, lambda h: oracles.walks(h, 2)),
        (P3, lambda h: oracles.walks(h, 3)),
        (K3, lambda h: oracles.closed_walks(h, 3)),
        (C4, lambda h: oracles.closed_walks(h, 4)),
        (C5, lambda h: oracles.closed_walks(h, 5)),
    ),
    3: (
        (EDGE3, None),
        (PAIR3, None),
    ),
}
# Twelve 2-uniform hosts put the eleventh-slowest task among the C5 limits,
# whose map count (n^5) does not depend on the drawn edges.
HOSTS = ((2, 6), (2, 7), (2, 8), (2, 9)) * 3 + ((3, 6), (3, 7)) * 2
UNIT_ORDER = 4


def _value(density):
    return density


def _density_tasks(host, pattern, hom_oracle):
    tag = f"r={host[0]}:host={host[1]}:pattern={pattern[1]}v{len(pattern[3])}e"
    per_map = Fraction(1, host[1] ** pattern[1])

    def hom_expected():
        count = hom_oracle(host) if hom_oracle else oracles.hom_count(pattern, host)
        return count * per_map

    def inj_expected():
        return Fraction(oracles.inj_count(pattern, host), math.perm(host[1], pattern[1]))

    def density(fn, supergraph_sum=False):
        def run(hg):
            f = hg.LinComb.from_graph(_to_hg(hg, pattern))
            if supergraph_sum:
                f = hg.nind(f)
            return getattr(hg, fn)(f, _to_hg(hg, host))

        return run

    return [
        Task("inj:" + tag, density("inj_density"), _value, inj_expected),
        Task("hom:" + tag, density("hom_density"), _value, hom_expected),
        Task("limit:" + tag, density("limit_inj_blowup", True), _value, hom_expected),
    ]


def _density(rng):
    tasks = []
    for r, n in HOSTS:
        host = _random_graph(rng, r, n)
        for pattern, hom_oracle in PATTERNS[r]:
            tasks += _density_tasks(host, _relabel(pattern, rng), hom_oracle)
        # the order-k classes partition the injections of any host
        tasks.append(Task(
            f"inj-unit:r={r}:host={n}:k={UNIT_ORDER}",
            lambda hg, r=r, h=host: hg.inj_density(
                hg.lift(hg.unit(r), UNIT_ORDER), _to_hg(hg, h)
            ),
            _value,
            lambda: Fraction(1),
        ))
    return tasks


def describe(workload: str) -> dict:
    """The workload's input pool, for the record kept with a baseline."""
    if workload == "reports":
        return {
            "reports": [
                f"{target} {_text(base) if base else ''} {params}{' via cli' if cli else ''}"
                for target, base, params, cli in REPORT_POOL
            ],
            "refusals": ["path_scheme(3).transformation()", "gensub box|crossing on K2 + isolated vertex"],
        }
    if workload == "algebra":
        return {
            "unit_lifts": [f"r={r} labels={len(ls)} n={n}" for r, ls, n in UNIT_LIFTS],
            "product_shapes": PRODUCT_SHAPES,
            "lift_shapes": {len(ls): shapes for ls, shapes in LIFT_SHAPES.items()},
            "equal_shapes": EQUAL_SHAPES,
            "nind_orders": NIND_ORDERS,
            "label_sets": [[0], [0, 1]],
            "repeats": REPEATS,
        }
    return {
        "patterns": {r: [_text(p) for p, _ in pats] for r, pats in PATTERNS.items()},
        "hosts": [f"r={r} n={n} edge probability 1/2" for r, n in HOSTS],
        "unit_order": UNIT_ORDER,
    }
