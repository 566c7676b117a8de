"""Command-line interface: densities, constructions, and the verification
harness.

Graph arguments accept either a literal (`graph{r=2;n=3;l=;e=(0 1)(1 2)}`)
or a path to a file containing one; density patterns may also be linear
combinations in the printer's format. Scheme arguments accept a catalog
name (`blowup:2`, `copies:3`, `path:2`, `box`, `crossing`, `triangle`,
`loose:3`, `even:4`, `mixed:5:2`) or a path to a scheme file.

Every number is written as in the text formats: ASCII digits with no sign
and no leading zero, at most 4,300 of them. A `--p` sample point is `a` or
`a/b` with b > 0. Each parser keeps its arguments as text and sets `run`,
the call that reads them, so a bad value of any argument is an `InputError`:
`error: ...` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from . import constructions
from .algebra import lincomb_from_text
from .densities import hom_density, inj_density, limit_inj_blowup
from .errors import InputError, ResourceError
from .functors import DEFAULT_BUDGET
from .graphs import _INT, _MAX_DIGITS, _digits, graph_from_text, graph_to_text
from .harness import (
    format_report,
    verify_box,
    verify_forcing_pair_operator,
    verify_gensubdivision,
    verify_goodman_lift,
    verify_hypergraph,
    verify_m5,
    verify_tensor_power,
)

__all__ = ["main"]

K2_TEXT = "graph{r=2;n=2;l=;e=(0 1)}"
C4_TEXT = "graph{r=2;n=4;l=;e=(0 1)(0 3)(1 2)(2 3)}"
_POINT = re.compile(rf"({_INT})(?:/(?!0)({_INT}))?")


def _read_arg(text: str) -> str:
    if os.path.exists(text) and "{" not in text:
        with open(text, encoding="utf-8") as fh:
            return fh.read().strip()
    return text.strip()


def _graph(text: str):
    return graph_from_text(_read_arg(text))


def _pattern(text: str):
    body = _read_arg(text)
    return (graph_from_text if body.startswith("graph{") else lincomb_from_text)(body)


def _int(text: str) -> int:
    if re.fullmatch(_INT, text) is None:
        raise InputError(f"{text!r} is not ASCII digits without sign or leading zero")
    return int(text)


def _points(text: str):
    """The sample points of a `--p` list, or None for the default ones."""
    if text is None:
        return None
    points = [_POINT.fullmatch(part) for part in text.split(",")]
    if not all(points):
        raise InputError(f"bad sample list {text!r}; expected e.g. 1/4,1/2,1")
    return tuple(Fraction(int(m[1]), int(m[2] or 1)) for m in points)


# catalog name -> argument count; `name:a:b` is `constructions.name_scheme(a, b)`
_SCHEMES = {
    "blowup": 1, "copies": 1, "path": 1, "loose": 1, "even": 1, "mixed": 2,
    "box": 0, "crossing": 0, "triangle": 0,
}


def _scheme(text: str):
    head, *args = text.split(":")
    if head in _SCHEMES and not os.path.exists(text):
        n_args = _SCHEMES[head]
        if len(args) != n_args:
            raise InputError(f"scheme {head!r} takes {n_args} arguments, got {len(args)}")
        return getattr(constructions, f"{head}_scheme")(*map(_int, args))
    body = _read_arg(text)
    if "sets=" in body:
        return constructions.scheme_from_text(body)
    raise InputError(f"{text!r} is neither a catalog scheme name nor a scheme file")


def _print(text: str) -> int:
    print(text)
    return 0


def _density(args) -> int:
    fn = {"inj": inj_density, "hom": hom_density, "limit": limit_inj_blowup}[args.kind]
    v = fn(_pattern(args.pattern), _graph(args.host))
    if max(_digits(v.numerator), _digits(v.denominator)) > _MAX_DIGITS:
        raise InputError(
            f"the density has more than {_MAX_DIGITS:,} digits in its numerator "
            "or denominator, more than an integer of the text formats holds"
        )
    # twelve decimals rounded from the exact value, which may be past floats
    whole, part = divmod(round(abs(v) * 10**12), 10**12)
    return _print(f"{v} ({'-' if v < 0 else ''}{whole}.{part:012})")


def _report(report, fmt: str) -> int:
    print(format_report(report, fmt))
    return 0 if report.verdict else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypalg",
        description="densities, subdivision constructions, and identity verification "
        "for uniform hypergraph classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_density = sub.add_parser(
        "density", help="evaluate a density of a pattern in a host graph"
    )
    p_density.add_argument(
        "kind",
        choices=("inj", "hom", "limit"),
        help="induced-injection density, homomorphism density, or the "
        "blow-up limit of the induced density",
    )
    p_density.add_argument("pattern", help="graph or linear-combination literal/file")
    p_density.add_argument("host", help="graph literal/file")
    p_density.set_defaults(run=_density)

    # Every argument stays text until `run` reads it, so a bad value is an
    # input error. Each `run` is a lambda, which looks its builder up by
    # name when it runs.
    c_sub = sub.add_parser("construct", help="build a derived graph").add_subparsers(
        dest="construction", required=True
    )
    for name, about, arguments, build in (
        ("blowup", "m-fold blow-up", "graph m",
         lambda a: constructions.blowup(_graph(a.graph), _int(a.m))),
        ("subdivide", "gadget subdivision", "scheme graph",
         lambda a: constructions.subdivide(_scheme(a.scheme), _graph(a.graph))),
        ("box", "box (cartesian) product", "graph other",
         lambda a: constructions.box_product(_graph(a.graph), _graph(a.other))),
        ("loose", "loose r-uniform expansion", "graph r",
         lambda a: constructions.loose_expansion(_graph(a.graph), _int(a.r))),
        ("even", "even r-uniform expansion", "graph r",
         lambda a: constructions.even_expansion(_graph(a.graph), _int(a.r))),
    ):
        c_parser = c_sub.add_parser(name, help=about)
        for argument in arguments.split():
            c_parser.add_argument(argument)
        c_parser.set_defaults(run=lambda a, build=build: _print(graph_to_text(build(a))))

    # each target declares the options its report reads, after its --graph
    # default if it takes a graph; no abbreviations, or gensub would read
    # --s as its --scheme
    v_sub = sub.add_parser("verify", help="run a verification report").add_subparsers(
        dest="target", required=True
    )
    options = {  # flag -> default, help
        "--budget": (str(DEFAULT_BUDGET), None),
        "--p": (None, "comma-separated sample points"),
        "--s": ("2", "copy count"),
        "--scheme": ("path:2", "scheme name/file"),
        "--r": ("3", "target uniformity"),
        "--m": ("1", "block size"),
        "--k": ("2", "path length"),
    }
    for name, graph, flags, build in (
        ("tensor", K2_TEXT, "--budget --s", lambda a: verify_tensor_power(
            _graph(a.graph), _int(a.s), _int(a.budget))),
        ("gensub", C4_TEXT, "--budget --p --scheme", lambda a: verify_gensubdivision(
            _scheme(a.scheme), _graph(a.graph), _points(a.p), _int(a.budget))),
        ("box", K2_TEXT, "--budget --p", lambda a: verify_box(
            _graph(a.graph), _points(a.p), _int(a.budget))),
        ("hyper", K2_TEXT, "--p --r --m", lambda a: verify_hypergraph(
            _graph(a.graph), _int(a.r), _int(a.m), _points(a.p))),
        ("goodman", None, "--p", lambda a: verify_goodman_lift(_points(a.p))),
        ("forcingpair", None, "--k", lambda a: verify_forcing_pair_operator(_int(a.k))),
        ("m5", None, "", lambda a: verify_m5()),
    ):
        target = v_sub.add_parser(name, allow_abbrev=False)
        if graph:
            target.add_argument("--graph", default=graph, help="graph literal/file")
        for flag in flags.split():
            default, about = options[flag]
            target.add_argument(flag, default=default, help=about)
        target.add_argument("--format", choices=("text", "machine"), default="text")
        target.set_defaults(run=lambda a, build=build: _report(build(a), a.format))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
