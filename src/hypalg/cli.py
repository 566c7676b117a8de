"""Command-line interface: densities, constructions, and the verification
harness.

Graph arguments accept either a literal (`graph{r=2;n=3;l=;e=(0 1)(1 2)}`)
or a path to a file containing one; density patterns may also be linear
combinations in the printer's format. Scheme arguments accept a catalog
name (`blowup:2`, `copies:3`, `path:2`, `box`, `crossing`, `triangle`,
`loose:3`, `even:4`, `mixed:5:2`) or a path to a scheme file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .algebra import lincomb_from_text
from .constructions import (
    blowup,
    blowup_scheme,
    box_product,
    box_scheme,
    copies_scheme,
    crossing_scheme,
    even_expansion,
    even_scheme,
    loose_expansion,
    loose_scheme,
    mixed_scheme,
    path_scheme,
    scheme_from_text,
    subdivide,
    triangle_scheme,
)
from .densities import hom_density, inj_density, limit_inj_blowup
from .errors import InputError, ResourceError
from .functors import DEFAULT_BUDGET
from .graphs import graph_from_text, graph_to_text
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


def _read_arg(text: str) -> str:
    if os.path.exists(text) and "{" not in text:
        with open(text, encoding="utf-8") as fh:
            return fh.read().strip()
    return text.strip()


def _resolve_graph(text: str):
    return graph_from_text(_read_arg(text))


def _resolve_pattern(text: str):
    body = _read_arg(text)
    if body.startswith("graph{"):
        return graph_from_text(body)
    return lincomb_from_text(body)


_SCHEME_MAKERS = {
    "blowup": (blowup_scheme, 1),
    "copies": (copies_scheme, 1),
    "path": (path_scheme, 1),
    "loose": (loose_scheme, 1),
    "even": (even_scheme, 1),
    "mixed": (mixed_scheme, 2),
    "box": (box_scheme, 0),
    "crossing": (crossing_scheme, 0),
    "triangle": (triangle_scheme, 0),
}


def _resolve_scheme(text: str):
    head = text.split(":", 1)[0]
    if head in _SCHEME_MAKERS and not os.path.exists(text):
        maker, n_args = _SCHEME_MAKERS[head]
        parts = text.split(":")
        args = parts[1:]
        if len(args) != n_args:
            raise InputError(
                f"scheme name {head!r} takes {n_args} integer argument(s), "
                f"got {len(args)}"
            )
        try:
            return maker(*(int(a) for a in args))
        except ValueError:
            raise InputError(f"non-integer argument in scheme name {text!r}") from None
    body = _read_arg(text)
    if "sets=" in body:
        return scheme_from_text(body)
    raise InputError(
        f"{text!r} is neither a catalog scheme name nor a scheme file"
    )


def _parse_p_list(text: str):
    if text is None:
        return None
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad sample list {text!r}; expected e.g. 1/4,1/2,1") from None


def _print_value(v: Fraction) -> None:
    print(f"{v} ({float(v):.12f})")


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

    p_construct = sub.add_parser("construct", help="build a derived graph")
    c_sub = p_construct.add_subparsers(dest="construction", required=True)
    c_blow = c_sub.add_parser("blowup", help="m-fold blow-up")
    c_blow.add_argument("graph")
    c_blow.add_argument("m", type=int)
    c_subd = c_sub.add_parser("subdivide", help="gadget subdivision")
    c_subd.add_argument("scheme")
    c_subd.add_argument("graph")
    c_box = c_sub.add_parser("box", help="box (cartesian) product")
    c_box.add_argument("graph")
    c_box.add_argument("other")
    c_loose = c_sub.add_parser("loose", help="loose r-uniform expansion")
    c_loose.add_argument("graph")
    c_loose.add_argument("r", type=int)
    c_even = c_sub.add_parser("even", help="even r-uniform expansion")
    c_even.add_argument("graph")
    c_even.add_argument("r", type=int)

    p_verify = sub.add_parser("verify", help="run a verification report")
    v_sub = p_verify.add_subparsers(dest="target", required=True)
    # each target declares the options its report reads; no abbreviations,
    # or gensub would read --s as its --scheme. Graphs, schemes and sample
    # lists stay text until _run_verify, so bad values are input errors
    names = ("tensor", "gensub", "box", "hyper", "goodman", "forcingpair", "m5")
    targets = {name: v_sub.add_parser(name, allow_abbrev=False) for name in names}
    graphs = {"tensor": K2_TEXT, "gensub": C4_TEXT, "box": K2_TEXT, "hyper": K2_TEXT}
    for name, graph in graphs.items():
        targets[name].add_argument("--graph", default=graph, help="graph literal/file")
    for name in ("tensor", "gensub", "box"):
        targets[name].add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    for name in ("gensub", "box", "hyper", "goodman"):
        targets[name].add_argument("--p", help="comma-separated sample points")
    targets["tensor"].add_argument("--s", type=int, default=2, help="copy count")
    targets["gensub"].add_argument("--scheme", default="path:2", help="scheme name/file")
    targets["hyper"].add_argument("--r", type=int, default=3, help="target uniformity")
    targets["hyper"].add_argument("--m", type=int, default=1, help="block size")
    targets["forcingpair"].add_argument("--k", type=int, default=2, help="path length")
    for p_target in targets.values():
        p_target.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _run_verify(args) -> int:
    if args.target == "tensor":
        report = verify_tensor_power(
            _resolve_graph(args.graph), args.s, budget=args.budget
        )
    elif args.target == "gensub":
        report = verify_gensubdivision(
            _resolve_scheme(args.scheme),
            _resolve_graph(args.graph),
            p_samples=_parse_p_list(args.p),
            budget=args.budget,
        )
    elif args.target == "box":
        report = verify_box(
            _resolve_graph(args.graph),
            p_samples=_parse_p_list(args.p),
            budget=args.budget,
        )
    elif args.target == "hyper":
        report = verify_hypergraph(
            _resolve_graph(args.graph),
            args.r,
            args.m,
            p_samples=_parse_p_list(args.p),
        )
    elif args.target == "goodman":
        report = verify_goodman_lift(p_samples=_parse_p_list(args.p))
    elif args.target == "forcingpair":
        report = verify_forcing_pair_operator(args.k)
    else:
        report = verify_m5()
    print(format_report(report, args.format))
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "density":
            pattern = _resolve_pattern(args.pattern)
            host = _resolve_graph(args.host)
            fn = {"inj": inj_density, "hom": hom_density, "limit": limit_inj_blowup}[
                args.kind
            ]
            _print_value(fn(pattern, host))
            return 0
        if args.command == "construct":
            if args.construction == "blowup":
                out = blowup(_resolve_graph(args.graph), args.m)
            elif args.construction == "subdivide":
                out = subdivide(_resolve_scheme(args.scheme), _resolve_graph(args.graph))
            elif args.construction == "box":
                out = box_product(_resolve_graph(args.graph), _resolve_graph(args.other))
            elif args.construction == "loose":
                out = loose_expansion(_resolve_graph(args.graph), args.r)
            else:
                out = even_expansion(_resolve_graph(args.graph), args.r)
            print(graph_to_text(out))
            return 0
        return _run_verify(args)
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
