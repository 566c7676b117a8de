"""Spans around calls into `hypalg`'s public functions, for traced runs.

`Recorder.install` rebinds every `hypalg.*` module attribute that refers to
a listed function (for example `canonical` as imported into
`hypalg.algebra` and `hypalg.functors`) to a wrapper, so calls made from
inside the package are split out as well. Nothing in the package changes on
disk. Spans are kept in memory as flat arrays, written out with `write`, and
`layer_metrics` turns a written file into per-layer figures, where a span's
self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


def _terms(out) -> int:
    return len(getattr(out, "lincomb", out).coeffs)


def _steps(report) -> int:
    return len(report.steps)


# (module, attribute, span name, what the span's quantity counts)
LAYERS = (
    ("graphs", "canonical", "graphs.canonical", "repeat"),
    ("graphs", "is_isomorphic", "graphs.is_isomorphic", None),
    ("algebra", "product", "algebra.product", _terms),
    ("algebra", "lift", "algebra.lift", _terms),
    ("algebra", "nind", "algebra.nind", _terms),
    ("algebra", "alg_equal", "algebra.alg_equal", None),
    ("algebra", "eval_quasirandom", "algebra.eval_quasirandom", None),
    ("functors", "operator_apply", "functors.operator_apply", _terms),
    ("functors", "UpwardTransformation", "functors.UpwardTransformation", None),
    ("constructions", "subdivide", "constructions.subdivide", None),
    ("constructions", "check_symmetry", "constructions.check_symmetry", None),
    ("densities", "inj_density", "densities.inj_density", None),
    ("densities", "hom_density", "densities.hom_density", None),
    ("densities", "limit_inj_blowup", "densities.limit_inj_blowup", None),
    ("harness", "verify_tensor_power", "harness.verify", _steps),
    ("harness", "verify_gensubdivision", "harness.verify", _steps),
    ("harness", "verify_box", "harness.verify", _steps),
    ("harness", "verify_hypergraph", "harness.verify", _steps),
    ("harness", "verify_goodman_lift", "harness.verify", _steps),
    ("harness", "verify_forcing_pair_operator", "harness.verify", _steps),
    ("harness", "verify_m5", "harness.verify", _steps),
    ("cli", "main", "cli.main", None),
)

# A `.calls`, `.terms_out`, `.errors`, `.steps` or `.repeat_ratio` figure
# is a work count and repeats exactly between runs of one seed.
COUNT_SUFFIXES = (".calls", ".terms_out", ".errors", ".steps", ".repeat_ratio")

_FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("qty", "q"), ("error", "b"))


class Recorder:
    """Flat in-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.cols = {field: array(code) for field, code in _FIELDS}
        self.stack = [-1]
        self.seen: set = set()

    def wrap(self, name: str, fn, quantity, counted_error=()):
        """`fn` recording one span per call; raising `counted_error` marks
        the span as an error."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        c = self.cols
        ids, parents, starts, ends, qty, errs = (c[f] for f, _ in _FIELDS)
        stack, seen = self.stack, self.seen

        def span(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            errs.append(0)
            if quantity == "repeat":
                # the argument graph was passed before in this run
                qty.append(args[0] in seen)
                seen.add(args[0])
            else:
                qty.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except counted_error:
                errs[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if callable(quantity):
                qty[idx] = quantity(out)
            return out

        return span

    def install(self, hg) -> None:
        """Wrap every listed function wherever a `hypalg` module binds it.
        Classes are traced through their `__init__`."""
        modules = [m for k, m in sys.modules.items() if k == "hypalg" or k.startswith("hypalg.")]
        for mod_name, attr, name, quantity in LAYERS:
            fn = getattr(getattr(hg, mod_name), attr)
            if isinstance(fn, type):
                fn.__init__ = self.wrap(name, fn.__init__, quantity)
                continue
            wrapper = self.wrap(name, fn, quantity, hg.ResourceError)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def write(self, path: str) -> None:
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.cols["name"])}, fh)
        with open(path + ".bin", "wb") as fh:
            for field, _ in _FIELDS:
                self.cols[field].tofile(fh)


def load(path: str) -> tuple[list[str], dict]:
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    cols = {}
    with open(path + ".bin", "rb") as fh:
        for field, code in _FIELDS:
            cols[field] = array(code)
            cols[field].fromfile(fh, meta["spans"])
    return meta["names"], cols


def layer_metrics(names: list[str], cols: dict, metrics) -> dict[str, float]:
    """The named per-layer figures (`<layer>.<quantity>`) from recorded
    spans; layers with no spans read 0."""
    n = len(cols["name"])
    dur = [e - s for s, e in zip(cols["start"], cols["end"])]
    child = [0.0] * n
    for i, p in enumerate(cols["parent"]):
        if p >= 0:
            child[p] += dur[i]
    acc: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(cols["name"]):
        a = acc.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "qty": 0, "errors": 0})
        a["calls"] += 1
        a["self_s"] += dur[i] - child[i]
        a["qty"] += cols["qty"][i]
        a["errors"] += cols["error"][i]
    out = {}
    for metric in metrics:
        layer, _, quantity = metric.rpartition(".")
        a = acc.get(layer, {"calls": 0, "self_s": 0.0, "qty": 0, "errors": 0})
        if quantity == "repeat_ratio":
            out[metric] = a["qty"] / a["calls"] if a["calls"] else 0.0
        elif quantity in ("terms_out", "steps"):
            out[metric] = a["qty"]
        elif quantity in ("calls", "self_s", "errors"):
            out[metric] = a[quantity]
    return out
