"""Checks of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

hg = worker.import_package()


def test_wrong_known_answer_counts_as_failure():
    tasks = workloads.build("density", 1)[:3]
    bad = tasks[1]
    wrong = dataclasses.replace(bad, expected=lambda: bad.expected() + Fraction(1, 1000))
    results, _ = worker.run_tasks(hg, [tasks[0], wrong, tasks[2]])
    attempted, failed, notes = run.judge([{"tasks": results}])
    assert (attempted, failed) == (3, 1)
    assert bad.name in notes[0]


def test_missing_refusal_counts_as_failure():
    task = workloads.Task(
        "accepts", lambda hg: hg.path_scheme(2).transformation(), refusal="InputError"
    )
    assert not worker.run_tasks(hg, [task])[0][0]["ok"]


def test_inputs_depend_only_on_seed():
    def names_and_answers(seed):
        return [(t.name, t.expected()) for t in workloads.build("density", seed)[:12]]

    assert names_and_answers(3) == names_and_answers(3)
    assert names_and_answers(3) != names_and_answers(4)


def test_oracles_on_known_graphs():
    c4, k3 = workloads.C4, workloads.K3
    assert oracles.automorphisms(*c4) == 8
    assert oracles.automorphisms(*k3) == 6
    assert oracles.closed_walks(k3, 3) == oracles.hom_count(k3, k3) == 6
    assert oracles.walks(c4, 1) == 8
    assert oracles.inj_count(workloads.K2, c4) == 8
    assert oracles.product_mass(1, 1, 2) == 2
    assert oracles.lift_mass(0, 3, 2, 1) == 8


def test_tail_has_ten_tasks_beyond_it():
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)


def test_self_time_subtracts_child_spans(tmp_path):
    rec = spans.Recorder()
    canonical = rec.wrap("graphs.canonical", lambda g: g, "repeat")
    product = rec.wrap("algebra.product", lambda: [canonical(1), canonical(1)], None)
    product()
    path = str(tmp_path / "spans")
    rec.write(path)
    names, cols = spans.load(path)
    # rewrite the clock: product spans [0, 10], its children [1, 4] and [5, 7]
    cols["start"][:] = type(cols["start"])("d", [0.0, 1.0, 5.0])
    cols["end"][:] = type(cols["end"])("d", [10.0, 4.0, 7.0])
    m = spans.layer_metrics(names, cols, run.PER_LAYER)
    assert m["algebra.product.self_s"] == 5.0
    assert m["graphs.canonical.self_s"] == 5.0
    assert m["graphs.canonical.calls"] == 2
    assert m["graphs.canonical.repeat_ratio"] == 0.5
    assert m["densities.hom_density.calls"] == 0
