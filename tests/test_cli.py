"""Command-line entry point: parsing, output, and exit codes."""

from pathlib import Path

import pytest

from hypalg import (
    LinComb,
    TheoremReport,
    complete_graph,
    graph_to_text,
    lincomb_to_text,
    nind,
    path_scheme,
    scheme_to_text,
    subdivide,
)
from hypalg import algebra
from hypalg.cli import _build_parser, main

K2_TEXT = "graph{r=2;n=2;l=;e=(0 1)}"
P2_TEXT = "graph{r=2;n=3;l=;e=(0 1)(1 2)}"
K3_TEXT = "graph{r=2;n=3;l=;e=(0 1)(0 2)(1 2)}"
C4_TEXT = "graph{r=2;n=4;l=;e=(0 1)(0 3)(1 2)(2 3)}"
GOLDEN_MACHINE = Path(__file__).parent / "golden" / "verify_machine.txt"


def test_density_inj(capsys):
    assert main(["density", "inj", K2_TEXT, P2_TEXT]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2/3 (0.666666666667)"


def test_density_hom(capsys):
    assert main(["density", "hom", C4_TEXT, K3_TEXT]) == 0
    assert capsys.readouterr().out.startswith("2/9 ")


def test_density_limit_with_lincomb_pattern(capsys):
    pattern = lincomb_to_text(nind(LinComb.from_graph(complete_graph(2, 2))))
    assert main(["density", "limit", pattern, K2_TEXT]) == 0
    assert capsys.readouterr().out.startswith("1/2 ")


def test_density_from_files(tmp_path, capsys):
    pat = tmp_path / "pattern.graph"
    host = tmp_path / "host.graph"
    pat.write_text(K2_TEXT + "\n")
    host.write_text(P2_TEXT + "\n")
    assert main(["density", "inj", str(pat), str(host)]) == 0
    assert capsys.readouterr().out.startswith("2/3 ")


def test_construct_subdivide(capsys):
    assert main(["construct", "subdivide", "box", K2_TEXT]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "graph{r=2;n=4;l=;e=(0 1)(0 2)(1 3)(2 3)}"
    )


def test_construct_blowup_box_loose_even(capsys):
    assert main(["construct", "blowup", K2_TEXT, "2"]) == 0
    assert capsys.readouterr().out.strip() == "graph{r=2;n=4;l=;e=(0 2)(0 3)(1 2)(1 3)}"
    assert main(["construct", "box", K2_TEXT, K2_TEXT]) == 0
    assert capsys.readouterr().out.strip() == "graph{r=2;n=4;l=;e=(0 1)(0 2)(1 3)(2 3)}"
    assert main(["construct", "loose", K2_TEXT, "3"]) == 0
    assert capsys.readouterr().out.strip() == "graph{r=3;n=3;l=;e=(0 1 2)}"
    assert main(["construct", "even", K2_TEXT, "4"]) == 0
    assert capsys.readouterr().out.strip() == "graph{r=4;n=4;l=;e=(0 1 2 3)}"


def test_construct_subdivide_with_scheme_file(tmp_path, capsys):
    scheme_path = tmp_path / "ladder.scheme"
    scheme_path.write_text(scheme_to_text(path_scheme(2)))
    assert main(["construct", "subdivide", str(scheme_path), K2_TEXT]) == 0
    expected = graph_to_text(subdivide(path_scheme(2), complete_graph(2, 2)))
    assert capsys.readouterr().out.strip() == expected


def test_verify_text_report(capsys):
    rc = main(["verify", "gensub", "--scheme", "path:2", "--graph", K2_TEXT])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "== generalized-subdivision =="
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.splitlines()[-1].startswith("verdict: PASS (3/3 steps)")


def test_verify_machine_report(capsys):
    rc = main(["verify", "m5", "--format", "machine"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 4 and fields[2] == "pass"


def test_default_machine_reports_match_the_golden_file(capsys):
    # --format machine output is byte-stable: the seven default targets print
    # exactly the committed lines, and an intended change updates the file
    out = []
    for target in ("tensor", "gensub", "box", "hyper", "goodman", "forcingpair", "m5"):
        assert main(["verify", target, "--format", "machine"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out).encode() == GOLDEN_MACHINE.read_bytes()


def test_machine_reports_match_on_a_cold_and_a_warm_tally_cache(capsys):
    # products and supergraph sums read each factor tuple's tally from a
    # process-wide cache; a report prints the same bytes either way
    args = (
        ["verify", "goodman", "--format", "machine"],
        ["verify", "tensor", "--graph", P2_TEXT, "--format", "machine"],
    )
    algebra._spanned.cache_clear()
    runs = []
    for _ in range(2):
        for a in args:
            assert main(a) == 0
            runs.append(capsys.readouterr().out.encode())
    assert algebra._spanned.cache_info().hits > 0
    assert runs[:2] == runs[2:]


def test_verify_custom_samples(capsys):
    rc = main(["verify", "goodman", "--p", "1/3,2/5"])
    assert rc == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_verify_forcingpair_and_tensor(capsys):
    assert main(["verify", "forcingpair", "--k", "3"]) == 0
    capsys.readouterr()
    assert main(["verify", "tensor", "--graph", P2_TEXT, "--s", "2"]) == 0
    assert "tensor-power-s2" in capsys.readouterr().out


def test_exit_code_two_on_input_errors(capsys):
    cases = [
        ["density", "inj", "graph{oops}", K2_TEXT],
        ["density", "inj", K2_TEXT, "graph{r=3;n=3;l=;e=(0 1 2)}"],
        ["construct", "blowup", K2_TEXT, "0"],
        ["verify", "gensub", "--scheme", "nosuchscheme"],
        ["verify", "gensub", "--scheme", "mixed:3"],
        ["verify", "gensub", "--scheme", "blowup:x"],
        ["verify", "gensub", "--scheme", "box", "--graph", "graph{r=2;n=1;l=;e=}"],
        ["verify", "box", "--p", "3/2"],
        ["verify", "box", "--p", "1/4,alpha"],
        ["verify", "box", "--p", ""],
        ["verify", "hyper", "--r", "3", "--m", "2"],
        # a labelled and a 3-uniform base, refused by the report's subdivide
        *(
            ["verify", target, "--graph", graph]
            for target in ("tensor", "gensub", "box", "hyper")
            for graph in ("graph{r=2;n=2;l=0,1;e=(0 1)}", "graph{r=3;n=3;l=;e=(0 1 2)}")
        ),
        [
            "density",
            "limit",
            "1/0*graph{r=2;n=2;l=;e=(0 1)}",
            "graph{r=2;n=3;l=;e=(0 1)(1 2)}",
        ],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv


def _bad_ints(v: int) -> list[str]:
    """Spellings of v outside the text formats' number grammar: a decimal,
    an exponent, a sign, a space, an underscore, a leading zero and
    Arabic-Indic digits. int() reads the last five as v."""
    t = str(v)
    under = f"{t[0]}_{t[1:]}" if len(t) > 1 else f"0_{t}"
    arabic = "".join(chr(0x660 + int(c)) for c in t)
    return [f"{t}.0", f"{t}e0", f"+{t}", f" {t}", under, f"0{t}", arabic]


# Fraction() reads each of these as 1/2
_BAD_POINTS = ("0.5", "5e-1", "+1/2", " 1/2", "1_0/2_0", "01/2", "\u0661/\u0662")


@pytest.mark.parametrize(
    "argv",
    [
        *(["verify", "goodman", "--p", p] for p in _BAD_POINTS),
        *(["verify", "box", "--p", "1/4," + p] for p in _BAD_POINTS),
        *(["verify", "forcingpair", "--k", k] for k in _bad_ints(2)),
        *(["verify", "tensor", "--s", s] for s in _bad_ints(2)),
        *(["verify", "hyper", "--r", r] for r in _bad_ints(3)),
        *(["verify", "hyper", "--m", m] for m in _bad_ints(1)),
        *(["verify", "box", "--budget", b] for b in _bad_ints(4096)),
        *(["construct", "blowup", K2_TEXT, m] for m in _bad_ints(2)),
        *(["construct", "loose", K2_TEXT, r] for r in _bad_ints(3)),
        # int() refuses the decimal and the exponent here already
        *(["verify", "gensub", "--scheme", "blowup:" + m] for m in _bad_ints(2)[2:]),
        *(["verify", "gensub", "--scheme", "mixed:4:" + m] for m in _bad_ints(1)[2:]),
    ],
)
def test_numbers_outside_the_grammar_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_exponent_sample_point_is_refused_before_any_arithmetic(capsys):
    # Fraction("1e-2000000") builds a two-million-digit denominator, and the
    # report then ran for minutes
    assert main(["verify", "goodman", "--p", "1e-2000000"]) == 2
    assert capsys.readouterr().err.startswith("error: bad sample list")


def test_a_long_sample_point_reports_its_digit_counts(capsys):
    # a legal point whose powers str() refuses to print: the witness gives
    # the digit counts of each numerator and denominator instead
    point = "1/" + "9" * 1100
    assert main(["verify", "box", "--p", point, "--format", "machine"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert last[2:] == ["pass", "p=1/<1100 digits>: 1/<4400 digits> = 1/<4400 digits>"]


def test_density_values_print_exactly_or_exit_two(capsys):
    # 400 nines times the density 2/3 is past the float range, and the
    # decimals come from the exact value
    k2 = "*" + K2_TEXT
    assert main(["density", "inj", "9" * 400 + k2, P2_TEXT]) == 0
    assert capsys.readouterr().out.strip() == f"{'6' * 400} ({'6' * 400}.000000000000)"
    assert main(["density", "limit", "-1/3" + k2, P2_TEXT]) == 0
    assert capsys.readouterr().out.strip() == "-4/27 (-0.148148148148)"
    # 4,300 fives times 2/3 has 4,301 digits, more than the parsers read back
    assert main(["density", "inj", "5" * 4300 + k2, P2_TEXT]) == 2
    assert "4,300 digits" in capsys.readouterr().err


def test_exit_code_two_on_budget_exhaustion(capsys):
    rc = main(["verify", "tensor", "--graph", C4_TEXT, "--s", "2", "--budget", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_one_on_failing_report(capsys, monkeypatch):
    failing = TheoremReport("stub")
    failing.add("doomed step", "exact-identity", False, "difference shown here")
    monkeypatch.setattr("hypalg.cli.verify_m5", lambda: failing)
    rc = main(["verify", "m5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out and "verdict: FAIL" in out


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["density", "weird", K2_TEXT, K2_TEXT])
    with pytest.raises(SystemExit):
        main(["verify", "nosuchtarget"])
    with pytest.raises(SystemExit):
        main(["verify", "--format", "machine", "m5"])  # options follow the target


# each verify target and a value for every option it reads
_TARGET_OPTIONS = {
    "tensor": {"--graph": P2_TEXT, "--s": "2", "--budget": "4096"},
    "gensub": {"--graph": K2_TEXT, "--scheme": "path:2", "--p": "1/2", "--budget": "4096"},
    "box": {"--graph": K2_TEXT, "--p": "1/2", "--budget": "4096"},
    "hyper": {"--graph": K2_TEXT, "--r": "3", "--m": "1", "--p": "1/2"},
    "goodman": {"--p": "1/3,2/5"},
    "forcingpair": {"--k": "3"},
    "m5": {},
}
_OPTION_VALUES = {
    option: value for options in _TARGET_OPTIONS.values() for option, value in options.items()
}


@pytest.mark.parametrize("target", _TARGET_OPTIONS)
def test_verify_target_runs_with_every_option_it_reads(target, capsys):
    argv = ["verify", target, "--format", "machine"]
    for option, value in _TARGET_OPTIONS[target].items():
        argv += [option, value]
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "target, option",
    [
        (target, option)
        for target, options in _TARGET_OPTIONS.items()
        for option in _OPTION_VALUES
        if option not in options
    ],
)
def test_verify_target_rejects_options_it_does_not_read(target, option, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", target, option, _OPTION_VALUES[option]])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()
