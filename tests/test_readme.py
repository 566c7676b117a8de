"""The README's "Text formats" examples parse as documented, its
"Command line" examples run as documented, and its "What's inside" table
names only exported functions and classes and counts `hypalg.__all__`."""

import fnmatch
import re
import shlex
from pathlib import Path

import hypalg
from hypalg import (
    box_scheme,
    functor_from_text,
    graph_from_text,
    graph_to_text,
    lincomb_from_text,
    scheme_from_text,
)
from hypalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(heading: str, level: str) -> str:
    """The README text from the heading to the next heading of the same or
    a higher level, ignoring `#` lines inside code blocks."""
    lines = README.read_text(encoding="utf-8").splitlines(keepends=True)
    start = lines.index(f"{level} {heading}\n")
    in_code = False
    for end in range(start + 1, len(lines)):
        line = lines[end]
        if line.startswith("```"):
            in_code = not in_code
        elif not in_code and re.match(rf"#{{1,{len(level)}}} ", line):
            break
    else:
        end = len(lines)
    return "".join(lines[start:end])


def _text_formats_section() -> str:
    return _section("Text formats", "###")


def test_readme_text_format_literals_parse():
    section = _text_formats_section()
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    graph_lines = blocks[0].splitlines()
    assert len(graph_lines) == 3
    for line in graph_lines:
        # printer normal form: parsing and printing gives the line back
        assert graph_to_text(graph_from_text(line)) == line
    combs = [span for span in re.findall(r"`([^`]*)`", section) if "*graph{" in span]
    assert len(combs) == 1
    assert len(lincomb_from_text(combs[0]).coeffs) == 2
    etas = [span for span in re.findall(r"`([^`]*)`", section) if "sub(1)" in span]
    assert etas == ["u(x(sub(1),const(2)),x(sub(2),const(0)))"]
    assert functor_from_text(etas[0]) == box_scheme().eta()
    scheme = scheme_from_text(blocks[1])
    assert (scheme.f_e.n, scheme.base_r) == (4, 2)


def _command_examples():
    """(argv, documented output or None) for each runnable `python -m hypalg`
    line of the "Command line" section. Lines with a `...` (the synopsis
    and the `{...}` placeholders) are skipped; a `# ...` line right after a
    command is that command's documented output."""
    examples = []
    section = _section("Command line", "##")
    for block in re.findall(r"```(?:sh)?\n(.*?)```", section, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("python -m hypalg ") or "..." in line:
                continue
            argv = shlex.split(line, comments=True)[3:]
            nxt = lines[i + 1] if i + 1 < len(lines) else ""
            examples.append((argv, nxt[2:] if nxt.startswith("# ") else None))
    return examples


def test_readme_command_examples_run(capsys):
    examples = _command_examples()
    assert len(examples) == 13
    documented = 0
    for argv, expected in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if expected is not None:
            assert out.strip() == expected, argv
            documented += 1
    assert documented == 1
    inj = [exp for argv, exp in examples if argv[:2] == ["density", "inj"]]
    assert inj == ["2/3 (0.666666666667)"]


def test_whats_inside_names_are_exported():
    # a span's leading identifier is the name: `operator_apply(tau, f,
    # budget)` reads as operator_apply, and `verify_*` must match one
    rows = [
        line.split("|")[1:3]
        for line in _section("What's inside", "##").splitlines()
        if line.startswith("| `hypalg.")
    ]
    assert len(rows) == 8
    assert f"`hypalg.__all__` holds {len(hypalg.__all__)} names." in _section(
        "What's inside", "##"
    )
    spans = [
        span
        for module, contents in rows
        if module.strip() != "`hypalg.cli`"
        for span in re.findall(r"`([^`]*)`", contents)
    ]
    for span in spans:
        if span == "budget":  # operator_apply's parameter
            continue
        if span.endswith("*"):
            assert fnmatch.filter(hypalg.__all__, span), span
        else:
            assert re.match(r"\w+", span)[0] in hypalg.__all__, span
