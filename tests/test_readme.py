"""The README's "Text formats" examples parse as documented."""

import re
from pathlib import Path

from hypalg import graph_from_text, graph_to_text, lincomb_from_text, scheme_from_text

README = Path(__file__).resolve().parent.parent / "README.md"


def _text_formats_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Text formats")
    end = text.find("\n#", start + 1)
    return text[start : end if end >= 0 else len(text)]


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
    scheme = scheme_from_text(blocks[1])
    assert (scheme.f_e.n, scheme.base_r) == (4, 2)
