"""The README's examples run and say what they print."""

import json
import re
from pathlib import Path

from edof.config import config_from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    """The first fenced ``language`` block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_the_commented_counts(capsys):
    code = _block("## Quick start (library)", "python")
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # the comment gives each value to the digits shown, "..." marking a cut
    comment = re.search(r"^print\(.*\)\s*#\s*(.+)$", code, re.MULTILINE).group(1)
    expected = [value.strip() for value in comment.split(",")]
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def test_config_example_is_valid():
    config = config_from_mapping(json.loads(_block("## Command line", "json")))
    assert config.methods == ("svd", "cutset", "landau")
    assert config.lag_grid == (141, 141)
