"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blanks."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines, main  # noqa: E402

# Seven code lines: the import, `def`, both lines of `text`, `return`,
# `class` and `y = 1`.
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment on its own line


def f(x):
    """Function docstring."""
    text = """a string over
two lines, not a docstring"""
    return x


class C:
    """Class docstring,
    over two lines."""

    y = 1
'''


def test_fixture(tmp_path, capsys):
    assert code_lines(FIXTURE) == 7
    source = tmp_path / "fixture.py"
    source.write_text(FIXTURE)
    assert main([str(source), str(source)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["14", "total"]
