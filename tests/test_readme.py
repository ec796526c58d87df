"""The library quick start in ``README.md`` runs as printed.

The fenced ``python`` block is pulled out first: run on the whole file,
doctest reads the closing fence as expected output of the last example.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted == 7
    assert result.failed == 0
