"""Check that the search's state key and the printed canonical text name the same classes.

Usage, from the root of a checkout::

    python3 tools/check_arrow_key.py [--max-rank 5]

Keys every word of every shift orbit of every raw word of rank at most
``--max-rank`` twice: by ``core._arrow_key``, the least rotation of its arrow
sequence, and by ``shift_canonical_text``.  The two must correspond one to
one.  Prints ``<words> words, <classes> classes`` and exits 0, or names the
first word where they disagree and exits 1.  At rank 5 that is 316,613 words
in 3,274 classes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vstring.core import _arrow_key, shift_canonical_text, shift_orbit  # noqa: E402
from vstring.enumeration import all_nanowords  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=5)
    args = parser.parse_args(argv)
    text_of: dict[bytes, str] = {}
    key_of: dict[str, bytes] = {}
    words = 0
    for rank in range(args.max_rank + 1):
        for raw in all_nanowords(rank):
            for w in shift_orbit(raw):
                words += 1
                key, text = _arrow_key(w), shift_canonical_text(w)
                if text_of.setdefault(key, text) != text or key_of.setdefault(text, key) != key:
                    print(f"key and text disagree at {w.text()}", file=sys.stderr)
                    return 1
    print(f"{words} words, {len(text_of)} classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
