"""Checks of the CLI output that each workload produces.

Every check returns the number of failed items, so that a wrong answer shows
up in the benchmark's failure count rather than only as a changed timing.
"""

from __future__ import annotations

import hashlib
import re

from vstring.core import MoveKind, MoveSite, apply_move, isomorphic, parse

TABULATE_R5_LINES = 3274
TABULATE_R5_SHA256 = "fc384d59c9c3d12d35a19098b21b5845b8b8908885cf7c524c1b903de420dca7"
#: ``verify all`` instance counts at the CLI's default seed, 7.
VERIFY_SEED7_COUNTS = {
    "composite-bm": 80,
    "cover-cable-commute": 2508,
    "move-invariance": 7299,
    "reduction-confluence": 3400,
    "rho-bounds": 529,
    "structural": 2640,
    "u-cable": 456,
}

_SUMMARY_RE = re.compile(r"(\S+): (\d+)/(\d+) instances pass \[(ok|FAILED)\]\Z")
_KINDS = {kind.value: kind for kind in MoveKind}


def check_tabulate(path: str) -> int:
    """Failed records: all of them unless the file matches the rank-5 fingerprint."""
    with open(path, "rb") as fh:
        data = fh.read()
    ok = (
        data.count(b"\n") == TABULATE_R5_LINES
        and hashlib.sha256(data).hexdigest() == TABULATE_R5_SHA256
    )
    return 0 if ok else TABULATE_R5_LINES


def check_verify(output: str, code: int, seed: int) -> tuple[int, int]:
    """(instances attempted, instances failed) from ``verify all`` output.

    Failing instances count as failed.  A missing suite counts one failure,
    and at seed 7 a suite whose instance count differs from the known count
    has all of its instances counted as failed.
    """
    counts: dict[str, tuple[int, int]] = {}
    for line in output.splitlines():
        m = _SUMMARY_RE.match(line)
        if m:
            counts[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    attempted = sum(total for _, total in counts.values())
    failed = sum(total - passed for passed, total in counts.values())
    for suite, expected in VERIFY_SEED7_COUNTS.items():
        if suite not in counts:
            failed += 1
            attempted += 1
        elif seed == 7 and counts[suite][1] != expected:
            failed += counts[suite][0]  # its failing instances are counted above
    if code != 0 and failed == 0:
        failed = 1
    return attempted, failed


def parse_site(text: str) -> MoveSite:
    """Inverse of ``str(MoveSite)``: ``kind[@p,..][+X,..][(t,..)]``."""
    m = re.fullmatch(r"(.+?)(?:@([\d,]+))?(?:\+([^()@]+))?(?:\(([ab,]+)\))?", text)
    if m is None or m.group(1) not in _KINDS:
        raise ValueError(f"unreadable move site {text!r}")
    kind, positions, letters, types = m.groups()
    return MoveSite(
        _KINDS[kind],
        tuple(int(p) for p in positions.split(",")) if positions else (),
        tuple(letters.split(",")) if letters else (),
        tuple(types.split(",")) if types else (),
    )


def replay_printed_trace(start: str, lines: list[str]):
    """Replay ``  site  ->  word`` lines from ``start``; the final word.

    Raises ValueError when a printed step does not produce the printed word.
    """
    word = parse(start)
    for line in lines:
        site_text, arrow, printed = line.strip().partition("  ->  ")
        if not arrow:
            raise ValueError(f"not a trace line: {line!r}")
        word = apply_move(word, parse_site(site_text))
        if word != parse(printed):
            raise ValueError(f"step {site_text} gives {word.text()}, printed {printed}")
    return word


def check_query(args: list[str], output: str, code: int, expected) -> bool:
    """Whether one ``equiv`` or ``reduce`` answer is right and its trace replays.

    ``expected`` is the verdict for ``equiv`` and the reached rank for
    ``reduce``.
    """
    lines = output.splitlines()
    if code != 0 or not lines:
        return False
    try:
        if args[0] == "equiv":
            if lines[0] != expected:
                return False
            if expected != "homotopic":
                return True
            return isomorphic(replay_printed_trace(args[1], lines[1:]), parse(args[2]))
        reached = parse(lines[0])
        end = replay_printed_trace(args[1], lines[1:])
        return reached.rank == expected and isomorphic(end, reached)
    except ValueError:
        return False
