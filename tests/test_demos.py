"""The demo scripts run to completion and print exactly their pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*_*.py"))

#: (stdout lines, stdout sha256) of every demo; the same under any
#: ``PYTHONHASHSEED``.
OUTPUT = {
    "01_words_and_moves.py": (
        11,
        "0759a75638a5cfce5372f06120e876fc88bce4df34fbe8371aa4b6e5c9026c18",
    ),
    "02_invariants.py": (
        23,
        "efd23ac0216800e53847ab92adc7a8bb6738f95058758476498026eff808c280",
    ),
    "03_coverings.py": (
        16,
        "44ca9342a4b51b0e6b6de3223587c57ca285659a91c6e55b5d08406a2faf1e0c",
    ),
    "04_composites_and_cables.py": (
        13,
        "3bc567293735b330b50878c391ed47764a30e27f0eed878f858c1731f811afef",
    ),
    "05_search.py": (
        11,
        "f336a2906a5bde81c37383c2750a33a3c4d8e67b795482ce2a20424ebd5fa4cc",
    ),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    lines, digest = OUTPUT[demo]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.count(b"\n") == lines, proc.stdout.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest, proc.stdout.decode()
