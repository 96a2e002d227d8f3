"""tools/answer_digests.py, which shows two versions of the code give the same answers."""

import os
import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digests.py"


def _run(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, str(_TOOL), "--sizes", "6"],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return done.stdout


def test_two_runs_print_the_same_digests():
    first, second = _run("1"), _run("2")
    assert first == second
    lines = first.splitlines()
    # per balance mode: 4 region dumps, then 2 answers for each of the 6 presets
    # at M=2 and 4 and FCN and BCH at M=8
    assert len(lines) == 2 * (4 + 14 * 2)
    assert all(re.fullmatch(r"[0-9a-f]{64}  n=\d+ k=\d+ seed=1000 (NUMBER|AREA) .+", line) for line in lines)
