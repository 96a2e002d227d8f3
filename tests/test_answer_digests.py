"""tools/answer_digests.py, which shows two versions of the code give the same answers."""

import os
import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digests.py"
#: the tool's full output (`python3 tools/answer_digests.py > tests/data/answer_digests.txt`);
#: an intended answer change shows up as a diff of this file
_ANSWERS = Path(__file__).resolve().parent / "data" / "answer_digests.txt"


def _run(hash_seed, sizes="6"):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, str(_TOOL), "--sizes", sizes],
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


def test_answers_equal_the_committed_file():
    # n = 40 and 120 cover every routed configuration in a few seconds; the
    # file's n = 300 and 1200 lines are checked by running the tool by hand
    committed = [line for line in _ANSWERS.read_text().splitlines() if line.split()[1] in ("n=40", "n=120")]
    assert len(committed) == 128
    assert _run("0", sizes="40,120").splitlines() == committed


def test_check_names_each_differing_label_and_exits_one(tmp_path):
    answers = tmp_path / "answers.txt"
    lines = _run("0").splitlines()
    answers.write_text("\n".join(lines) + "\n")
    same = subprocess.run([sys.executable, str(_TOOL), "--sizes", "6", "--check", str(answers)],
                          capture_output=True, text=True, timeout=120)
    assert (same.returncode, same.stdout) == (0, f"all {len(lines)} lines equal {answers}\n")
    doctored = lines[:-1]
    doctored[2] = "0" * 64 + "  " + doctored[2].partition("  ")[2]
    answers.write_text("\n".join(doctored) + "\n")
    differ = subprocess.run([sys.executable, str(_TOOL), "--sizes", "6", "--check", str(answers)],
                            capture_output=True, text=True, timeout=120)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        f"differs: line 3: {lines[2].partition('  ')[2]}",
        f"differs: line {len(lines)}: {lines[-1].partition('  ')[2]}",
        f"2 of {len(lines)} lines differ from {answers}",
    ]
