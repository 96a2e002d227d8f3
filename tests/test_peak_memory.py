"""tools/peak_memory.py, which prints the peak memory of one msroute command."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_memory.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), "--n", "12", *args],
                          capture_output=True, text=True, check=False)


def test_a_command_that_succeeds_prints_its_peak():
    done = _run("--seed", "3")
    assert done.returncode == 0, done.stderr
    peak = json.loads(done.stdout)
    assert list(peak) == ["n", "k", "seed", "exit", "vmhwm_mb", "ru_maxrss_mb"]
    assert (peak["n"], peak["k"], peak["seed"], peak["exit"]) == (12, 65, 3, 0)
    assert 0 < peak["vmhwm_mb"] <= peak["ru_maxrss_mb"]


def test_a_command_that_fails_exits_one_and_names_its_exit_code():
    done = _run("--", "route", "--config", "NOPE")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "the msroute command exited 1" in done.stderr
