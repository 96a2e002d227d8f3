"""Print the peak memory of one msroute command in a fresh process.

The instance is perfbench's (`perfbench/instances.py`): n blocks,
k = round(5.44 n) nets of degree 2 to 6, deterministic in the seed.  Its
Bookshelf files are written to a temporary directory by this process; then a
fresh Python process runs `msroute.cli.main` on them and reads its own peak
from `/proc/self/status`:

- `VmHWM`, the peak resident set of that process alone (it starts afresh at
  exec);
- `ru_maxrss` of `resource.getrusage(RUSAGE_SELF)`, which an exec'd process
  takes over from its parent's peak, so it cannot read below this one.

Run it from the root of a checkout (Linux only); each call runs the command
once, so parent and change runs can be alternated call by call.  It exits 1,
printing no measurement, when the command exits non-zero:

    python3 tools/peak_memory.py --n 1200 --seed 7
    python3 tools/peak_memory.py --n 300 -- route --config FCN --layers 8
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from instances import generate  # noqa: E402

CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from msroute.cli import main
code = main(sys.argv[2:])
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(json.dumps({"exit": code, "vmhwm_mb": int(status["VmHWM"].split()[0]) / 1024,
                  "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1200, help="blocks (default 1200)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("command", nargs="*", default=["dump-graph"],
                        help="msroute command and its options (default dump-graph)")
    args = parser.parse_args()
    inst = generate("peak", args.n, round(5.44 * args.n), 6, args.seed)
    with tempfile.TemporaryDirectory() as work:
        files = inst.write(Path(work) / "inputs")
        argv = [*args.command, "--blocks", str(files["blocks"]), "--pl", str(files["pl"]),
                "--nets", str(files["nets"]), "--out", str(Path(work) / "out")]
        done = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), *argv],
                              capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return 1
    peak = json.loads(done.stdout.splitlines()[-1])
    if peak["exit"] != 0:  # a failed command is not a measurement
        sys.stderr.write(done.stderr)
        sys.stderr.write(f"peak_memory: the msroute command exited {peak['exit']}\n")
        return 1
    print(json.dumps({"n": inst.n, "k": inst.k, "seed": args.seed, **peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
