"""Alternated benchmark pairs of two checkouts, summarised per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B [--seconds S] [--trace 0|1]

For each seed from A to B it runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace T` once in each checkout, one run at a time.
The side that goes first alternates: the parent in the first pair, the
change in the second, and so on.  Both sides run the same seed, so their
answer digests must match; each seed's check is printed.

Per metric the run's JSON result names (the end-to-end ones with --trace 0,
the per-layer ones with --trace 1) it prints each pair's (parent, change)
values, each side's median and quartiles over its runs (the inclusive
method), the parent's quartile distance, and in how many pairs the change
reads better, ties counting for neither side.  A metric is better when
lower unless BENCHMARK.json in the parent checkout says "higher".  The last
line is the whole summary as JSON.

Only the benchmark runs; nothing in either checkout changes apart from the
results perfbench writes under its own .perfbench/ directory.  Make the two
checkouts the same way, say `git archive` of each commit into a fresh
directory: one that already holds compiled bytecode or other leftovers can
read faster even on a workload that runs none of the changed code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, not {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its JSON result plus the answer digests it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=seconds + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout}: {' '.join(cmd)} exited {done.returncode}: "
                         f"{done.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    result["digests"] = dict(line.strip()[len("digest "):].split(": ", 1)
                             for line in lines if line.strip().startswith("digest "))
    return result


def directions(checkout: Path) -> dict[str, str]:
    """Each metric's better direction from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the pairs, each side's quartiles and the change's wins."""
    names = [name for name in pairs[0]["parent"]["metrics"]
             if all(name in p[side]["metrics"] for p in pairs for side in SIDES)]
    out = {}
    for name in names:
        values = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"]) for p in pairs]
        higher = better.get(name, "lower") == "higher"
        wins = sum(1 for a, b in values if (b > a if higher else b < a))
        parent_q, change_q = quartiles([a for a, _ in values]), quartiles([b for _, b in values])
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": "higher" if higher else "lower",
            "pairs_parent_change": values,
            "parent_median": parent_q[1],
            "parent_quartiles": [parent_q[0], parent_q[2]],
            "change_median": change_q[1],
            "change_quartiles": [change_q[0], change_q[2]],
            "parent_quartile_distance": parent_q[2] - parent_q[0],
            "change_better_in": f"{wins}/{len(values)} pairs",
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {path} has no perfbench/run.py")

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
        pair["digests_equal"] = pair["parent"]["digests"] == pair["change"]["digests"]
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): digests {'equal' if pair['digests_equal'] else 'DIFFER'}; "
              + "; ".join(f"{side} {pair[side]['failed']}/{pair[side]['attempted']} operations failed"
                          for side in SIDES), flush=True)

    metrics = summarize(pairs, directions(checkouts["parent"]))
    for name, m in metrics.items():
        print(f"{name} ({m['unit']}, {m['better']} is better)")
        print("  pairs (parent, change): " + ", ".join(f"({a:.4f}, {b:.4f})" for a, b in m["pairs_parent_change"]))
        for side in SIDES:
            lo, hi = m[f"{side}_quartiles"]
            print(f"  {side:6s} median {m[f'{side}_median']:.4f}  quartiles [{lo:.4f}, {hi:.4f}]")
        print(f"  parent quartile distance {m['parent_quartile_distance']:.4f}; "
              f"change better in {m['change_better_in']}")
    summary = {
        "workload": args.workload, "seeds": [args.seeds[0], args.seeds[-1]], "seconds": args.seconds,
        "trace": args.trace,
        "order": "parent first in the odd-numbered pairs (the first is pair 1), change first in the even",
        "digests_identical_per_seed": all(p["digests_equal"] for p in pairs),
        "operations": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "failed_operations": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
