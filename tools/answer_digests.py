"""Print sha256 digests of every answer msroute gives on a fixed set of instances.

An instance is `generate_random_floorplan(n, round(5.44 * n), 6, seed=1000)`, built
in both balance modes.  For each, the tool prints the digests of the region
dumps: `tree_text`, `segments_csv` and the MIS and MDS `.dot` files.  Below
n = 1200 blocks it also routes the region with the six presets at
M = 2 and 4 and with FCN and BCH at M = 8, and prints the digests of
`to_json(include_timing=False)` and of `junction_graph_csv` after the route.

Run it from the root of a checkout on two versions of the code and diff the
outputs; equal outputs mean every answer it covers is byte-identical:

    python3 tools/answer_digests.py > answers.txt
    python3 tools/answer_digests.py --sizes 8,20

`--check FILE` compares the output with FILE line by line instead of
printing it, names the label of each line that differs, and exits 1 on any
difference.  Checking the committed answers, n = 300 and 1200 included:

    python3 tools/answer_digests.py --check tests/data/answer_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msroute.adjacency import Orientation  # noqa: E402
from msroute.floorplan import generate_random_floorplan  # noqa: E402
from msroute.metrics import summarize  # noqa: E402
from msroute.routegraph import RegionModel, junction_graph_csv  # noqa: E402
from msroute.router import PRESETS, RoutingState, RunConfig, route_all  # noqa: E402
from msroute.staircase import BalanceMode, segments_csv, tree_text  # noqa: E402

SEED = 1000
ROUTE_BELOW = 1200
ROUTES = [(name, layers) for layers in (2, 4) for name in sorted(PRESETS)] + [("FCN", 8), ("BCH", 8)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer_digests(sizes: list[int]):
    """Yield one (label, sha256) pair per answer, in a fixed order."""
    for n in sizes:
        k = round(5.44 * n)
        fp = generate_random_floorplan(n, k, 6, seed=SEED)
        for balance in BalanceMode:
            region = RegionModel.build(fp, balance)
            label = f"n={n} k={k} seed={SEED} {balance.value}"
            yield f"{label} msc_tree.txt", _digest(tree_text(region.tree))
            yield f"{label} segments.csv", _digest(segments_csv(region.graph.segments))
            yield f"{label} bag_mis.dot", _digest(region.tree.bags[Orientation.MIS].as_dot())
            yield f"{label} bag_mds.dot", _digest(region.tree.bags[Orientation.MDS].as_dot())
            if n >= ROUTE_BELOW:
                continue
            for name, layers in ROUTES:
                state = RoutingState.prepare(region, RunConfig.from_name(name, layers=layers))
                report = summarize(route_all(state))
                yield f"{label} {name} M={layers} report.json", _digest(report.to_json(include_timing=False))
                yield (f"{label} {name} M={layers} junction_graph.csv",
                       _digest(junction_graph_csv(region.graph, state.usage, layers)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="40,120,300,1200", help="comma-separated block counts n")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with FILE line by line; exit 1 naming each differing label")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    lines = (f"{digest}  {label}" for label, digest in answer_digests(sizes))
    if args.check is None:
        for line in lines:
            print(line, flush=True)
        return 0
    expected = Path(args.check).read_text().splitlines()
    got = list(lines)
    differing = 0
    for i, (ours, theirs) in enumerate(itertools.zip_longest(got, expected), start=1):
        if ours != theirs:
            differing += 1
            print(f"differs: line {i}: {(ours or theirs).partition('  ')[2]}")
    if differing:
        print(f"{differing} of {max(len(got), len(expected))} lines differ from {args.check}")
        return 1
    print(f"all {len(got)} lines equal {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
