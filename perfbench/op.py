"""Run one msroute CLI command in this process, timed, and write what it saw.

    python3 perfbench/op.py --trace 0|1 --routes 0|1 --result FILE -- <msroute arguments>

The command runs in-process through msroute.cli.main, from the checkout's
src/ directory. Hooks replace a function by a timing wrapper in every
msroute module that holds it, so a caller that imported the name is caught
as well.

--trace 0 hooks only route_all and the report writers (summarize,
write_report), which is all the end-to-end split needs. With --routes 1 each
of them must see a call, or the operation fails: a renamed function would
otherwise read as zero time.

--trace 1 also hooks the public functions of every layer and reports the
per-layer metrics. A traced function that no longer exists is left out and
its metrics are absent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_HOOKS = ("router.route_all", "metrics.summarize", "metrics.write_report")
TRACE_HOOKS = E2E_HOOKS + (
    "floorplan.load_floorplan",
    "floorplan.validate_floorplan",
    "adjacency.build_bag",
    "adjacency.all_junctions",
    "staircase.build_msc_tree",
    "staircase.bipartition",
    "staircase.extract_segments",
    "staircase.assign_capacities",
    "routegraph.build_junction_graph",
    "routegraph.build_gsrg",
    "routegraph.charge",
    "router.RoutingState.prepare",
    "router.route_net",
    "router.dijkstra_ssp",
    "cli.main",
)


def import_msroute():
    """Import msroute from this checkout's src/, never from elsewhere."""
    if not (SRC / "msroute" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no msroute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import msroute
    import msroute.cli

    if SRC.resolve() not in Path(msroute.__file__).resolve().parents:
        raise SystemExit(f"perfbench: msroute imported from {msroute.__file__}, not {SRC}")
    return msroute


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0   # time in hooked functions it called directly
    active: bool = False
    counts: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)


class Tracer:
    """Spans at hooked function boundaries, kept in memory."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # per open span: child seconds so far

    def wrap(self, name, fn, observe=None, before=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            stat.calls += 1
            if stat.active:  # a re-entrant call is inside the outer span already
                return fn(*args, **kwargs)
            token = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            stat.active = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active = False
                stack.pop()
                stat.seconds += dt
                stat.child_seconds += frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe:
                observe(stat, args, result, dt, token)
            return result

        hooked.__wrapped__ = fn
        return hooked


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "msroute" or mod_name.startswith("msroute.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer, spec: str, observe=None, before=None) -> bool:
    """Hook msroute.<spec>; returns False when the function does not exist."""
    mod_name, _, path = spec.partition(".")
    owner = sys.modules.get(f"msroute.{mod_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return False
    if isinstance(owner, type):  # a classmethod: rewrap the function inside it
        raw = owner.__dict__.get(attr)
        if not isinstance(raw, classmethod):
            return False
        setattr(owner, attr, classmethod(tracer.wrap(spec, raw.__func__, observe, before)))
        return True
    original = getattr(owner, attr, None)
    if not callable(original):
        return False
    _rebind(original, tracer.wrap(spec, original, observe, before))
    return True


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens

def _on_route_all(stat, args, result, dt, token):
    state = args[0]
    stat.counts["segments"] = len(getattr(state, "segments", ()) or ())
    stat.counts["junctions"] = len(getattr(state, "junctions", ()) or ())


def _on_build_gsrg(stat, args, result, dt, token):
    stat.counts["pins"] += len(result.pins)


def _before_charge(args):
    return args[0].curr_layer


def _on_charge(stat, args, result, dt, token):
    if result > token:
        stat.counts["advances"] += 1


def _on_route_net(stat, args, result, dt, token):
    stat.samples.append(dt)
    if result.status != "ROUTED":
        stat.counts["failed"] += 1


def _on_dijkstra(stat, args, result, dt, token):
    if result is None:
        stat.counts["failed"] += 1
    else:
        stat.counts["junctions"] += len(result.junctions)


OBSERVERS = {
    "router.route_all": (_on_route_all, None),
    "routegraph.build_gsrg": (_on_build_gsrg, None),
    "routegraph.charge": (_on_charge, _before_charge),
    "router.route_net": (_on_route_net, None),
    "router.dijkstra_ssp": (_on_dijkstra, None),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """The per-layer metrics of one traced operation; a metric whose hook is
    missing is left out."""
    out: dict[str, float] = {}

    def put(name, spec, value):
        if spec in stats:
            out[name] = value(stats[spec])

    seconds = lambda s: s.seconds
    calls = lambda s: s.calls
    put("floorplan.load_s", "floorplan.load_floorplan", seconds)
    put("floorplan.validate_s", "floorplan.validate_floorplan", seconds)
    put("adjacency.build_bag_s", "adjacency.build_bag", seconds)
    put("adjacency.build_bag_calls", "adjacency.build_bag", calls)
    put("adjacency.all_junctions_s", "adjacency.all_junctions", seconds)
    put("staircase.build_msc_tree_s", "staircase.build_msc_tree", seconds)
    put("staircase.build_msc_tree_calls", "staircase.build_msc_tree", calls)
    put("staircase.bipartition_s", "staircase.bipartition", seconds)
    put("staircase.bipartition_calls", "staircase.bipartition", calls)
    put("staircase.extract_segments_s", "staircase.extract_segments", seconds)
    put("staircase.assign_capacities_s", "staircase.assign_capacities", seconds)
    put("routegraph.build_junction_graph_s", "routegraph.build_junction_graph", seconds)
    put("routegraph.build_gsrg_s", "routegraph.build_gsrg", seconds)
    put("routegraph.pins_hosted", "routegraph.build_gsrg", lambda s: s.counts["pins"])
    put("routegraph.charge_s", "routegraph.charge", seconds)
    put("routegraph.charge_calls", "routegraph.charge", calls)
    put("routegraph.layer_advances", "routegraph.charge", lambda s: s.counts["advances"])
    put("router.prepare_s", "router.RoutingState.prepare", seconds)
    put("router.prepare_calls", "router.RoutingState.prepare", calls)
    put("router.route_all_s", "router.route_all", seconds)
    put("router.route_net_calls", "router.route_net", calls)
    put("router.route_net_ms_p50", "router.route_net", lambda s: 1e3 * percentile(s.samples, 50))
    put("router.route_net_ms_p99", "router.route_net", lambda s: 1e3 * percentile(s.samples, 99))
    put("router.nets_failed", "router.route_net", lambda s: s.counts["failed"])
    put("router.dijkstra_ssp_s", "router.dijkstra_ssp", seconds)
    put("router.dijkstra_ssp_calls", "router.dijkstra_ssp", calls)
    put("router.searches_failed", "router.dijkstra_ssp", lambda s: s.counts["failed"])
    # no search at all wastes nothing, so the ratio is 1.0 then
    put("router.search_ok_ratio", "router.dijkstra_ssp",
        lambda s: (s.calls - s.counts["failed"]) / s.calls if s.calls else 1.0)
    put("router.path_junctions", "router.dijkstra_ssp", lambda s: s.counts["junctions"])
    children = ("routegraph.build_gsrg", "router.dijkstra_ssp", "routegraph.charge")
    if all(c in stats for c in children):
        put("router.self_s", "router.route_all",
            lambda s: s.seconds - sum(stats[c].seconds for c in children))
    put("metrics.summarize_s", "metrics.summarize", seconds)
    put("metrics.write_report_s", "metrics.write_report", seconds)
    put("cli.main_s", "cli.main", seconds)
    put("cli.self_s", "cli.main", lambda s: s.seconds - s.child_seconds)
    return out


def run(argv: list[str], trace: bool, routes: bool) -> dict:
    msroute = import_msroute()
    tracer = Tracer()
    for spec in TRACE_HOOKS if trace else E2E_HOOKS:
        observe, before = OBSERVERS.get(spec, (None, None))
        if not install(tracer, spec, observe, before) and spec in E2E_HOOKS:
            raise SystemExit(f"perfbench: end-to-end hook msroute.{spec} has no function to hook")

    out, err = io.StringIO(), io.StringIO()
    result = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["rc"] = msroute.cli.main(argv)
    except Exception:
        result["error"] = traceback.format_exc(limit=4)
    total = time.perf_counter() - t0

    stats = tracer.stats
    if result["rc"] != 0 and not result["error"]:
        result["error"] = f"exit code {result['rc']}: {err.getvalue().strip()[-500:]}"
    if routes and not result["error"]:
        silent = [spec for spec in E2E_HOOKS if stats[spec].calls == 0]
        if silent:
            result["error"] = f"end-to-end hooks saw no call: {silent}"
    route_s = stats["router.route_all"].seconds
    writers_s = stats["metrics.summarize"].seconds + stats["metrics.write_report"].seconds
    result.update(
        total_s=total,
        route_s=route_s,
        setup_s=total - route_s - writers_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        segments=stats["router.route_all"].counts["segments"],
        junctions=stats["router.route_all"].counts["junctions"],
    )
    if trace:
        result["layers"] = layer_metrics(stats)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--routes", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="file to write the JSON result to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the msroute arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    result = run(argv, bool(args.trace), bool(args.routes))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
