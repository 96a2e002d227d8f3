"""msroute benchmark: one CLI command per operation, on seeded instances.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the run's instances,
all derived from the seed, as Bookshelf files before any timing starts. It
then runs operations until S seconds have passed, finishing the one in
progress; they cycle over the instances. Each operation is one `msroute`
command in a fresh, single-threaded Python process (perfbench/op.py), so
peak RSS is per operation. Every output is checked; see checks.py.

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones.
The last line of standard output is the JSON result. A record with the
inputs, the environment, every operation and the answer digests goes to
.perfbench/results/ in the checkout. See perfbench/README.md for the
workloads and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for var in THREAD_VARS:  # inherited by every operation's process
    os.environ[var] = "1"

import checks  # noqa: E402
from instances import Instance, generate  # noqa: E402
from op import percentile  # noqa: E402

MAX_DEGREE = 6
RUN_DEADLINE_S = 170.0     # a run must exit within 180 s
ALL_CONFIGS = ("BCH", "BCL", "BCN", "FCH", "FCL", "FCN")


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    instances: int          # distinct instances per run, cycled over; fewer than the
                            # operations a run makes, so the byte-identity check runs
    command: tuple[str, ...]
    configs: tuple[str, ...]  # reports a routing command writes; empty for dump-graph

    @property
    def routes(self) -> bool:
        return bool(self.configs)


# Reasons for each workload are in README.md and BENCHMARK.json. sweep-m4 is
# not in BENCHMARK.json: its operations take 10-15 s, too few fit in a run for
# a steady median. Run it by name.
WORKLOADS = {
    "paper": Workload(300, 1632, 4, ("route", "--config", "FCN", "--layers", "8",
                                     "--layer-model", "reserved-hv"), ("FCN",)),
    "sweep-m4": Workload(120, 1200, 2, ("sweep", "--all-configs", "--layers", "4"), ALL_CONFIGS),
    "regions-1200": Workload(1200, 6528, 3, ("dump-graph",), ()),
}

E2E_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed for the reader, not part of the JSON result (see README.md)
ROUTE_UNITS = {"route_s": "s", "routed_pct": "%", "wl_over_hpwl": "ratio",
               "vias_per_net": "count", "wace4_max": "ratio"}
LAYER_UNITS = {
    "floorplan.load_s": "s", "floorplan.validate_s": "s",
    "adjacency.build_bag_s": "s", "adjacency.build_bag_calls": "count",
    "adjacency.all_junctions_s": "s",
    "staircase.build_msc_tree_s": "s", "staircase.build_msc_tree_calls": "count",
    "staircase.bipartition_s": "s", "staircase.bipartition_calls": "count",
    "staircase.extract_segments_s": "s", "staircase.assign_capacities_s": "s",
    "routegraph.build_junction_graph_s": "s", "routegraph.build_gsrg_s": "s",
    "routegraph.pins_hosted": "count", "routegraph.charge_s": "s",
    "routegraph.charge_calls": "count", "routegraph.layer_advances": "count",
    "router.prepare_s": "s", "router.prepare_calls": "count", "router.route_all_s": "s",
    "router.route_net_calls": "count", "router.route_net_ms_p50": "ms",
    "router.route_net_ms_p99": "ms", "router.nets_failed": "count",
    "router.dijkstra_ssp_s": "s", "router.dijkstra_ssp_calls": "count",
    "router.searches_failed": "count", "router.search_ok_ratio": "ratio",
    "router.path_junctions": "count", "router.self_s": "s",
    "metrics.summarize_s": "s", "metrics.write_report_s": "s",
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def tail_label(count: int) -> str | None:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}"
    return None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:  # shows in the operations, which need numpy
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """One benchmark run: instances, operations, checks and their results."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.wl = WORKLOADS[name]
        self.work = ROOT / ".perfbench" / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.instances: list[Instance] = []
        self.files: list[dict[str, Path]] = []
        self.hpwl: list[list[float]] = []
        self.ops: list[dict] = []
        self.digests: dict[str, object] = {}
        self.started = time.perf_counter()

    # -- inputs -----------------------------------------------------------

    def make_inputs(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for j in range(self.wl.instances):
            inst = generate(f"{self.name}-s{self.seed}-i{j}", self.wl.n, self.wl.k, MAX_DEGREE,
                            self.seed * 1000 + j)
            self.instances.append(inst)
            self.files.append(inst.write(self.work / "inputs"))
            self.hpwl.append(inst.hpwl())

    # -- one operation ----------------------------------------------------

    def spawn(self, index: int, j: int, traced: bool) -> dict:
        """Run operation `index` on instance j and read what it measured."""
        out_dir = self.work / f"op{index}"
        result_file = self.work / f"op{index}.json"
        files = self.files[j]
        argv = [*self.wl.command, "--blocks", str(files["blocks"]), "--pl", str(files["pl"]),
                "--nets", str(files["nets"]), "--out", str(out_dir)]
        cmd = [sys.executable, str(HERE / "op.py"), "--trace", str(int(traced)),
               "--routes", str(int(self.wl.routes)), "--result", str(result_file), "--", *argv]
        record = {"index": index, "instance": j, "traced": traced, "killed": False, "problems": []}
        budget = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            record["killed"] = True
            record["problems"].append(f"operation killed after {budget:.0f} s")
            return record
        finally:
            record["wall_s"] = time.perf_counter() - t0
        if proc.returncode != 0 or not result_file.is_file():
            record["problems"].append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        else:
            record.update(json.loads(result_file.read_text()))
            if record["error"]:
                record["problems"].append(record["error"])
        return record

    def finish(self, record: dict) -> None:
        """Check a finished operation's output and keep its record."""
        out_dir = self.work / f"op{record['index']}"
        if not record["problems"]:
            record["problems"].extend(self.check(record, record["instance"], out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(record)

    def _same_answer(self, key: str, digest: object) -> list[str]:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"{key}: answer differs from an earlier operation"]

    def check(self, record: dict, j: int, out_dir: Path) -> list[str]:
        inst = self.instances[j]
        if not self.wl.routes:
            problems = checks.check_dumps(out_dir, inst)
            if not problems:
                problems += self._same_answer(f"i{j}/dumps", checks.dump_digests(out_dir))
                record["segments"] = len((out_dir / "segments.csv").read_text().splitlines()) - 1
                record["junctions"] = checks.dump_junctions(out_dir)
            return problems
        problems, quality = [], []
        for cfg in self.wl.configs:
            path = out_dir / f"report_{cfg}.json"
            if not path.is_file():
                problems.append(f"{cfg}: no report written")
                continue
            report = json.loads(path.read_text())
            found = checks.check_report(report, inst, self.hpwl[j])
            problems += [f"{cfg}: {p}" for p in found]
            if not found:
                problems += self._same_answer(f"i{j}/{cfg}", checks.report_digest(report))
                quality.append(checks.route_quality(report, self.hpwl[j]))
        if not problems:
            routed = sum(q["routed"] for q in quality)
            record["quality"] = {
                "routed_pct": 100.0 * routed / sum(q["nets"] for q in quality),
                "wl_over_hpwl": sum(q["wirelength"] for q in quality) / sum(q["routed_hpwl"] for q in quality),
                "vias_per_net": sum(q["vias"] for q in quality) / routed,
                "wace4_max": max(q["wace4_max"] for q in quality),
            }
        return problems

    # -- the loop ---------------------------------------------------------

    def plan(self, index: int) -> tuple[int, bool]:
        """(instance, traced) of operation `index`. Untraced operations cycle
        over the instances. A traced run makes pairs, an untraced and a traced
        operation on the same instance, in alternating order."""
        if not self.trace:
            return index % self.wl.instances, False
        pair = index // 2
        return pair % self.wl.instances, (index + pair) % 2 == 1

    def measure(self) -> None:
        """Operations one after another until the time is up, at least two
        (a traced run: one pair), finishing the one in progress."""
        t0 = time.perf_counter()
        index = 0
        while index < 2 or (self.trace and index % 2) or time.perf_counter() - t0 < self.seconds:
            record = self.spawn(index, *self.plan(index))
            self.finish(record)
            if record["killed"]:
                return
            index += 1

    # -- results ----------------------------------------------------------

    def ok_ops(self, traced: bool) -> list[dict]:
        return [op for op in self.ops if not op["problems"] and op["traced"] == traced]

    def metrics(self) -> tuple[dict, dict]:
        """(JSON metrics, everything measured) for this run. Everything maps
        a metric to its unit and its per-operation values; a metric's value
        is their median."""
        plain = self.ok_ops(False)
        if not plain:  # report what failed operations measured, if anything
            plain = [op for op in self.ops if "total_s" in op and not op["traced"]]
        if not plain:
            raise RuntimeError("no operation produced a measurement")
        everything = {name: (unit, [op[name] for op in plain]) for name, unit in E2E_UNITS.items()}
        if self.wl.routes:
            everything["route_s"] = (ROUTE_UNITS["route_s"], [op["route_s"] for op in plain])
            with_q = [op for op in plain if "quality" in op]
            for key in ("routed_pct", "wl_over_hpwl", "vias_per_net", "wace4_max"):
                if with_q:
                    everything[key] = (ROUTE_UNITS[key], [op["quality"][key] for op in with_q])
        if not self.trace:
            return {k: everything[k] for k in E2E_UNITS}, everything
        traced = self.ok_ops(True) or [op for op in self.ops if op["traced"] and "layers" in op]
        if not traced:
            raise RuntimeError("no traced operation produced a measurement")
        layers = {}
        for name, unit in LAYER_UNITS.items():
            values = [op["layers"][name] for op in traced if name in op.get("layers", {})]
            if values:
                layers[name] = (unit, values)
        by_pair = {}
        for op in self.ops:
            by_pair.setdefault(op["index"] // 2, {})[op["traced"]] = op
        overheads = [100.0 * (p[True]["total_s"] / p[False]["total_s"] - 1.0)
                     for p in by_pair.values()
                     if len(p) == 2 and not p[True]["problems"] and not p[False]["problems"]]
        if overheads:
            layers["trace.overhead_pct"] = ("%", overheads)
        everything.update(layers)
        return layers, everything

    def record(self, everything: dict) -> dict:
        inputs = []
        for j, inst in enumerate(self.instances):
            seen = [op for op in self.ops if op["instance"] == j and op.get("segments")]
            inputs.append({
                "name": inst.name, "n": inst.n, "k": inst.k, "pins": inst.pins,
                "hash": inst.digest(), "border_tjunctions": inst.border_tjunctions(),
                "segments": seen[0]["segments"] if seen else None,
                "junctions": seen[0]["junctions"] if seen else None,
            })
        return {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds, "trace": self.trace,
            "command": ["msroute", *self.wl.command], "inputs": inputs, "environment": environment(),
            "digests": self.digests,
            "metrics": {k: {"median": statistics.median(v), "unit": u, "values": v}
                        for k, (u, v) in everything.items()},
            "ops": self.ops,
        }


def summary(run: Run, record: dict, metrics: dict, everything: dict) -> list[str]:
    """The printed result: a table for the reader, then the JSON line."""
    failed = sum(1 for op in run.ops if op["problems"])
    env = record["environment"]
    lines = [f"perfbench {run.name} seed={run.seed} trace={int(run.trace)}: "
             f"{len(run.ops)} operations on {len(run.instances)} instances; "
             f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"]
    for inp in record["inputs"]:
        lines.append(f"  input {inp['name']}: n={inp['n']} k={inp['k']} pins={inp['pins']} hash={inp['hash']} "
                     f"segments={inp['segments']} junctions={inp['junctions']}")
    for op in run.ops:
        lines += [f"  FAILED op {op['index']} (instance {op['instance']}): {p}" for p in op["problems"]]
    lines.append(f"  {'ops_failed_pct':36s} {100.0 * failed / len(run.ops):14.6f} {'%':6s} "
                 f"of {len(run.ops)} operations")
    for name, (unit, values) in everything.items():
        tail = tail_label(len(values))
        note = (f"{tail} {percentile(values, float(tail[1:])):.6f}" if tail
                else "too few samples for a tail percentile")
        lines.append(f"  {name:36s} {statistics.median(values):14.6f} {unit:6s} "
                     f"median of {len(values)}; {note}")
    lines += [f"  digest {key}: {digest}" for key, digest in sorted(run.digests.items())]
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": statistics.median(v), "unit": u} for k, (u, v) in metrics.items()},
    }))
    return lines


def execute(name: str, seed: int, seconds: int, trace: bool) -> list[str]:
    """Run the workload and return the lines to print; raises RuntimeError
    when no operation measured anything."""
    run = Run(name, seed, seconds, trace)
    try:
        run.make_inputs()
        run.measure()
        try:
            metrics, everything = run.metrics()
        except RuntimeError as exc:
            problems = [f"op {op['index']}: {p}" for op in run.ops for p in op["problems"]]
            raise RuntimeError("; ".join([str(exc), *problems])) from None
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record = run.record(everything)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return summary(run, record, metrics, everything)


def main() -> int:
    parser = argparse.ArgumentParser(description="msroute benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "msroute" / "cli.py").is_file():
        print(f"perfbench: no msroute sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
