"""Output checks and answer digests, computed from the files msroute wrote.

Every expected value comes from the benchmark's own instance (net count,
pin HPWL, block count, border T-junctions) or from an invariant of the
method (usage never exceeds capacity), never from msroute itself. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from instances import Instance

#: the files dump-graph writes, in a fixed order
DUMP_FILES = ("bag_mis.dot", "bag_mds.dot", "msc_tree.txt", "segments.csv", "junction_graph.csv")

_EPS = 1e-9


def report_digest(report: dict) -> str:
    """Digest of a route report without its one timing field."""
    totals = dict(report.get("totals", {}))
    totals.pop("runtime_seconds", None)
    canonical = json.dumps({**report, "totals": totals}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def check_report(report: dict, inst: Instance, hpwl: list[float]) -> list[str]:
    """Problems with one route report of the instance."""
    problems = []
    totals = report.get("totals", {})
    rows = report.get("nets", [])
    k = inst.k
    if totals.get("nets") != k or len(rows) != k:
        problems.append(f"report covers {totals.get('nets')} nets and has {len(rows)} rows, instance has {k}")
    routed, failed = totals.get("routed"), totals.get("failed")
    if not isinstance(routed, int) or not isinstance(failed, int) or routed + failed != k:
        problems.append(f"routed {routed} + failed {failed} != {k} nets")
    routed_rows = 0
    for i, row in enumerate(rows[:k]):
        if row.get("id") != i:
            problems.append(f"row {i} carries net id {row.get('id')}")
            break
        if row.get("status") != "ROUTED":
            continue
        routed_rows += 1
        tol = _EPS * max(1.0, hpwl[i])
        if row.get("wirelength", -1.0) < hpwl[i] - tol:
            problems.append(f"net {i}: wirelength {row.get('wirelength')} < own HPWL {hpwl[i]}")
            break
    if routed_rows != routed:
        problems.append(f"{routed_rows} rows say ROUTED, totals say {routed}")
    congestion = report.get("congestion", {})
    usage = congestion.get("max_usage")
    if usage is None or usage > 1.0 + _EPS:
        problems.append(f"max_usage {usage} exceeds 1")
    over = [w for w in congestion.get("wace4_per_layer", []) if w > 1.0 + _EPS]
    if over:
        problems.append(f"wace4_per_layer above 1: {over}")
    return problems


def route_quality(report: dict, hpwl: list[float]) -> dict[str, float]:
    """The quality figures of one checked report, summed from its per-net
    rows against the instance's own HPWL."""
    rows = [r for r in report["nets"] if r["status"] == "ROUTED"]
    wl = sum(r["wirelength"] for r in rows)
    hp = sum(hpwl[r["id"]] for r in rows)
    return {
        "routed": len(rows),
        "nets": len(report["nets"]),
        "wirelength": wl,
        "routed_hpwl": hp,
        "vias": sum(r["vias"] for r in rows),
        "wace4_max": report["congestion"]["wace4_max"] or 0.0,
    }


def check_dumps(out_dir: Path, inst: Instance) -> list[str]:
    """Problems with the dump-graph files of the instance."""
    missing = [name for name in DUMP_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing dump files: {missing}"]
    n = inst.n
    problems = []
    cuts = sum(1 for line in (out_dir / "msc_tree.txt").read_text().splitlines()
               if line.lstrip().startswith("cut "))
    if cuts != n - 1:
        problems.append(f"msc_tree.txt has {cuts} cuts, expected n-1 = {n - 1}")
    rows = len((out_dir / "segments.csv").read_text().splitlines()) - 1
    if rows != 3 * n + 1:
        problems.append(f"segments.csv has {rows} rows, expected 3n+1 = {3 * n + 1}")
    b = inst.border_tjunctions()
    edges = sum(1 for line in (out_dir / "bag_mis.dot").read_text().splitlines() if "->" in line)
    if edges != 3 * (n - 1) - b:
        problems.append(f"bag_mis.dot has {edges} edges, expected 3(n-1)-b = {3 * (n - 1) - b}")
    return problems


def dump_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16] for name in DUMP_FILES}


def dump_junctions(out_dir: Path) -> int:
    """Distinct segment end points in segments.csv, i.e. the junction count."""
    points = set()
    for line in (out_dir / "segments.csv").read_text().splitlines()[1:]:
        _, axis, fixed, lo, hi, _ = line.split(",")
        for end in (lo, hi):
            points.add((fixed, end) if axis == "V" else (end, fixed))
    return len(points)
