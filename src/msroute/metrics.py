"""Congestion metrics (ACE / wACE4) and machine-readable route reports.

ACE(x%) is the mean normalized usage over the ceil(x% * N) most congested
segment-layer entries; wACE4 averages ACE at x = 0.5, 1, 2 and 5 with equal
weights.  The population contains one entry per (usable segment, layer), so
an entry's p = u / capacity is always in [0, 1] once routing finished.
`snapshot` holds it as rows, one per usable segment with an entry per
layer; a layer's metrics read its column, the overall ones every entry.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import MetricError
from .floorplan import mean, sequential_sum
from .router import RouteRun, RoutingState


def snapshot(state: RoutingState) -> list[list[float]]:
    """u / capacity per usable segment (rows, in `JunctionGraph.usable` order)
    and layer (entry layer - 1); 0 where the axis may not go."""
    rows = []
    for sid in state.region.graph.usable:
        usage = state.usage[sid]
        rows.append([u / cap if cap > 0 else 0.0 for u, cap in zip(usage.u, usage.cap)])
    return rows


def ace(x_percent: float, values) -> float:
    """Mean p over the ceil(x% * N) most congested of N values."""
    values = sorted(values)
    if not values:
        raise MetricError("ACE undefined for an empty congestion snapshot")
    if not 0 < x_percent <= 100:
        raise MetricError(f"ACE percentage {x_percent} outside (0, 100]")
    k = math.ceil(x_percent / 100.0 * len(values))
    return mean(values[-k:])


def wace4(values) -> float:
    """Equal-weight mean of ACE(0.5), ACE(1), ACE(2) and ACE(5)."""
    return sequential_sum(ace(x, values) for x in (0.5, 1.0, 2.0, 5.0)) / 4.0


# ---------------------------------------------------------------------------
# reports

@dataclass
class RouteReport:
    instance: dict
    config: dict
    totals: dict
    congestion: dict
    nets: list[dict]

    def canonical_dict(self, include_timing: bool = True) -> dict:
        totals = dict(self.totals)
        if not include_timing:
            totals.pop("runtime_seconds", None)
        return {
            "schema": "msroute-report-v1",
            "instance": self.instance,
            "config": self.config,
            "totals": totals,
            "congestion": self.congestion,
            "nets": self.nets,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.canonical_dict(include_timing), indent=2, sort_keys=True) + "\n"

    def nets_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "name", "status", "wirelength", "vias", "hpwl"])
        for row in self.nets:
            writer.writerow([row["id"], row["name"], row["status"],
                             f"{row['wirelength']:.6f}", row["vias"], f"{row['hpwl']:.6f}"])
        return out.getvalue()

    def summary_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        flat: dict[str, object] = {}
        for prefix, section in (("instance", self.instance), ("config", self.config),
                                ("totals", self.totals), ("congestion", self.congestion)):
            for key, value in section.items():
                if isinstance(value, list):
                    value = ";".join(str(v) for v in value)
                flat[f"{prefix}.{key}"] = value
        for key in sorted(flat):
            writer.writerow([key, flat[key]])
        return out.getvalue()


def summarize(run: RouteRun) -> RouteReport:
    """Fold a finished run into totals, per-net rows and congestion metrics.

    totals.runtime_seconds covers route_all only, not RegionModel.build or
    RoutingState.prepare.
    """
    state = run.state
    region = state.region
    fp = region.fp
    nets_rows: list[dict] = []
    total_wl = 0.0
    total_vias = 0
    routed = 0
    routed_hpwl = 0.0
    detours: list[float] = []
    for result, net, hpwl in zip(run.results, fp.nets, run.hpwl):
        if result.status == "ROUTED":
            routed += 1
            total_wl += result.wirelength
            total_vias += result.vias
            routed_hpwl += hpwl
            for path in result.paths:
                a, b = net.pins[path.source_pin], net.pins[path.sink_pin]
                manhattan = abs(a.x - b.x) + abs(a.y - b.y)
                if manhattan > fp.tol:
                    detours.append(path.length / manhattan)
        nets_rows.append({
            "id": net.id,
            "name": net.name,
            "status": result.status,
            "wirelength": result.wirelength,
            "vias": result.vias,
            "hpwl": hpwl,
        })

    n_nets = len(fp.nets)
    totals = {
        "nets": n_nets,
        "routed": routed,
        "failed": n_nets - routed,
        "routed_pct": 100.0 if n_nets == 0 else 100.0 * routed / n_nets,
        "wirelength": total_wl,
        "vias": total_vias,
        "routed_hpwl": routed_hpwl,
        "wl_over_hpwl": (total_wl / routed_hpwl) if routed_hpwl > 0 else None,
        "detour_ratio_mean": (sequential_sum(detours) / len(detours)) if detours else None,
        "detour_ratio_max": max(detours) if detours else None,
        "runtime_seconds": run.runtime,
    }

    snap = snapshot(state)
    if snap:
        per_layer = [wace4(p) for p in zip(*snap)]
        entries = [p for row in snap for p in row]
        congestion = {
            "wace4_per_layer": per_layer,
            "wace4_max": max(per_layer),
            "wace4_all": wace4(entries),
            "max_usage": max(entries),
        }
    else:
        congestion = {"wace4_per_layer": [], "wace4_max": None, "wace4_all": None, "max_usage": 0.0}

    return RouteReport(
        instance={
            "hash": fp.instance_hash,
            "blocks": len(fp.blocks),
            "nets": n_nets,
        },
        config={
            "name": state.config.name,
            "search": state.config.search.value,
            "profile": state.config.profile.kind.value,
            "layers": state.config.profile.layers,
            "layer_model": state.config.profile.layer_model.value,
            "balance": region.balance.value,
        },
        totals=totals,
        congestion=congestion,
        nets=nets_rows,
    )


def write_report(report: RouteReport, out_dir, stem: str, report_format: str = "both") -> list:
    """Write report_{stem}.json and/or the two CSV views; returns the paths."""
    if report_format not in ("json", "csv", "both"):
        raise ValueError(f"report_format must be json, csv or both, not {report_format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if report_format in ("json", "both"):
        p = out / f"report_{stem}.json"
        p.write_text(report.to_json())
        paths.append(p)
    if report_format in ("csv", "both"):
        p1 = out / f"report_{stem}_nets.csv"
        p1.write_text(report.nets_csv())
        p2 = out / f"report_{stem}_summary.csv"
        p2.write_text(report.summary_csv())
        paths.extend([p1, p2])
    return paths
