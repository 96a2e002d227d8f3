"""Tests of the benchmark itself: a tiny-instance smoke run of all three
commands, the output checks against doctored outputs, and the hooks.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import op
import run
from instances import Instance, generate

HERE = Path(__file__).resolve().parent
SEED = 424242  # records of test runs land under this seed


def _printed(lines, name, unit):
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+-?[0-9.]+\s+{re.escape(unit)}\s")
    return any(pattern.match(line) for line in lines)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to n=20, k=60 on one instance, so each run
    compares two answers for it."""
    for name, wl in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(wl, n=20, k=60, instances=1))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(tiny, workload):
    lines = run.execute(workload, SEED, 0, trace=False)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    for name, unit in run.E2E_UNITS.items():
        assert _printed(lines, name, unit), name
    assert _printed(lines, "ops_failed_pct", "%")
    if run.WORKLOADS[workload].routes:
        for name, unit in run.ROUTE_UNITS.items():
            assert _printed(lines, name, unit), name

    lines = run.execute(workload, SEED, 0, trace=True)
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.LAYER_UNITS
    for name, unit in run.LAYER_UNITS.items():
        assert _printed(lines, name, unit), name


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


# ---------------------------------------------------------------------------
# instances

def test_instances_are_deterministic_in_the_seed():
    a, b, c = (generate("x", 30, 90, 6, s) for s in (7, 7, 8))
    assert a.texts() == b.texts() and a.digest() == b.digest()
    assert a.texts() != c.texts()
    assert (a.n, a.k) == (30, 90) and a.pins >= 2 * 90


def test_border_tjunctions_of_a_two_block_split():
    inst = Instance("two", 10.0, ((0.0, 0.0, 4.0, 10.0), (4.0, 0.0, 10.0, 10.0)), ((0, 1),))
    assert inst.border_tjunctions() == 2
    assert inst.hpwl() == [5.0]


# ---------------------------------------------------------------------------
# output checks on doctored outputs

def _clean_report(inst):
    hpwl = inst.hpwl()
    rows = [{"id": i, "name": f"n{i}", "status": "ROUTED", "wirelength": h * 1.2 + 1.0,
             "vias": 2, "hpwl": h} for i, h in enumerate(hpwl)]
    report = {
        "instance": {"blocks": inst.n, "nets": inst.k},
        "totals": {"nets": inst.k, "routed": inst.k, "failed": 0, "runtime_seconds": 0.5},
        "congestion": {"max_usage": 0.8, "wace4_per_layer": [0.5, 0.4], "wace4_max": 0.5},
        "nets": rows,
    }
    return report, hpwl


def _doctor(report, change):
    doctored = json.loads(json.dumps(report))
    change(doctored)
    return doctored


def _over_capacity(r):
    r["congestion"]["max_usage"] = 1.25


def _wace_over_one(r):
    r["congestion"]["wace4_per_layer"][1] = 1.1


def _net_missing(r):
    r["nets"].pop()
    r["totals"].update(nets=r["totals"]["nets"] - 1, routed=r["totals"]["routed"] - 1)


def _counts_disagree(r):
    r["totals"]["failed"] = 3


def _wl_below_hpwl(r):
    r["nets"][5]["wirelength"] = r["nets"][5]["hpwl"] * 0.9


@pytest.mark.parametrize("change", [_over_capacity, _wace_over_one, _net_missing, _counts_disagree,
                                    _wl_below_hpwl])
def test_check_rejects_a_doctored_report(change):
    inst = generate("r", 20, 40, 6, 3)
    report, hpwl = _clean_report(inst)
    assert checks.check_report(report, inst, hpwl) == []
    assert checks.check_report(_doctor(report, change), inst, hpwl) != []


def test_report_digest_ignores_only_the_runtime():
    inst = generate("r", 20, 40, 6, 3)
    report, _ = _clean_report(inst)
    same = _doctor(report, lambda r: r["totals"].update(runtime_seconds=9.0))
    other = _doctor(report, lambda r: r["nets"][0].update(vias=3))
    assert checks.report_digest(same) == checks.report_digest(report)
    assert checks.report_digest(other) != checks.report_digest(report)


def _op(tmp_path, inst, argv, trace=0, routes=0):
    files = inst.write(tmp_path / "in")
    result = tmp_path / "result.json"
    out = tmp_path / "out"
    cmd = [sys.executable, str(HERE / "op.py"), "--trace", str(trace), "--routes", str(routes),
           "--result", str(result), "--", *argv, "--blocks", str(files["blocks"]),
           "--pl", str(files["pl"]), "--nets", str(files["nets"]), "--out", str(out)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return json.loads(result.read_text()), out


def _drop_last_cut(out):
    path = out / "msc_tree.txt"
    lines = path.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.lstrip().startswith("cut "))
    path.write_text("".join(lines[:last] + lines[last + 1:]))


def _extra_segment(out):
    path = out / "segments.csv"
    path.write_text(path.read_text() + "999,H,0.0,0.0,1.0,0\n")


def _drop_bag_edge(out):
    path = out / "bag_mis.dot"
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if "->" in line)
    path.write_text("".join(lines[:first] + lines[first + 1:]))


@pytest.mark.parametrize("change", [_drop_last_cut, _extra_segment, _drop_bag_edge])
def test_check_rejects_a_doctored_dump(tmp_path, change):
    inst = generate("d", 25, 60, 6, 5)
    result, out = _op(tmp_path, inst, ["dump-graph"])
    assert result["rc"] == 0 and not result["error"]
    assert checks.check_dumps(out, inst) == []
    assert checks.dump_junctions(out) == 2 * inst.n + 2
    change(out)
    assert checks.check_dumps(out, inst) != []


# ---------------------------------------------------------------------------
# hooks

def test_end_to_end_hook_without_a_call_fails_loudly(tmp_path):
    result, _ = _op(tmp_path, generate("h", 20, 40, 6, 2), ["dump-graph"], routes=1)
    assert result["rc"] == 0
    assert "saw no call" in result["error"]


def test_hook_rebinds_every_module_that_imported_the_function():
    msroute = op.import_msroute()
    original = msroute.router.route_all
    tracer = op.Tracer()
    assert op.install(tracer, "router.route_all")
    try:
        wrapped = msroute.router.route_all
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert msroute.cli.route_all is wrapped and msroute.route_all is wrapped
    finally:
        op._rebind(wrapped, original)
    assert msroute.cli.route_all is original


def test_missing_traced_function_leaves_its_metrics_out():
    op.import_msroute()
    tracer = op.Tracer()
    assert not op.install(tracer, "router.no_such_function")
    assert not op.install(tracer, "router.RoutingState.no_such_method")
    metrics = op.layer_metrics({"router.route_all": op.Stat(calls=1, seconds=2.0)})
    assert metrics == {"router.route_all_s": 2.0}
