"""ACE / wACE4 congestion metrics and report generation."""

import builtins
import csv
import io
import json
import random

import numpy as np
import pytest

from msroute.errors import MetricError
from msroute.floorplan import generate_random_floorplan
from msroute.metrics import ace, snapshot, summarize, wace4, write_report
from msroute.routegraph import capacity_at
from msroute.router import RunConfig, route_floorplan

from test_floorplan import make_fp
from test_router import _net


def test_ace_constant_field():
    values = [0.5] * 40
    assert ace(5, values) == pytest.approx(0.5)
    assert wace4(values) == pytest.approx(0.5)


def test_ace_top_one_selection():
    values = [0.0] * 99 + [1.0]
    assert ace(1, values) == pytest.approx(1.0)  # ceil(1% of 100) = 1 entry


def test_ace_matches_sort_and_average_oracle():
    rng = random.Random(3)
    values = [rng.random() for _ in range(200)]
    for x in (0.5, 1, 2, 5, 25, 100):
        k = int(np.ceil(x / 100 * len(values)))
        expect = float(np.mean(sorted(values, reverse=True)[:k]))
        assert ace(x, values) == pytest.approx(expect)


def test_ace_rejects_bad_input():
    with pytest.raises(MetricError):
        ace(5, [])
    with pytest.raises(MetricError):
        ace(0, [0.5])
    with pytest.raises(MetricError):
        ace(101, [0.5])


def test_ace_monotone_in_percentage():
    rng = random.Random(11)
    for _ in range(20):
        values = [rng.random() for _ in range(rng.randint(5, 300))]
        aces = [ace(x, values) for x in (0.5, 1, 2, 5, 10, 50, 100)]
        assert aces == sorted(aces, reverse=True)


def test_wace4_hand_computed():
    # 100 entries: ACE(0.5)=ACE(1)=0.9, ACE(2)=(0.9+0.7)/2, ACE(5)=mean of top 5
    values = [0.9, 0.7, 0.6, 0.5, 0.4] + [0.1] * 95
    expect = (0.9 + 0.9 + 0.8 + (0.9 + 0.7 + 0.6 + 0.5 + 0.4) / 5) / 4
    assert wace4(values) == pytest.approx(expect)


def test_wace4_within_value_range():
    rng = random.Random(23)
    for _ in range(20):
        values = [rng.random() for _ in range(rng.randint(4, 200))]
        w = wace4(values)
        assert min(values) <= w <= max(values)


def _routed_report(n=10, k=30, seed=2, config="FCN"):
    fp = generate_random_floorplan(n, k, 4, seed=seed)
    run = route_floorplan(fp, RunConfig.from_name(config))
    return run, summarize(run)


def test_snapshot_entries_in_unit_interval():
    run, _ = _routed_report()
    snap = snapshot(run.state)
    entries = [p for row in snap for p in row]
    assert entries
    assert min(entries) >= 0.0
    assert max(entries) <= 1.0
    usable = sum(1 for s in run.state.region.graph.segments if s.r > 0)
    assert (len(snap), {len(row) for row in snap}) == (usable, {run.state.config.profile.layers})


def test_snapshot_matches_loop_reference():
    # the reserved model forbids every segment half of the layers, which read 0
    run, _ = _routed_report(n=12, k=80, seed=3, config="FCH")
    state = run.state
    usable = [seg for seg in state.region.graph.segments if seg.r > 0]
    profile = state.config.profile
    snap = snapshot(state)
    assert (len(snap), {len(row) for row in snap}) == (len(usable), {profile.layers})
    for layer, got in enumerate(zip(*snap), start=1):
        expect = [state.usage[seg.id].u[layer - 1] / capacity_at(profile, seg.r, layer) for seg in usable]
        assert list(got) == expect


def test_summarize_zero_nets():
    fp = generate_random_floorplan(5, 0, 2, seed=1)
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    report = summarize(run)
    assert report.totals["routed_pct"] == 100.0
    assert report.totals["wirelength"] == 0.0
    assert report.totals["vias"] == 0
    assert report.nets == []


def test_summarize_exact_two_block_net():
    # pins at the block centers; the only route runs pin -> wall junction -> pin
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    fp.nets.append(_net([(1.0, 1.0), (3.0, 1.0)]))
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    report = summarize(run)
    assert report.totals["routed"] == 1
    assert report.totals["wirelength"] == pytest.approx(4.0)
    assert report.totals["vias"] == 0


def test_summarize_totals_match_per_net_records():
    run, report = _routed_report(n=12, k=40, seed=5)
    assert report.totals["routed"] == sum(1 for r in report.nets if r["status"] == "ROUTED")
    assert report.totals["wirelength"] == pytest.approx(
        sum(r["wirelength"] for r in report.nets if r["status"] == "ROUTED"))
    assert report.totals["vias"] == sum(r["vias"] for r in report.nets if r["status"] == "ROUTED")
    assert report.totals["routed_pct"] == pytest.approx(
        100.0 * report.totals["routed"] / report.totals["nets"])


def test_summarize_congestion_fields():
    run, report = _routed_report(n=12, k=60, seed=7)
    per_layer = report.congestion["wace4_per_layer"]
    assert len(per_layer) == run.state.config.profile.layers
    assert report.congestion["wace4_max"] == pytest.approx(max(per_layer))
    assert all(0.0 <= w <= 1.0 for w in per_layer)
    snap = snapshot(run.state)
    assert report.congestion["wace4_all"] == pytest.approx(wace4([p for row in snap for p in row]))


def test_report_json_and_csv_agree():
    _, report = _routed_report(n=10, k=25, seed=3)
    payload = json.loads(report.to_json())
    rows = list(csv.DictReader(io.StringIO(report.nets_csv())))
    assert len(rows) == len(payload["nets"])
    for row, net in zip(rows, payload["nets"]):
        assert int(row["id"]) == net["id"]
        assert row["name"] == net["name"]
        assert row["status"] == net["status"]
        assert float(row["wirelength"]) == pytest.approx(net["wirelength"], abs=1e-6)
        assert int(row["vias"]) == net["vias"]
        assert float(row["hpwl"]) == pytest.approx(net["hpwl"], abs=1e-6)
    summary = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(report.summary_csv()))}
    assert summary["totals.routed"] == str(payload["totals"]["routed"])
    assert summary["instance.hash"] == payload["instance"]["hash"]
    assert summary["config.name"] == payload["config"]["name"]
    assert float(summary["totals.wirelength"]) == pytest.approx(payload["totals"]["wirelength"])


def test_write_report_rejects_an_unknown_format(tmp_path):
    _, report = _routed_report()
    with pytest.raises(ValueError, match="'jsn'"):
        write_report(report, tmp_path / "out", "X", "jsn")
    assert not (tmp_path / "out").exists()


def test_report_canonical_excludes_timing_on_request():
    _, report = _routed_report()
    with_timing = report.canonical_dict(include_timing=True)
    without = report.canonical_dict(include_timing=False)
    assert "runtime_seconds" in with_timing["totals"]
    assert "runtime_seconds" not in without["totals"]


def test_reports_share_instance_hash_across_configs():
    fp = generate_random_floorplan(8, 16, 3, seed=4)
    hashes = set()
    for name in ("FCN", "FCH", "FCL", "BCN", "BCH", "BCL"):
        report = summarize(route_floorplan(fp, RunConfig.from_name(name)))
        hashes.add(report.instance["hash"])
        assert report.config["name"] == name
    assert len(hashes) == 1


def test_report_bytes_do_not_depend_on_a_compensated_builtin_sum(monkeypatch):
    # Python 3.12 made the builtin float sum compensated (Neumaier); the report
    # must read the same on every version, so no float reaches it through `sum`
    builtin_sum = builtins.sum

    def neumaier_sum(values, start=0):
        values = list(values)
        if not any(isinstance(v, float) for v in values):
            return builtin_sum(values, start)
        total, compensation = float(start), 0.0
        for v in values:
            t = total + v
            compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
            total = t
        return total + compensation

    def report_json():
        fp = generate_random_floorplan(20, 109, 6, seed=1000)
        return summarize(route_floorplan(fp, RunConfig.from_name("FCN", layers=2))).to_json(include_timing=False)

    expected = report_json()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert report_json() == expected
