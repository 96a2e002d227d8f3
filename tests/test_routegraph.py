"""Capacity profiles, the layer rule of a run, junction graph and GSRG construction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msroute.adjacency import Axis, TJunction, all_junctions
from msroute.errors import InternalError, PinHostError
from msroute.floorplan import Net, Pin, compute_hpwl, generate_random_floorplan
from msroute.routegraph import (
    UNUSABLE,
    CapacityProfile,
    LayerModel,
    ProfileKind,
    RegionModel,
    _point_interval_dist,
    build_gsrg,
    build_junction_graph,
    capacity_at,
    capacity_row,
    effective_layer,
    pin_edge_weights,
)
from msroute import router
from msroute.router import RoutingState, RunConfig, SearchDir
from msroute.staircase import BalanceMode, Segment, build_msc_tree, extract_segments

from test_floorplan import make_fp


def make_seg(seg_id=0, axis=Axis.H, length=100.0, r=10, j1=0, j2=1):
    return Segment(id=seg_id, region_id=0, axis=axis, fixed=0.0, lo=0.0, hi=length, j1=j1, j2=j2, r=r)


def hand_state(segments, profile, junctions=None, search=SearchDir.FWD):
    """A run over hand-built segments, made by the constructors RegionModel.build
    and route_floorplan use; junctions default to one per referenced id."""
    if junctions is None:
        n = 1 + max(max(seg.j1, seg.j2) for seg in segments)
        junctions = [TJunction(i, float(i), 0.0) for i in range(n)]
    region = RegionModel(fp=None, balance=BalanceMode.NUMBER, tree=None,
                         junctions=junctions, segments=segments,
                         graph=build_junction_graph(segments, junctions))
    return RoutingState.prepare(region, RunConfig(search, profile))


UNIFORM8 = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.UNRESERVED)


# ---------------------------------------------------------------------------
# capacity profiles

def test_capacity_at_examples():
    assert capacity_at(CapacityProfile(ProfileKind.UNIFORM, 8), 8, 5) == 8
    assert capacity_at(CapacityProfile(ProfileKind.HYPERBOLIC, 8), 8, 4) == 2
    assert capacity_at(CapacityProfile(ProfileKind.LADDER, 8), 8, 3) == 4


def test_capacity_layer_one_equals_r():
    for kind in ProfileKind:
        profile = CapacityProfile(kind, 8)
        for r in (1, 3, 8, 64):
            assert capacity_at(profile, r, 1) == r


def test_capacity_non_increasing_in_layer():
    for kind in ProfileKind:
        profile = CapacityProfile(kind, 8)
        for r in range(1, 65):
            caps = [capacity_at(profile, r, l) for l in range(1, 9)]
            assert caps == sorted(caps, reverse=True)


def test_profile_ordering():
    for r in range(1, 65):
        for layer in range(1, 9):
            hyp = capacity_at(CapacityProfile(ProfileKind.HYPERBOLIC, 8), r, layer)
            lad = capacity_at(CapacityProfile(ProfileKind.LADDER, 8), r, layer)
            uni = capacity_at(CapacityProfile(ProfileKind.UNIFORM, 8), r, layer)
            assert hyp <= lad <= uni


def test_capacity_layer_out_of_range():
    profile = CapacityProfile(ProfileKind.UNIFORM, 4)
    with pytest.raises(ValueError):
        capacity_at(profile, 8, 5)
    with pytest.raises(ValueError):
        capacity_at(profile, 8, 0)


@pytest.mark.parametrize("layers", [0, -2])
def test_profile_rejects_fewer_than_one_layer(layers):
    with pytest.raises(ValueError, match=f"got {layers}"):
        CapacityProfile(ProfileKind.UNIFORM, layers)


# ---------------------------------------------------------------------------
# edge weight and layers: usage changes only through RoutingState.charge

def test_edge_weight_zero_usage_is_length():
    state = hand_state([make_seg(length=100.0, r=10)], UNIFORM8)
    assert state.weight[0] == pytest.approx(100.0)


def test_edge_weight_half_full_doubles():
    state = hand_state([make_seg(length=100.0, r=10)], UNIFORM8)
    for _ in range(5):
        state.charge(0)
    assert state.usage[0].u[0] == 5
    assert state.weight[0] == pytest.approx(200.0)


def test_edge_weight_unusable_at_top_layer():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    state = hand_state([make_seg(length=100.0, r=3)], profile)
    for _ in range(3):
        state.charge(0)
    assert state.weight[0] == UNUSABLE
    assert math.isinf(state.weight[0])


def test_edge_weight_strictly_increasing_in_usage():
    state = hand_state([make_seg(length=50.0, r=10)], UNIFORM8)
    last = 0.0
    for u in range(10):
        assert state.usage[0].u[0] == u
        assert state.weight[0] > last
        last = state.weight[0]
        state.charge(0)


def test_zero_capacity_segment_is_unusable():
    state = hand_state([make_seg(r=0)], UNIFORM8)
    assert state.weight[0] == UNUSABLE


def test_advance_layer_reserved_parity():
    # a full horizontal layer advances to the next odd layer
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.RESERVED_HV)
    state = hand_state([make_seg(axis=Axis.H, r=2)], profile)
    assert [state.charge(0) for _ in range(2)] == [1, 1]
    assert effective_layer(state.usage[0]) == 3
    assert state.charge(0) == 3
    assert state.usage[0].curr_layer == 3


def test_advance_layer_unreserved_increments():
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.UNRESERVED)
    state = hand_state([make_seg(axis=Axis.V, r=1)], profile)
    assert [state.charge(0) for _ in range(2)] == [1, 2]
    assert state.usage[0].curr_layer == 2
    assert effective_layer(state.usage[0]) == 3
    assert state.charge(0) == 3


def test_advance_layer_saturated():
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.RESERVED_HV)
    state = hand_state([make_seg(axis=Axis.H, r=1)], profile)
    assert [state.charge(0) for _ in range(4)] == [1, 3, 5, 7]
    assert effective_layer(state.usage[0]) is None
    assert state.weight[0] == UNUSABLE
    with pytest.raises(InternalError):
        state.charge(0)
    assert state.usage[0].curr_layer == 7


def test_advance_layer_requires_saturation():
    # a layer with room left keeps every charge
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.UNRESERVED)
    state = hand_state([make_seg(r=5)], profile)
    for _ in range(4):
        assert state.charge(0) == 1
        assert effective_layer(state.usage[0]) == 1
    assert state.charge(0) == 1
    assert state.usage[0].curr_layer == 1
    assert effective_layer(state.usage[0]) == 2


def test_reserved_vertical_segments_start_on_layer_two():
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.RESERVED_HV)
    state = hand_state([make_seg(axis=Axis.V, r=1)], profile)
    assert state.usage[0].curr_layer == 2
    assert effective_layer(state.usage[0]) == 2


def test_reserved_vertical_with_single_layer_is_unusable():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.RESERVED_HV)
    state = hand_state([make_seg(axis=Axis.V, r=5)], profile)
    assert effective_layer(state.usage[0]) is None
    assert state.weight[0] == UNUSABLE


def test_charge_fills_then_advances():
    profile = CapacityProfile(ProfileKind.HYPERBOLIC, 4, LayerModel.UNRESERVED)
    state = hand_state([make_seg(r=2)], profile)
    layers = [state.charge(0) for _ in range(4)]
    # capacities: 2, 1, 1, 1
    assert layers == [1, 1, 2, 3]
    assert state.usage[0].curr_layer == 3
    for layer in range(1, 5):
        assert state.usage[0].u[layer - 1] <= capacity_at(profile, 2, layer)


def test_charge_weight_reflects_next_free_layer():
    # a full layer quotes the next layer's (empty) congestion, same length
    profile = CapacityProfile(ProfileKind.UNIFORM, 2, LayerModel.UNRESERVED)
    state = hand_state([make_seg(length=70.0, r=1)], profile)
    state.charge(0)
    assert state.weight[0] == pytest.approx(70.0)


def test_capacity_table_reads_the_profile_and_layer_model():
    profile = CapacityProfile(ProfileKind.LADDER, 6, LayerModel.RESERVED_HV)
    state = hand_state([make_seg(0, Axis.H, r=8), make_seg(1, Axis.V, r=8), make_seg(2, r=0)], profile)
    assert [usage.cap for usage in state.usage] == [[8, 0, 4, 0, 2, 0], [0, 8, 0, 4, 0, 2], [0] * 6]


def test_prepare_builds_one_capacity_row_per_r_and_axis(monkeypatch):
    rows = []
    monkeypatch.setattr(router, "capacity_row", lambda *args: rows.append(args[1:]) or capacity_row(*args))
    segments = [make_seg(i, axis, r=r, j1=i, j2=i + 1)
                for i, (axis, r) in enumerate([(Axis.H, 3), (Axis.V, 3), (Axis.H, 3), (Axis.H, 5), (Axis.V, 3)])]
    state = hand_state(segments, CapacityProfile(ProfileKind.HYPERBOLIC, 4))
    assert rows == [(3, Axis.H), (3, Axis.V), (5, Axis.H)]
    assert state.usage[0].cap == state.usage[2].cap == [3, 0, 1, 0]
    state.usage[0].cap[0] = 0
    assert state.usage[2].cap == [3, 0, 1, 0]  # every usage owns its row


# ---------------------------------------------------------------------------
# junction graph

def _segments(fp, r_of):
    """The floorplan's segments with r = r_of(segment) instead of its net count."""
    tree = build_msc_tree(fp)
    junctions = all_junctions(fp)
    segments = extract_segments(tree, fp, junctions)
    for seg in segments:
        seg.r = r_of(seg)
    return junctions, segments


def _prepared(fp):
    """A run over fp's junction graph where every interior wall has r = 1."""
    junctions, segments = _segments(fp, lambda seg: 1 if seg.region_id >= 0 else 0)
    return hand_state(segments, UNIFORM8, junctions)


def test_junction_graph_two_blocks():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    region = _prepared(fp).region
    jg = region.graph
    assert len(jg.adj) == 6
    interior = next(s for s in region.segments if s.region_id >= 0)
    assert jg.usable == [interior.id]  # only the interior wall is usable
    assert jg.adj[interior.j1] == [(interior.j2, interior.id)]
    assert jg.adj[interior.j2] == [(interior.j1, interior.id)]


def test_junction_graph_node_count_matches_junctions():
    fp = generate_random_floorplan(10, 0, 2, seed=2)
    region = _prepared(fp).region
    assert len(region.graph.adj) == len(region.junctions) == (2 * 10 - 2) + 4
    assert region.graph.usable == [seg.id for seg in region.segments if seg.r > 0]


def test_junction_graph_zero_capacity_everywhere():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions, segments = _segments(fp, lambda seg: 0)
    jg = build_junction_graph(segments, junctions)
    assert len(jg.adj) == 6 and jg.usable == []


# ---------------------------------------------------------------------------
# GSRG

def host_segment(jg, x, y):
    """Oracle for JunctionGraph.host: every usable segment in id order; the
    nearest by Euclidean point-to-wall distance wins, ties to the lower id."""
    best = None
    best_d = math.inf
    usable = set(jg.usable)
    for seg in jg.segments:
        if seg.id not in usable:
            continue
        d = _point_interval_dist(seg, x, y)
        if d < best_d - 1e-12:
            best, best_d = seg, d
    if best is None:
        raise PinHostError("no usable segment to host the pin")
    return best


def _net_on(fp, points):
    pins = [Pin(net_id=0, block_id=0, dx=0, dy=0, x=x, y=y) for x, y in points]
    net = Net(id=0, name="n0", pins=pins)
    net.hpwl = compute_hpwl(net)
    return net


def test_gsrg_two_pin_net_has_two_attachments():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    state = _prepared(fp)
    net = _net_on(fp, [(1.0, 1.0), (3.0, 1.0)])
    gsrg = build_gsrg(state.region.graph, net)
    assert len(gsrg.pins) == 2
    weights = [w for att in gsrg.pins for w in pin_edge_weights(att, state.penalty)]
    assert len(weights) == 4 and all(w < UNUSABLE for w in weights)


def test_gsrg_five_pin_net_has_ten_edges():
    fp = generate_random_floorplan(10, 0, 2, seed=3)
    jg = _prepared(fp).region.graph
    import random
    rng = random.Random(0)
    net = _net_on(fp, [(rng.uniform(0, fp.width), rng.uniform(0, fp.height)) for _ in range(5)])
    gsrg = build_gsrg(jg, net)
    assert len(gsrg.pins) == 5
    assert sum(2 for _ in gsrg.pins) == 10


def test_gsrg_pin_on_junction_gets_near_zero_edge():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    state = _prepared(fp)
    net = _net_on(fp, [(2.0, 0.0), (2.0, 2.0)])  # exactly on the wall's junctions
    gsrg = build_gsrg(state.region.graph, net)
    w1, w2 = pin_edge_weights(gsrg.pins[0], state.penalty)
    assert min(w1, w2) == pytest.approx(0.0)
    assert max(w1, w2) == pytest.approx(2.0)


def test_gsrg_host_distances_are_manhattan():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    jg = _prepared(fp).region.graph
    net = _net_on(fp, [(1.0, 0.5), (3.0, 1.5)])
    gsrg = build_gsrg(jg, net)
    att = gsrg.pins[0]
    # host wall is x=2, y in [0,2]; junction order is (lo, hi)
    assert att.d1 == pytest.approx(1.0 + 0.5)
    assert att.d2 == pytest.approx(1.0 + 1.5)


def test_gsrg_host_prefers_lower_id_on_ties():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    # give the (otherwise unusable) border walls capacity so several hosts tie
    junctions, segments = _segments(fp, lambda seg: max(seg.r, 1))
    jg = build_junction_graph(segments, junctions)

    interior = next(s for s in segments if s.region_id >= 0)
    assert host_segment(jg, 2.0, 1.0).id == interior.id  # distance 0, unique
    # the left block's center ties between several walls at distance 1.0
    host = host_segment(jg, 1.0, 1.0)
    tied = [s.id for s in segments
            if s.id in jg.usable and _point_interval_dist(s, 1.0, 1.0) == pytest.approx(1.0)]
    assert len(tied) > 1
    assert host.id == min(tied)


_NUDGES = (0.0, 1e-13, -1e-13, 6e-13, -6e-13, 3e-12, -3e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 10_000), all_walls=st.booleans(), data=st.data())
def test_indexed_host_matches_the_scan(n, seed, all_walls, data):
    """JunctionGraph.host picks what the full scan picks: on walls, on
    junctions, at equal distance from two walls (nudged by less and by more
    than the 1e-12 tie margin), and at pin offsets away from block centres."""
    fp = generate_random_floorplan(n, 0, 2, seed=seed)
    # with every wall usable, block centres tie between opposite walls
    junctions, segments = _segments(fp, (lambda seg: 1) if all_walls else
                                    (lambda seg: 1 if seg.region_id >= 0 else 0))
    jg = build_junction_graph(segments, junctions)
    usable = [segments[sid] for sid in jg.usable]
    draw = data.draw
    nudge = st.sampled_from(_NUDGES)
    points = []
    for _ in range(12):
        j = draw(st.sampled_from(junctions))
        points.append((j.x + draw(nudge), j.y))
        seg = draw(st.sampled_from(usable))
        along = seg.lo + draw(st.floats(0, 1)) * seg.length
        points.append((seg.fixed, along) if seg.axis is Axis.V else (along, seg.fixed))
        block = draw(st.sampled_from(fp.blocks))
        cx, cy = block.center
        points.append((cx + draw(nudge), cy + draw(nudge)))
        # a parsed pin: the centre plus an offset, up to the block's walls
        fx, fy = draw(st.floats(-0.5, 0.5)), draw(st.sampled_from((-0.5, 0.0, 0.5)))
        points.append((cx + fx * block.width, cy + fy * block.height))
        a, b = draw(st.sampled_from(usable)), draw(st.sampled_from(usable))
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if a.axis is b.axis and lo <= hi:
            # halfway between two parallel walls whose spans overlap
            mid = (a.fixed + b.fixed) / 2 + draw(nudge)
            along = lo + draw(st.floats(0, 1)) * (hi - lo)
            points.append((mid, along) if a.axis is Axis.V else (along, mid))
        points.append((draw(st.floats(-1.0, fp.width + 1.0)), draw(st.floats(-1.0, fp.height + 1.0))))
    for x, y in points:
        assert jg.host(x, y) is host_segment(jg, x, y), (x, y)


def test_gsrg_reversibility():
    fp = generate_random_floorplan(8, 0, 2, seed=1)
    jg = _prepared(fp).region.graph
    adj_before = [list(lst) for lst in jg.adj]
    usable_before = list(jg.usable)
    net = _net_on(fp, [(1.0, 1.0), (fp.width - 1.0, fp.height - 1.0)])
    build_gsrg(jg, net)
    assert jg.adj == adj_before
    assert jg.usable == usable_before


def test_gsrg_no_usable_host_raises():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions, segments = _segments(fp, lambda seg: 0)
    jg = build_junction_graph(segments, junctions)
    with pytest.raises(PinHostError):
        build_gsrg(jg, _net_on(fp, [(0.5, 0.5), (1.5, 0.5)]))
