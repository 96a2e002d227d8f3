"""Routing: ordering, decomposition, shortest paths, rollback, vias."""

import hashlib
import heapq
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msroute.adjacency import Axis, TJunction, all_junctions
from msroute.floorplan import Net, Pin, compute_hpwl, generate_random_floorplan
from msroute import router
from msroute.metrics import summarize
from msroute.routegraph import (
    UNUSABLE,
    CapacityProfile,
    Gsrg,
    LayerModel,
    PinAttachment,
    ProfileKind,
    RegionModel,
    build_gsrg,
    build_junction_graph,
    capacity_at,
    effective_layer,
    layer_permitted,
    pin_edge_weights,
)
from msroute.router import (
    PRESETS,
    RoutePath,
    RoutingState,
    RunConfig,
    SearchDir,
    count_vias,
    decompose_net,
    dijkstra_ssp,
    identify_source,
    identify_steiner_points,
    order_nets,
    route_all,
    route_floorplan,
    route_net,
)
from msroute.staircase import BalanceMode, Segment, build_msc_tree, extract_segments, segments_csv, tree_text

from test_floorplan import make_fp
from test_routegraph import hand_state, host_segment


def _pin(x, y, net_id=0, block_id=0):
    return Pin(net_id=net_id, block_id=block_id, dx=0, dy=0, x=x, y=y)


def _net(points, net_id=0, name=None):
    net = Net(id=net_id, name=name or f"n{net_id}", pins=[_pin(x, y, net_id) for x, y in points])
    net.hpwl = compute_hpwl(net)
    return net


# ---------------------------------------------------------------------------
# ordering and source selection

def test_order_nets_hpwl_then_degree():
    nets = [_net([(0, 0), (5, 5), (2, 2)], 0),       # hpwl 10, degree 3
            _net([(0, 0), (5, 5)], 1),               # hpwl 10, degree 2
            _net([(0, 0), (12, 8)], 2)]              # hpwl 20, degree 2
    assert [n.id for n in order_nets(nets)] == [1, 0, 2]


def test_order_nets_equal_keys_keep_id_order():
    nets = [_net([(0, 0), (3, 3)], i) for i in (2, 0, 1)]
    assert [n.id for n in order_nets(nets)] == [0, 1, 2]


def test_order_nets_empty():
    assert order_nets([]) == []


def test_identify_source_examples():
    a, b = _pin(1, 5), _pin(4, 2)
    assert identify_source(a, b, SearchDir.FWD)[0] is a
    assert identify_source(a, b, SearchDir.BACK)[0] is b
    c, d = _pin(2, 1), _pin(2, 9)
    assert identify_source(c, d, SearchDir.FWD)[0] is c
    assert identify_source(c, d, SearchDir.BACK)[0] is d
    e, f = _pin(3, 3), _pin(3, 3)
    assert identify_source(e, f, SearchDir.FWD)[0] is e
    assert identify_source(e, f, SearchDir.BACK)[0] is f


# ---------------------------------------------------------------------------
# multi-terminal decomposition

def test_decompose_forced_triangle():
    net = _net([(0, 0), (3, 0), (3, 4)])
    pairs = decompose_net(net)
    assert sorted(tuple(sorted(p)) for p in pairs) == [(0, 1), (1, 2)]
    total = sum(abs(net.pins[i].x - net.pins[j].x) + abs(net.pins[i].y - net.pins[j].y)
                for i, j in pairs)
    assert total == pytest.approx(7.0)


def test_decompose_collinear_chain():
    net = _net([(0, 0), (1, 0), (2, 0), (3, 0)])
    pairs = decompose_net(net)
    assert sorted(tuple(sorted(p)) for p in pairs) == [(0, 1), (1, 2), (2, 3)]


def _prufer_decode(seq, t):
    degree = [1] * t
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        for leaf in range(t):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    rest = [v for v in range(t) if degree[v] == 1]
    edges.append((rest[0], rest[1]))
    return edges


def _mst_brute_force(net):
    t = net.degree
    best = None
    for seq in itertools.product(range(t), repeat=t - 2):
        weight = sum(
            abs(net.pins[i].x - net.pins[j].x) + abs(net.pins[i].y - net.pins[j].y)
            for i, j in _prufer_decode(seq, t))
        if best is None or weight < best:
            best = weight
    return best


def test_decompose_matches_spanning_tree_enumeration():
    rng = random.Random(13)
    for _ in range(12):
        t = rng.randint(3, 6)
        net = _net([(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(t)])
        pairs = decompose_net(net)
        assert len(pairs) == t - 1
        total = sum(abs(net.pins[i].x - net.pins[j].x) + abs(net.pins[i].y - net.pins[j].y)
                    for i, j in pairs)
        assert total == pytest.approx(_mst_brute_force(net))
        keys = [(abs(net.pins[i].x - net.pins[j].x) + abs(net.pins[i].y - net.pins[j].y), i, j) for i, j in pairs]
        assert all(i < j for _, i, j in keys) and keys == sorted(keys)


def test_decompose_deterministic():
    net = _net([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert decompose_net(net) == decompose_net(net)


# ---------------------------------------------------------------------------
# Dijkstra against exhaustive path enumeration

def _random_gsrg(rng, n_junctions, profile):
    """Random connected junction graph with random usage, plus 2 pins; returns
    the GSRG and the run holding the usage."""
    junctions = [TJunction(id=i, x=float(i), y=0.0) for i in range(n_junctions)]
    segments = []

    def add_seg(a, b):
        seg = Segment(id=len(segments), region_id=0, axis=Axis.H, fixed=0.0,
                      lo=0.0, hi=rng.uniform(1.0, 20.0), j1=a, j2=b)
        seg.r = rng.randint(1, 4)
        segments.append(seg)

    for b in range(1, n_junctions):
        add_seg(rng.randrange(b), b)
    extra = rng.randint(0, n_junctions)
    for _ in range(extra):
        a, b = rng.sample(range(n_junctions), 2)
        add_seg(a, b)
    state = hand_state(segments, profile, junctions)
    for seg in segments:
        # mostly partial usage; occasional saturation exercises edge skipping
        for _ in range(seg.r if rng.random() < 0.15 else rng.randint(0, seg.r - 1)):
            state.charge(seg.id)
    src_host, dst_host = rng.randrange(len(segments)), rng.randrange(len(segments))
    pins = [
        PinAttachment(src_host, rng.uniform(0, 5), rng.uniform(0, 5)),
        PinAttachment(dst_host, rng.uniform(0, 5), rng.uniform(0, 5)),
    ]
    return Gsrg(pins=pins), state


def brute_force_shortest(gsrg, state):
    """Minimum weight over all simple source->sink junction paths."""
    jg = state.region.graph
    src, dst = gsrg.pins
    src_seg, dst_seg = jg.segments[src.host_seg], jg.segments[dst.host_seg]
    sw = pin_edge_weights(src, state.penalty)
    dw = pin_edge_weights(dst, state.penalty)
    sink_w = {}
    for j, w in ((dst_seg.j1, dw[0]), (dst_seg.j2, dw[1])):
        if w != float("inf"):
            sink_w[j] = min(w, sink_w.get(j, float("inf")))
    best = [float("inf")]

    def dfs(j, cost, visited):
        if j in sink_w:
            best[0] = min(best[0], cost + sink_w[j])
        for nb, sid in jg.adj[j]:
            if nb in visited:
                continue
            w = state.weight[sid]
            if w == float("inf"):
                continue
            dfs(nb, cost + w, visited | {nb})

    for j, w in ((src_seg.j1, sw[0]), (src_seg.j2, sw[1])):
        if w != float("inf"):
            dfs(j, w, {j})
    return best[0]


def test_dijkstra_matches_path_enumeration():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        gsrg, state = _random_gsrg(rng, rng.randint(4, 12), profile)
        expect = brute_force_shortest(gsrg, state)
        path = dijkstra_ssp(gsrg, state, 0, 1)
        if path is None:
            assert expect == float("inf")
        else:
            assert path.weight == pytest.approx(expect)
            checked += 1
    assert checked > 20


def test_dijkstra_single_edge():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    junctions = [TJunction(0, 0.0, 0.0), TJunction(1, 10.0, 0.0)]
    seg = Segment(id=0, region_id=0, axis=Axis.H, fixed=0.0, lo=0.0, hi=10.0, j1=0, j2=1, r=1)
    state = hand_state([seg], profile, junctions)
    # off-wall escape distances so the traversal is strictly cheapest
    gsrg = Gsrg([
        PinAttachment(0, 1.0, 30.0),
        PinAttachment(0, 30.0, 1.0),
    ])
    path = dijkstra_ssp(gsrg, state, 0, 1)
    assert path.weight == pytest.approx(12.0)
    assert path.segments == [0]
    assert path.junctions == [0, 1]


def test_dijkstra_unreachable_sink():
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    junctions = [TJunction(i, float(i), 0.0) for i in range(4)]
    segs = []
    for sid, (a, b) in enumerate([(0, 1), (2, 3)]):  # two disconnected edges
        segs.append(Segment(id=sid, region_id=0, axis=Axis.H, fixed=0.0, lo=0.0, hi=5.0, j1=a, j2=b, r=1))
    state = hand_state(segs, profile, junctions)
    gsrg = Gsrg([
        PinAttachment(0, 1.0, 1.0),
        PinAttachment(1, 1.0, 1.0),
    ])
    assert dijkstra_ssp(gsrg, state, 0, 1) is None


# ---------------------------------------------------------------------------
# A* against a plain Dijkstra

def plain_dijkstra(gsrg, state, source_pin, sink_pin):
    """Reference for dijkstra_ssp: Dijkstra popping (distance, junction), no
    bound; a relaxation that only ties keeps the earlier predecessor, and of
    equal finishes the lower junction wins."""
    jg = state.region.graph
    src, dst = gsrg.pins[source_pin], gsrg.pins[sink_pin]
    src_seg, dst_seg = jg.segments[src.host_seg], jg.segments[dst.host_seg]
    sw = pin_edge_weights(src, state.penalty)
    dw = pin_edge_weights(dst, state.penalty)
    sink_w = {}
    for j, w in ((dst_seg.j1, dw[0]), (dst_seg.j2, dw[1])):
        if w != UNUSABLE:
            sink_w[j] = min(w, sink_w.get(j, UNUSABLE))
    dist = [math.inf] * len(jg.adj)
    pred = [(-1, -1)] * len(jg.adj)
    heap = []
    for j, w in ((src_seg.j1, sw[0]), (src_seg.j2, sw[1])):
        if w != UNUSABLE and w < dist[j]:
            dist[j] = w
            heapq.heappush(heap, (w, j))
    best, best_j = math.inf, -1
    while heap:
        d, j = heapq.heappop(heap)
        if d > dist[j]:
            continue
        if d > best:
            break
        if j in sink_w and (d + sink_w[j], j) < (best, best_j if best_j >= 0 else math.inf):
            best, best_j = d + sink_w[j], j
        for nb, sid in jg.adj[j]:
            nd = d + state.weight[sid]
            if nd < dist[nb]:
                dist[nb], pred[nb] = nd, (j, sid)
                heapq.heappush(heap, (nd, nb))
    if best_j < 0:
        return None
    seq_j, seq_s = [best_j], []
    while pred[seq_j[-1]][0] != -1:
        j, sid = pred[seq_j[-1]]
        seq_s.append(sid)
        seq_j.append(j)
    seq_j.reverse()
    seq_s.reverse()
    entry = src.d1 if seq_j[0] == src_seg.j1 else src.d2
    exit_ = dst.d1 if best_j == dst_seg.j1 else dst.d2
    return RoutePath(source_pin, sink_pin, seq_j, seq_s,
                     entry, exit_, sum(jg.segments[s].length for s in seq_s) + entry + exit_, best)


def _grid_gsrg(rng, cols, rows, layers):
    """A cols x rows grid of junctions with shuffled ids and integer spacing;
    each grid edge is a segment as long as the L1 distance of its junctions,
    so equal-weight routes abound.  Some segments have no capacity, the rest
    random partial usage; the two pins sit on random segments."""
    xs = list(itertools.accumulate(rng.randint(1, 3) for _ in range(cols)))
    ys = list(itertools.accumulate(rng.randint(1, 3) for _ in range(rows)))
    ids = list(range(cols * rows))
    rng.shuffle(ids)
    at = {(c, r): ids[r * cols + c] for c in range(cols) for r in range(rows)}
    junctions = sorted((TJunction(at[c, r], float(xs[c]), float(ys[r])) for c, r in at), key=lambda j: j.id)
    segments = []
    for (c, r), j in sorted(at.items()):
        for dc, dr in ((1, 0), (0, 1)):
            if (c + dc, r + dr) not in at:
                continue
            axis, fixed, lo, hi = ((Axis.H, ys[r], xs[c], xs[c + 1]) if dc else
                                   (Axis.V, xs[c], ys[r], ys[r + 1]))
            segments.append(Segment(id=len(segments), region_id=0, axis=axis, fixed=float(fixed),
                                    lo=float(lo), hi=float(hi), j1=j, j2=at[c + dc, r + dr],
                                    r=0 if rng.random() < 0.15 else rng.randint(1, 4)))
    profile = CapacityProfile(ProfileKind.UNIFORM, layers, LayerModel.UNRESERVED)
    state = hand_state(segments, profile, junctions)
    for seg in segments:
        if seg.r and rng.random() < 0.3:
            for _ in range(rng.randint(1, seg.r * layers)):
                state.charge(seg.id)
    pins = []
    for idx in range(2):
        seg = rng.choice(segments)
        t, off = rng.randint(0, int(seg.length)), rng.randint(0, 2)
        pins.append(PinAttachment(seg.id, float(t + off), float(seg.length - t + off)))
    return Gsrg(pins=pins), state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), cols=st.integers(2, 9), rows=st.integers(1, 9), layers=st.integers(1, 2))
def test_astar_returns_the_dijkstra_path(seed, cols, rows, layers):
    gsrg, state = _grid_gsrg(random.Random(seed), cols, rows, layers)
    assert state.region.graph.kappa > 0.99  # the bound is live, not the kappa = 0 fallback
    for si, ti in ((0, 1), (1, 0)):
        assert dijkstra_ssp(gsrg, state, si, ti) == plain_dijkstra(gsrg, state, si, ti)


def test_astar_zero_length_segments_keep_dijkstra_predecessors():
    """Junctions 1, 2 and 0 share a point, joined by zero-length segments.
    Junction 0 ties junction 2's distance only after 2 was reached from 1, so
    it must not become 2's predecessor: 2 -> 0 -> 2 would be a loop."""
    profile = CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED)
    junctions = [TJunction(0, 5.0, 0.0), TJunction(1, 5.0, 0.0), TJunction(2, 5.0, 0.0),
                 TJunction(3, 6.0, 0.0), TJunction(4, 0.0, 0.0)]
    segs = [Segment(id=sid, region_id=0, axis=Axis.H, fixed=0.0, lo=lo, hi=hi, j1=a, j2=b, r=1)
            for sid, (a, b, lo, hi) in enumerate([(4, 1, 0.0, 5.0), (1, 2, 5.0, 5.0), (2, 0, 5.0, 5.0),
                                                 (2, 3, 5.0, 6.0)])]
    state = hand_state(segs, profile, junctions)
    gsrg = Gsrg([
        PinAttachment(0, 5.0, 0.0),
        PinAttachment(3, 5.0, 0.0),
    ])
    path = dijkstra_ssp(gsrg, state, 0, 1)
    assert path == plain_dijkstra(gsrg, state, 0, 1)
    assert path.junctions == [1, 2, 3]


@pytest.mark.parametrize("seed, name", [(0, "BCN"), (4, "FCN")])
def test_astar_run_reports_like_a_dijkstra_run(monkeypatch, seed, name):
    """A whole run reports byte-identically to one whose searches are the
    plain Dijkstra reference.  With kappa unshrunk these two runs differ."""
    fp = generate_random_floorplan(120, 653, 6, seed=seed)
    config = RunConfig.from_name(name)
    astar = summarize(route_floorplan(fp, config)).to_json(include_timing=False)
    monkeypatch.setattr(router, "dijkstra_ssp", plain_dijkstra)
    assert summarize(route_floorplan(fp, config)).to_json(include_timing=False) == astar


# ---------------------------------------------------------------------------
# via counting

def _path_with_layers(layers):
    return RoutePath(source_pin=0, sink_pin=1, junctions=[0] * (len(layers) + 1),
                     segments=list(range(len(layers))),
                     entry_dist=0.0, exit_dist=0.0, length=0.0, weight=0.0, layers=layers)


def test_count_vias_layer_one_only():
    assert count_vias(_path_with_layers([1, 1, 1])) == 0


def test_count_vias_mixed_layers():
    assert count_vias(_path_with_layers([1, 2, 2, 3])) == 4


def test_count_vias_empty_path():
    assert count_vias(_path_with_layers([])) == 0


# ---------------------------------------------------------------------------
# forward vs backward search on an engineered tie

def _ring_fixture():
    """Square ring of four walls with equal-weight top and bottom routes.

    The bottom wall's first layer is pre-filled so a route through it lands
    on layer 3 and pays vias; the top route stays on layer 1.
    """
    profile = CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.RESERVED_HV)
    junctions = [TJunction(0, 0.0, 0.0), TJunction(1, 0.0, 10.0),
                 TJunction(2, 10.0, 10.0), TJunction(3, 10.0, 0.0)]
    left = Segment(id=0, region_id=0, axis=Axis.V, fixed=0.0, lo=0.0, hi=10.0, j1=0, j2=1)
    right = Segment(id=1, region_id=0, axis=Axis.V, fixed=10.0, lo=0.0, hi=10.0, j1=3, j2=2)
    bottom = Segment(id=2, region_id=0, axis=Axis.H, fixed=0.0, lo=0.0, hi=10.0, j1=0, j2=3)
    top = Segment(id=3, region_id=0, axis=Axis.H, fixed=10.0, lo=0.0, hi=10.0, j1=1, j2=2)
    segments = [left, right, bottom, top]
    for seg in segments:
        seg.r = 1
    net = _net([(0.0, 5.0), (10.0, 5.0)])
    return profile, junctions, segments, net


def _ring_state(search):
    profile, junctions, segments, net = _ring_fixture()
    state = hand_state(segments, profile, junctions, search=search)
    state.charge(2)  # fills the bottom wall's layer 1 (r = 1)
    return state, net


def test_forward_and_backward_pick_different_ties():
    fwd_state, net = _ring_state(SearchDir.FWD)
    fwd = route_net(fwd_state, net)
    back_state, net2 = _ring_state(SearchDir.BACK)
    back = route_net(back_state, net2)
    assert fwd.status == back.status == "ROUTED"
    fwd_path, back_path = fwd.paths[0], back.paths[0]
    assert fwd_path.segments != back_path.segments
    assert fwd_path.weight == pytest.approx(back_path.weight)
    assert fwd.vias != back.vias
    assert {fwd.vias, back.vias} == {0, 4}


# ---------------------------------------------------------------------------
# Steiner merging

def _seg_line(sid, j1, j2, lo, hi):
    seg = Segment(id=sid, region_id=0, axis=Axis.H, fixed=0.0, lo=lo, hi=hi, j1=j1, j2=j2)
    seg.r = 1
    return seg


def test_identify_steiner_points_shared_prefix():
    # paths [s0, s1, s2] and [s0, s1, s3] diverge after the junction of s1/s2/s3
    segs = [_seg_line(0, 0, 1, 0, 1), _seg_line(1, 1, 2, 1, 2),
            _seg_line(2, 2, 3, 2, 3), _seg_line(3, 2, 4, 3, 4)]
    net = _net([(0, 0), (3, 0), (4, 0)])
    p1 = RoutePath(0, 1, junctions=[0, 1, 2, 3], segments=[0, 1, 2],
                   entry_dist=0.0, exit_dist=0.0, length=3.0, weight=3.0,
                   layers=[1, 1, 1])
    p2 = RoutePath(0, 2, junctions=[0, 1, 2, 4], segments=[0, 1, 3],
                   entry_dist=0.0, exit_dist=0.0, length=3.0, weight=3.0,
                   layers=[1, 1, 1])
    result = identify_steiner_points(net, [p1, p2], segs)
    assert result.segments == [0, 1, 2, 3]
    assert result.steiner_points == [2]
    assert result.wirelength == pytest.approx(sum(s.length for s in segs))
    assert result.wirelength <= p1.length + p2.length


def test_identify_steiner_points_pure_chain_has_none():
    segs = [_seg_line(0, 0, 1, 0, 1), _seg_line(1, 1, 2, 1, 2)]
    net = _net([(0, 0), (1, 0), (2, 0)])
    p1 = RoutePath(0, 1, junctions=[0, 1], segments=[0],
                   entry_dist=0.0, exit_dist=0.0, length=1.0, weight=1.0, layers=[1])
    p2 = RoutePath(1, 2, junctions=[1, 2], segments=[1],
                   entry_dist=0.0, exit_dist=0.0, length=1.0, weight=1.0, layers=[1])
    result = identify_steiner_points(net, [p1, p2], segs)
    assert result.steiner_points == []
    assert result.wirelength == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# rollback on partial multi-terminal failure

def with_capacities(region, r_of):
    """The region with each segment's r replaced by r_of(segment), its junction
    graph built again as RegionModel.build builds it."""
    segments = [replace(seg, r=r_of(seg)) for seg in region.segments]
    return replace(region, segments=segments, graph=build_junction_graph(segments, region.junctions))


def _starved(seg):
    return max(1, seg.r // 8) if seg.r > 0 else seg.r


def _t_mosaic_state(layers=1, bc_capacity=1):
    """A over B/C with one 3-pin net whose second pair crosses a full wall."""
    fp = make_fp([(0, 0, 1, 2), (1, 0, 1, 1), (1, 1, 1, 1)])
    net = Net(0, "n0", [
        Pin(0, 0, 0.5, -0.75, 1.0, 0.25),   # on the A|B wall
        Pin(0, 1, -0.5, 0.25, 1.0, 0.75),   # on the A|B wall
        Pin(0, 2, 0.5, 0.0, 2.0, 1.5),      # near the B|C wall
    ])
    net.hpwl = compute_hpwl(net)
    fp.nets.append(net)
    config = RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.UNIFORM, layers, LayerModel.UNRESERVED))
    region = RegionModel.build(fp)
    ab = next(s for s in region.segments if s.axis is Axis.V and s.fixed == 1.0 and s.lo == 0.0)
    ac = next(s for s in region.segments if s.axis is Axis.V and s.fixed == 1.0 and s.lo == 1.0)
    bc = next(s for s in region.segments if s.axis is Axis.H and s.fixed == 1.0)
    r = {ab.id: 5, ac.id: 5, bc.id: bc_capacity}
    state = RoutingState.prepare(with_capacities(region, lambda seg: r.get(seg.id, 0)), config)
    state.charge(bc.id)  # an earlier net already uses the B|C wall
    return state, net, (ab, ac, bc)


def _usage_snapshot(state):
    """Every segment's usage, current layer, weight and penalty, copied."""
    return [(list(usage.u), usage.curr_layer, state.weight[sid], state.penalty[sid])
            for sid, usage in enumerate(state.usage)]


def _failed_nets_leave_no_trace(fp, config):
    """Route fp's nets in order, checking that each failed net leaves every
    segment exactly as it found it; returns the number of failed nets."""
    state = RoutingState.prepare(RegionModel.build(fp), config)
    failed = 0
    for net in order_nets(fp.nets):
        before = _usage_snapshot(state)
        if route_net(state, net).status == "FAILED":
            failed += 1
            assert _usage_snapshot(state) == before, f"net {net.id}"
    return failed


def test_rollback_restores_usage_and_layer_exactly():
    """30 nets fail here, one of them after charging a segment that advanced a layer."""
    fp = generate_random_floorplan(12, 144, 6, seed=4)
    assert _failed_nets_leave_no_trace(fp, RunConfig.from_name("FCH", layers=4)) == 30


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 20), nets_per_block=st.integers(8, 12), seed=st.integers(0, 10_000),
       name=st.sampled_from(sorted(PRESETS)), layers=st.sampled_from([2, 4]))
def test_rollback_restores_usage_exactly(n, nets_per_block, seed, name, layers):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    _failed_nets_leave_no_trace(fp, RunConfig.from_name(name, layers=layers))


def test_route_net_rolls_back_partial_usage():
    state, net, (ab, ac, bc) = _t_mosaic_state(layers=1, bc_capacity=1)
    before = _usage_snapshot(state)
    result = route_net(state, net)
    assert result.status == "FAILED"
    assert result.failure_pair == (1, 2)
    assert _usage_snapshot(state) == before


def test_failed_net_routes_with_more_capacity():
    state, net, _ = _t_mosaic_state(layers=1, bc_capacity=2)
    assert route_net(state, net).status == "ROUTED"
    state, net, _ = _t_mosaic_state(layers=2, bc_capacity=1)
    assert route_net(state, net).status == "ROUTED"


def test_net_fails_when_its_pin_host_saturates():
    """A pin is bound to its host wall by geometry alone: once that wall is
    full the net fails, though a neighbouring wall still has room."""
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    junctions = all_junctions(fp)
    segments = extract_segments(build_msc_tree(fp), fp, junctions)
    for seg in segments:
        seg.r = 1
    net = _net([(1.5, 1.0), (3.5, 1.0)])  # 0.5 from the shared wall, 1.0 from the others
    state = hand_state(segments, CapacityProfile(ProfileKind.UNIFORM, 1, LayerModel.UNRESERVED), junctions)
    host = build_gsrg(state.region.graph, net).pins[0]
    wall = segments[host.host_seg]
    assert (wall.axis, wall.fixed) == (Axis.V, 2.0)
    state.charge(wall.id)
    assert pin_edge_weights(host, state.penalty) == (UNUSABLE, UNUSABLE)
    bottom = next(s for s in segments if s.axis is Axis.H and s.fixed == 0.0 and s.hi <= 2.0)
    assert state.weight[bottom.id] < UNUSABLE
    result = route_net(state, net)
    assert result.status == "FAILED" and result.failure_pair == (0, 1)


def test_two_pin_route_charges_each_path_segment_once():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    fp.nets.append(_net([(1.0, 1.0), (3.0, 1.0)]))
    state = RoutingState.prepare(RegionModel.build(fp), RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.UNIFORM)))
    result = route_net(state, fp.nets[0])
    assert result.status == "ROUTED"
    charged = [usage.u for usage in state.usage if sum(usage.u) > 0]
    assert charged, "the route must consume capacity"
    assert all(sum(u) == 1 for u in charged)


def test_three_pin_net_routes_two_pairs():
    fp = generate_random_floorplan(10, 0, 2, seed=4)
    net = _net([tuple(fp.blocks[i].center) for i in (0, 4, 8)])
    fp.nets.append(net)
    state = RoutingState.prepare(RegionModel.build(fp), RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.UNIFORM)))
    result = route_net(state, net)
    assert result.status == "ROUTED"
    assert len(result.paths) == 2


# ---------------------------------------------------------------------------
# whole-netlist routing

def test_route_all_zero_nets():
    fp = generate_random_floorplan(6, 0, 2, seed=0)
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    assert run.results == []
    report = summarize(run)
    assert report.totals["routed_pct"] == 100.0
    assert report.totals["wirelength"] == 0.0


def test_route_all_small_instance_full_routability():
    fp = generate_random_floorplan(10, 54, 4, seed=2)
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    report = summarize(run)
    assert report.totals["routed_pct"] == 100.0
    assert report.congestion["max_usage"] <= 1.0


def test_route_all_stress_fails_some_but_never_over_capacity():
    fp = generate_random_floorplan(10, 54, 4, seed=2)
    config = RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.HYPERBOLIC, 1, LayerModel.UNRESERVED))
    state = RoutingState.prepare(with_capacities(RegionModel.build(fp), _starved), config)
    run = route_all(state)
    statuses = {r.status for r in run.results}
    assert "FAILED" in statuses and "ROUTED" in statuses
    for seg in state.region.segments:
        if seg.r > 0:
            for layer in range(1, state.config.profile.layers + 1):
                assert state.usage[seg.id].u[layer - 1] <= capacity_at(state.config.profile, seg.r, layer)


def test_routed_paths_are_connected_chains():
    fp = generate_random_floorplan(12, 40, 4, seed=5)
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    region = run.state.region
    segs = region.segments
    for result, net in zip(run.results, region.fp.nets):
        if result.status != "ROUTED":
            continue
        for path in result.paths:
            assert len(path.junctions) == len(path.segments) + 1
            for (a, b), sid in zip(zip(path.junctions, path.junctions[1:]), path.segments):
                assert {segs[sid].j1, segs[sid].j2} == {a, b}
            source, sink = net.pins[path.source_pin], net.pins[path.sink_pin]
            entry = region.graph.host(source.x, source.y)
            exit_ = region.graph.host(sink.x, sink.y)
            assert path.junctions[0] in (entry.j1, entry.j2)
            assert path.junctions[-1] in (exit_.j1, exit_.j2)


def test_routed_length_at_least_manhattan():
    fp = generate_random_floorplan(15, 60, 4, seed=1)
    run = route_floorplan(fp, RunConfig.from_name("FCN"))
    for result, net in zip(run.results, run.state.region.fp.nets):
        if result.status != "ROUTED":
            continue
        for path in result.paths:
            a, b = net.pins[path.source_pin], net.pins[path.sink_pin]
            manhattan = abs(a.x - b.x) + abs(a.y - b.y)
            assert path.length >= manhattan - fp.tol


def test_uncongested_path_weight_equals_length():
    # routed on a fresh state each, so every segment has u = 0 at route time
    fp = generate_random_floorplan(12, 20, 3, seed=6)
    config = RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.UNIFORM, 8, LayerModel.UNRESERVED))
    region = RegionModel.build(fp)
    for net in fp.nets[:5]:
        state = RoutingState.prepare(region, config)
        result = route_net(state, net)
        assert result.status == "ROUTED"
        path = result.paths[0]
        assert path.weight == pytest.approx(path.length)


def test_routability_monotone_in_layers_and_capacity():
    region = RegionModel.build(generate_random_floorplan(12, 80, 4, seed=3))

    def routed_with(layers, r_scale):
        config = RunConfig(SearchDir.FWD, CapacityProfile(ProfileKind.UNIFORM, layers, LayerModel.UNRESERVED))
        scaled = with_capacities(region, lambda seg: max(1, (seg.r * r_scale) // 8) if seg.r > 0 else seg.r)
        run = route_all(RoutingState.prepare(scaled, config))
        return sum(1 for r in run.results if r.status == "ROUTED")

    assert routed_with(1, 1) <= routed_with(2, 1) <= routed_with(8, 1)
    assert routed_with(1, 1) <= routed_with(1, 2) <= routed_with(1, 8)


def test_route_all_deterministic():
    fp = generate_random_floorplan(14, 50, 4, seed=9)
    r1 = summarize(route_floorplan(fp, RunConfig.from_name("BCL"))).to_json(include_timing=False)
    fp2 = generate_random_floorplan(14, 50, 4, seed=9)
    r2 = summarize(route_floorplan(fp2, RunConfig.from_name("BCL"))).to_json(include_timing=False)
    assert r1 == r2


def test_preset_names_round_trip():
    for name in ("FCN", "FCH", "FCL", "BCN", "BCH", "BCL"):
        config = RunConfig.from_name(name)
        assert config.name == name
    assert RunConfig.from_name("FCN").profile.kind is ProfileKind.UNIFORM
    assert RunConfig.from_name("BCH").search is SearchDir.BACK
    assert RunConfig.from_name("bcl", layers=4, layer_model=LayerModel.UNRESERVED).profile == \
        CapacityProfile(ProfileKind.LADDER, 4, LayerModel.UNRESERVED)


# ---------------------------------------------------------------------------
# byte-identical reports

#: sha256 of summarize(...).to_json(include_timing=False) for
#: generate_random_floorplan(40, 400, 6, seed=7) at layers=4, recorded before
#: the junction graph cached pin hosts and edge weights.  FCH and BCH fail 7
#: nets each here, so the digests also pin down rollback.
GOLDEN_DIGESTS = {
    "FCN": "27f39cd164437b09db4029477ec6e067bc6ab8d8b15945b99f36a1a61f957cf4",
    "FCH": "99d6dc35b00968be896f778e01c3b3902332a3363c78f0097bd5573f9d37c474",
    "FCL": "e8caefe83e17fc1a7f772702e102abdb6463753a5639616c32165d0be7c5c1cc",
    "BCN": "46ed7d276a2dbce106aeff3eba542d04ec329b4ddcf2a9097f176a240833ba47",
    "BCH": "e94c7c580552d631627037413c846bb74f96a7ca0cceda795541b531366a9aa0",
    "BCL": "f587377be0653c45f1c0ea204f456705277ade79f529b1bf948396ad02d7ecd2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_reports_byte_identical_to_golden(name):
    fp = generate_random_floorplan(40, 400, 6, seed=7)
    report = summarize(route_floorplan(fp, RunConfig.from_name(name, layers=4)))
    if name in ("FCH", "BCH"):
        assert report.totals["failed"] == 7
    digest = hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# the cached weights and pin hosts stay equal to the live rule

@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 30), nets_per_block=st.integers(1, 8), seed=st.integers(0, 10_000),
       layers=st.integers(1, 4), name=st.sampled_from(sorted(PRESETS)),
       layer_model=st.sampled_from(list(LayerModel)))
def test_weight_and_host_caches_match_live_rule(n, nets_per_block, seed, layers, name, layer_model):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    region = RegionModel.build(fp)
    state = RoutingState.prepare(region, RunConfig.from_name(name, layers=layers, layer_model=layer_model))
    jg, profile = region.graph, state.config.profile
    for seg in region.segments:
        assert state.usage[seg.id].cap == [capacity_at(profile, seg.r, l) if layer_permitted(profile, seg.axis, l)
                                           else 0 for l in range(1, layers + 1)]
    for net in order_nets(region.fp.nets):
        route_net(state, net)
        for sid in jg.usable:
            seg, usage = region.segments[sid], state.usage[sid]
            # the layer rule from the profile itself, not from the capacity rows
            free = [l for l in range(usage.curr_layer, layers + 1)
                    if layer_permitted(profile, seg.axis, l) and usage.u[l - 1] < capacity_at(profile, seg.r, l)]
            assert effective_layer(usage) == (free[0] if free else None)
            if not free:
                assert state.weight[sid] == state.penalty[sid] == UNUSABLE
                continue
            share = 1.0 - usage.u[free[0] - 1] / capacity_at(profile, seg.r, free[0])
            assert state.weight[sid] == seg.length / share
            assert state.penalty[sid] == 1.0 / share
    for (x, y), host in jg.hosts.items():
        assert host is host_segment(jg, x, y)


# ---------------------------------------------------------------------------
# one region model serves every run configuration

@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 25), nets_per_block=st.integers(1, 6), seed=st.integers(0, 10_000),
       layers=st.integers(1, 4), first=st.sampled_from(sorted(PRESETS)),
       second=st.sampled_from(sorted(PRESETS)), balance=st.sampled_from(list(BalanceMode)))
def test_runs_leave_the_region_unchanged(n, nets_per_block, seed, layers, first, second, balance):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    region = RegionModel.build(fp, balance=balance)
    before = tree_text(region.tree), segments_csv(region.segments)
    route_all(RoutingState.prepare(region, RunConfig.from_name(first, layers=layers)))
    assert (tree_text(region.tree), segments_csv(region.segments)) == before
    for (x, y), host in region.graph.hosts.items():
        assert host is host_segment(region.graph, x, y)
    config = RunConfig.from_name(second, layers=layers)
    reused = summarize(route_all(RoutingState.prepare(region, config)))
    fresh = summarize(route_floorplan(fp, config, balance=balance))
    assert reused.to_json(include_timing=False) == fresh.to_json(include_timing=False)
