"""Staircase bipartitioning, MSC tree, segment extraction, capacities."""

import bisect
import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msroute.adjacency import Axis, Bag, Orientation, Span, all_junctions, build_bag, enumerate_tjunctions
from msroute.errors import InternalError
from msroute.floorplan import Floorplan, Net, Pin, generate_random_floorplan
from msroute import staircase
from msroute.staircase import (
    BalanceMode,
    Segment,
    _absorb,
    _count_pins,
    _is_monotone_keys,
    _staircase_key,
    assign_capacities,
    bipartition,
    build_msc_tree,
    extract_segments,
    segments_csv,
    tree_text,
)

from msroute.routegraph import RegionModel, junction_graph_csv
from msroute.router import RoutingState, RunConfig, route_all, route_floorplan

from test_floorplan import floorplans, make_fp, make_net, mosaics, nested_pinwheels, pinwheel, with_nets


# ---------------------------------------------------------------------------
# independent geometric oracle (from raw rectangles only)

def _shared_wall(blocks, i, j, tol=1e-9):
    """Shared boundary of blocks i and j: ('V'|'H', fixed, lo, hi, left_or_below_id)."""
    bi, bj = blocks[i], blocks[j]
    if abs(bi.x2 - bj.x) < tol:
        lo, hi = max(bi.y, bj.y), min(bi.y2, bj.y2)
        if hi - lo > tol:
            return ("V", bj.x, lo, hi, i)
    if abs(bj.x2 - bi.x) < tol:
        lo, hi = max(bi.y, bj.y), min(bi.y2, bj.y2)
        if hi - lo > tol:
            return ("V", bi.x, lo, hi, j)
    if abs(bi.y2 - bj.y) < tol:
        lo, hi = max(bi.x, bj.x), min(bi.x2, bj.x2)
        if hi - lo > tol:
            return ("H", bj.y, lo, hi, i)
    if abs(bj.y2 - bi.y) < tol:
        lo, hi = max(bi.x, bj.x), min(bi.x2, bj.x2)
        if hi - lo > tol:
            return ("H", bi.y, lo, hi, j)
    return None


def _all_walls(fp):
    walls = []
    for i, j in itertools.combinations(range(len(fp.blocks)), 2):
        wall = _shared_wall(fp.blocks, i, j)
        if wall:
            walls.append((wall, i, j))
    return walls


def _oracle_is_monotone_cut(fp, left, orientation, tol=1e-9):
    """Check a partition directly against block geometry.

    For MIS the left side must sit left of every vertical cut wall and above
    every horizontal one (below for MDS), and the walls must chain
    monotonically (y non-decreasing with x for MIS, non-increasing for MDS).
    """
    pieces = []
    for wall, i, j in _all_walls(fp):
        if (i in left) == (j in left):
            continue
        axis, fixed, lo, hi, left_or_below = wall
        if axis == "V":
            if (left_or_below in left) != True:  # noqa: E712 - left block must be on the left side
                return False
        else:
            below_in_left = left_or_below in left
            if orientation is Orientation.MIS and below_in_left:
                return False  # MIS: the left side is the upper side of horizontal walls
            if orientation is Orientation.MDS and not below_in_left:
                return False
        if axis == "V":
            pieces.append((fixed, fixed, lo, hi))
        else:
            pieces.append((lo, hi, fixed, fixed))
    if orientation is Orientation.MIS:
        pieces.sort(key=lambda p: (p[0], p[2]))
    else:
        pieces.sort(key=lambda p: (p[0], -p[3]))
    for a, b in zip(pieces, pieces[1:]):
        if a[1] > b[0] + tol:
            return False
        if orientation is Orientation.MIS and a[3] > b[2] + tol:
            return False
        if orientation is Orientation.MDS and a[2] < b[3] - tol:
            return False
    return True


def _oracle_enumerate_cuts(fp, orientation):
    n = len(fp.blocks)
    ids = list(range(n))
    cuts = []
    for r in range(1, n):
        for left in itertools.combinations(ids, r):
            if _oracle_is_monotone_cut(fp, set(left), orientation):
                cuts.append(set(left))
    return cuts


# ---------------------------------------------------------------------------
# bipartition

def _fresh_cut(bag, nets, balance=BalanceMode.NUMBER, areas=None):
    """Test oracle: `bipartition` of all the bag's blocks, its inputs built
    afresh from the bag and the nets (its walls as MIS edges, `_count_pins`),
    not handed down a tree; NUMBER reads no areas."""
    o, blocks = bag.orientation, tuple(sorted(bag.nodes))
    areas = areas or [0.0] * (blocks[-1] + 1)
    walls = bag.edges if o is Orientation.MIS else bag.mirrored().edges
    return bipartition(o, blocks, walls, _count_pins(nets, set(blocks)), balance, areas)[0]


def test_two_blocks_cut_is_the_shared_wall():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    cut = _fresh_cut(build_bag(fp, Orientation.MIS), [])
    assert cut.left_set == (0,) and cut.right_set == (1,)
    assert len(cut.cut_edges) == 1
    span = cut.cut_edges[0].span
    assert (span.axis, span.fixed) == (Axis.V, 1.0)


def test_four_block_number_balance():
    fp = make_fp([(0, 0, 1, 2), (1, 0, 2, 1), (1, 1, 2, 1), (3, 0, 1, 2)])
    cut = _fresh_cut(build_bag(fp, Orientation.MIS), [], BalanceMode.NUMBER)
    assert len(cut.left_set) == 2 and len(cut.right_set) == 2


def test_bipartition_matches_exhaustive_oracle():
    for n, seed in [(6, 0), (8, 1), (10, 2), (10, 5)]:
        fp = generate_random_floorplan(n, 2 * n, 4, seed=seed)
        for orientation in Orientation:
            bag = build_bag(fp, orientation)
            valid = _oracle_enumerate_cuts(fp, orientation)
            balanced = [c for c in valid if abs(len(c) - (n - len(c))) <= 1]
            assert balanced, "oracle found no balanced monotone cut"
            cut = _fresh_cut(bag, fp.nets, BalanceMode.NUMBER)
            assert set(cut.left_set) in valid
            assert abs(len(cut.left_set) - len(cut.right_set)) <= 1


def test_bipartition_cut_nets_use_pin_presence():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    crossing = Net("x", [Pin(0, 0, 0, 0.5, 0.5), Pin(1, 0, 0, 1.5, 0.5)])
    local = Net("l", [Pin(0, 0, 0, 0.2, 0.2), Pin(0, 0, 0, 0.8, 0.8)])
    cut = _fresh_cut(build_bag(fp, Orientation.MIS), [crossing, local])
    assert cut.cut_nets == [0]


def test_area_balance_bound():
    for seed in range(4):
        fp = generate_random_floorplan(12, 0, 2, seed=seed)
        bag = build_bag(fp, Orientation.MIS)
        areas = [b.area for b in fp.blocks]
        cut = _fresh_cut(bag, [], BalanceMode.AREA, areas)
        left_area = sum(areas[b] for b in cut.left_set)
        right_area = sum(areas[b] for b in cut.right_set)
        assert abs(left_area - right_area) <= max(areas) + 1e-6


# ---------------------------------------------------------------------------
# MSC tree

def test_tree_internal_node_counts():
    for n, seed in [(2, 0), (9, 1), (17, 2)]:
        fp = generate_random_floorplan(n, n, 3, seed=seed)
        tree = build_msc_tree(fp)
        assert len(tree.cuts) == n - 1


def test_tree_single_block_is_leaf():
    fp = make_fp([(0, 0, 2, 2)])
    tree = build_msc_tree(fp)
    assert tree.cuts == []
    assert tree_text(tree) == "block 0\n"


def test_tree_orientations_alternate():
    fp = generate_random_floorplan(12, 10, 3, seed=4)
    tree = build_msc_tree(fp)
    cuts = iter(tree.cuts)

    def check(blocks, depth):
        # the cuts are in preorder: each side is a single block or the next cut
        if len(blocks) == 1:
            return
        cut = next(cuts)
        assert sorted(cut.left_set + cut.right_set) == sorted(blocks)
        want = Orientation.MIS if depth % 2 == 0 else Orientation.MDS
        assert cut.orientation is want
        check(cut.left_set, depth + 1)
        check(cut.right_set, depth + 1)

    check(tuple(range(12)), 0)
    assert next(cuts, None) is None


def test_tree_cuts_are_monotone_and_balanced():
    for seed in range(6):
        fp = generate_random_floorplan(16, 40, 4, seed=seed)
        tree = build_msc_tree(fp)
        for cut in tree.cuts:
            assert _is_monotone_keys([_staircase_key(e.span, cut.orientation) for e in cut.cut_edges])
            assert abs(len(cut.left_set) - len(cut.right_set)) <= 1
            assert set(cut.left_set).isdisjoint(cut.right_set)


def test_tree_consumes_every_adjacency_once():
    fp = generate_random_floorplan(14, 0, 2, seed=3)
    bag_pairs = {frozenset((e.src, e.dst)) for e in build_bag(fp, Orientation.MIS).edges}
    tree = build_msc_tree(fp)
    seen = []
    for cut in tree.cuts:
        for e in cut.cut_edges:
            seen.append(frozenset((e.src, e.dst)))
    assert len(seen) == len(set(seen)), "a wall was cut twice"
    assert set(seen) == bag_pairs


# ---------------------------------------------------------------------------
# segments

def _prepared(fp):
    tree = build_msc_tree(fp)
    junctions = all_junctions(fp)
    segments = extract_segments(tree, fp, junctions)
    return tree, junctions, segments


def test_two_block_segments():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    _, junctions, segments = _prepared(fp)
    interior = [s for s in segments if s.region_id >= 0]
    border = [s for s in segments if s.region_id < 0]
    assert len(interior) == 1
    # the wall T-points split bottom and top border walls in two
    assert len(border) == 6
    assert len(segments) == 3 * 2 + 1


def test_border_wall_splits_at_junction():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    _, _, segments = _prepared(fp)
    bottom = sorted((s.lo, s.hi) for s in segments if s.axis is Axis.H and s.fixed == 0.0)
    assert bottom == [(0.0, 1.0), (1.0, 2.0)]


def test_segment_length_is_stored_from_its_ends():
    seg = Segment(id=0, region_id=-1, axis=Axis.H, fixed=0.0, lo=0.1, hi=0.7, j1=0, j2=1, r=3)
    assert seg.length == 0.7 - 0.1
    assert replace(seg, hi=2.5).length == 2.5 - 0.1
    with pytest.raises(TypeError):
        Segment(id=0, region_id=-1, axis=Axis.H, fixed=0.0, lo=0.0, hi=1.0, j1=0, j2=1, length=1.0)


def test_segment_count_identity():
    for n, seed in [(6, 1), (10, 4), (24, 0)]:
        fp = generate_random_floorplan(n, 0, 2, seed=seed)
        _, _, segments = _prepared(fp)
        assert len(segments) == 3 * n + 1


def test_segments_cover_walls_exactly():
    # interior segments tile the shared walls derived independently from rects
    for seed in (0, 2):
        fp = generate_random_floorplan(10, 0, 2, seed=seed)
        _, junctions, segments = _prepared(fp)
        interior = [s for s in segments if s.region_id >= 0]
        wall_total = sum(w[0][3] - w[0][2] for w in _all_walls(fp))
        assert sum(s.length for s in interior) == pytest.approx(wall_total)
        # piecewise: every interior segment sits inside exactly one wall
        for s in interior:
            hosts = []
            for (axis, fixed, lo, hi, _), _, _ in _all_walls(fp):
                if axis == s.axis.value and abs(fixed - s.fixed) < fp.tol \
                        and lo - fp.tol <= s.lo and s.hi <= hi + fp.tol:
                    hosts.append((axis, fixed))
            assert len(hosts) == 1
        # no two segments on the same line overlap
        by_line = {}
        for s in segments:
            by_line.setdefault((s.axis, s.fixed), []).append((s.lo, s.hi))
        for spans in by_line.values():
            spans.sort()
            for (a1, a2), (b1, b2) in zip(spans, spans[1:]):
                assert a2 <= b1 + fp.tol


def test_segment_endpoints_are_junctions():
    generated = [generate_random_floorplan(n, 0, 2, seed=seed) for n, seed in [(10, 6), (2, 1), (70, 13)]]
    pinwheels = [make_fp(pinwheel(1, 2, 1, 2, 3, 3)), make_fp(pinwheel(2, 5, 1, 4, 7, 6))]
    for fp in generated + pinwheels:
        _, junctions, segments = _prepared(fp)
        pos = junctions
        # extract_segments sorts its pieces as plain tuples, so none may tie on its sort key
        assert len({(s.axis, s.fixed, s.lo) for s in segments}) == len(segments)
        for s in segments:
            assert s.length > fp.tol
            assert s.j1 != s.j2  # dijkstra_ssp counts on two finish junctions per sink host
            for jid, end in ((s.j1, (s.fixed, s.lo)), (s.j2, (s.fixed, s.hi))):
                px, py = pos[jid]
                if s.axis is Axis.V:
                    assert (px, py) == end
                else:
                    assert (px, py) == (end[1], end[0])


def _split_walls_at_junctions(tree, fp, junctions):
    """Test oracle: every cut wall and every whole border wall split at the
    junctions lying on it, by two bisections on the junctions of the wall's
    line; `extract_segments` must give the same segments without splitting."""
    vlines, hlines = {}, {}
    for jid, (x, y) in enumerate(junctions):
        vlines.setdefault(x, []).append((y, jid))
        hlines.setdefault(y, []).append((x, jid))
    for line in (*vlines.values(), *hlines.values()):
        line.sort()
    walls = [(e.span, region) for region, cut in enumerate(tree.cuts) for e in cut.cut_edges]
    bx1, by1, bx2, by2 = fp.snapped[4]
    borders = (Span(Axis.H, by1, bx1, bx2), Span(Axis.H, by2, bx1, bx2),
               Span(Axis.V, bx1, by1, by2), Span(Axis.V, bx2, by1, by2))
    walls += [(span, -(side + 1)) for side, span in enumerate(borders)]
    pieces = []
    for span, region in walls:
        line = (vlines if span.axis is Axis.V else hlines).get(span.fixed, [])
        first = bisect.bisect_left(line, (span.lo, -1))
        on_span = line[first:bisect.bisect_right(line, (span.hi, math.inf), first)]
        assert len(on_span) >= 2 and on_span[0][0] == span.lo and on_span[-1][0] == span.hi
        for (c1, ja), (c2, jb) in zip(on_span, on_span[1:]):
            assert c1 < c2
            pieces.append((span.axis, span.fixed, c1, c2, region, ja, jb))
    pieces.sort()
    return [Segment(id=i, region_id=region, axis=axis, fixed=fixed, lo=lo, hi=hi, j1=ja, j2=jb)
            for i, (axis, fixed, lo, hi, region, ja, jb) in enumerate(pieces)]


def _fields(seg):
    return (seg.id, seg.region_id, seg.axis, seg.fixed.hex(), seg.lo.hex(), seg.hi.hex(),
            seg.j1, seg.j2, seg.r, seg.length.hex())


@settings(max_examples=100, deadline=None)
@given(fp=st.one_of(mosaics, floorplans().filter(lambda fp: fp.validation.passed)),
       balance=st.sampled_from(list(BalanceMode)))
def test_each_wall_is_one_segment_as_splitting_at_the_junctions_gives(fp, balance):
    tree = build_msc_tree(fp, balance)
    junctions = all_junctions(fp)
    segments = extract_segments(tree, fp, junctions)
    assert [_fields(s) for s in segments] == [_fields(s) for s in _split_walls_at_junctions(tree, fp, junctions)]
    # one segment per cut wall, and one per block side on the snapped box
    cut_walls = Counter((e.span.axis, e.span.fixed, e.span.lo, e.span.hi)
                        for cut in tree.cuts for e in cut.cut_edges)
    sx1, sy1, sx2, sy2, (bx1, by1, bx2, by2) = fp.snapped
    sides = Counter(side for i in range(len(fp.blocks)) for side, on in (
        ((Axis.H, by1, sx1[i], sx2[i]), sy1[i] == by1), ((Axis.H, by2, sx1[i], sx2[i]), sy2[i] == by2),
        ((Axis.V, bx1, sy1[i], sy2[i]), sx1[i] == bx1), ((Axis.V, bx2, sy1[i], sy2[i]), sx2[i] == bx2)) if on)
    assert Counter((s.axis, s.fixed, s.lo, s.hi) for s in segments if s.region_id >= 0) == cut_walls
    assert Counter((s.axis, s.fixed, s.lo, s.hi) for s in segments if s.region_id < 0) == sides
    assert len(segments) == 3 * len(fp.blocks) + 1


def test_a_wall_end_that_is_no_junction_is_an_internal_error():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions = all_junctions(fp)
    assert junctions[0] == (1.0, 0.0)  # the cut wall's lower end
    with pytest.raises(InternalError, match="does not end at junctions"):
        extract_segments(build_msc_tree(fp), fp, junctions[1:])


def test_junction_incident_segments_degree():
    fp = generate_random_floorplan(10, 0, 2, seed=6)
    _, junctions, segments = _prepared(fp)
    degree = Counter(jid for s in segments for jid in (s.j1, s.j2))
    for jid in range(len(junctions)):
        assert degree[jid] == (2 if jid >= len(junctions) - 4 else 3)  # the last four are the corners


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), nets_per_block=st.integers(0, 4), seed=st.integers(0, 10_000),
       balance=st.sampled_from(list(BalanceMode)))
def test_region_invariants_on_generated_mosaics(n, nets_per_block, seed, balance):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    tree = build_msc_tree(fp, balance)
    tjunctions = enumerate_tjunctions(fp)
    junctions = all_junctions(fp)
    segments = extract_segments(tree, fp, junctions)
    assert len(tree.cuts) == n - 1
    assert len(tjunctions) == 2 * n - 2
    bx1, by1, bx2, by2 = fp.snapped[4]
    b = sum(1 for x, y in tjunctions if x in (bx1, bx2) or y in (by1, by2))
    for orientation in Orientation:
        assert len(build_bag(fp, orientation).edges) == 3 * (n - 1) - b
    assert len(segments) == 3 * n + 1
    degree = Counter(jid for s in segments for jid in (s.j1, s.j2))
    assert [degree[jid] for jid in range(len(junctions))] == [3] * (len(junctions) - 4) + [2] * 4
    cut_walls = Counter(frozenset((e.src, e.dst)) for cut in tree.cuts for e in cut.cut_edges)
    assert all(count == 1 for count in cut_walls.values())
    assert set(cut_walls) == {frozenset((e.src, e.dst)) for e in tree.bag.edges}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(5, 40), seed=st.integers(0, 10_000), share=st.sampled_from([0.5, 1.0]))
def test_region_invariants_and_routes_on_nested_pinwheels(n, seed, share):
    fp = with_nets(make_fp(nested_pinwheels(n, seed, share)), 2 * n, seed)
    tjunctions = enumerate_tjunctions(fp)
    assert len(tjunctions) == 2 * n - 2
    bx1, by1, bx2, by2 = fp.snapped[4]
    b = sum(1 for x, y in tjunctions if x in (bx1, bx2) or y in (by1, by2))
    for orientation in Orientation:
        assert len(build_bag(fp, orientation).edges) == 3 * (n - 1) - b
    for balance in BalanceMode:
        region = RegionModel.build(fp, balance)
        assert len(region.tree.cuts) == n - 1
        assert len(region.graph.segments) == 3 * n + 1
        for name in ("FCN", "FCH", "BCL"):
            run = route_all(RoutingState.prepare(region, RunConfig.from_name(name, layers=4)))
            assert len(run.results) == len(fp.nets)


@settings(max_examples=40, deadline=None)
@given(fp=mosaics, data=st.data())
def test_answers_do_not_depend_on_the_block_order(fp, data):
    """A block is named by its position, so listing the blocks in another
    order (each pin's block index remapped) renames the BAG's nodes and
    leaves the segments and the routed junction graph as they are."""
    order = data.draw(st.permutations(range(len(fp.blocks))))
    position = {b: i for i, b in enumerate(order)}
    permuted = Floorplan([fp.blocks[b] for b in order],
                         [Net(net.name, [replace(p, block_id=position[p.block_id]) for p in net.pins])
                          for net in fp.nets])
    mis = {(position[e.src], position[e.dst], e.span) for e in build_bag(fp, Orientation.MIS).edges}
    assert {(e.src, e.dst, e.span) for e in build_bag(permuted, Orientation.MIS).edges} == mis
    config = RunConfig.from_name("FCN", layers=2)
    for balance in BalanceMode:
        answers = []
        for f in (fp, permuted):
            state = route_floorplan(f, config, balance).state
            answers.append((segments_csv(state.region.graph.segments),
                            junction_graph_csv(state.region.graph, state.usage, 2)))
        assert answers[0] == answers[1]


# ---------------------------------------------------------------------------
# capacities

def test_capacity_counts_nets_whose_box_touches_the_wall():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    _, _, segments = _prepared(fp)
    wall = next(s for s in segments if s.region_id >= 0)
    crossing = [make_net(i, [(1.0, 0.5 + 0.2 * i), (3.0, 0.5 + 0.2 * i)]) for i in range(5)]
    away = [make_net(5, [(0.2, 0.1), (0.4, 0.3)])]
    assign_capacities(segments, crossing + away, fp.tol)
    assert wall.r == 5


def test_capacity_floor_one_for_interior():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    _, _, segments = _prepared(fp)
    wall = next(s for s in segments if s.region_id >= 0)
    assign_capacities(segments, [], fp.tol)
    assert wall.r == 1


def test_capacity_matches_brute_force_oracle():
    import random

    rng = random.Random(9)
    fp = generate_random_floorplan(10, 0, 2, seed=1)
    _, _, segments = _prepared(fp)
    nets = []
    for i in range(7):
        pts = [(rng.uniform(0, fp.box[2]), rng.uniform(0, fp.box[3])) for _ in range(3)]
        nets.append(make_net(i, pts))
    # pins on border pieces: at midpoints, and at a junction shared by two pieces
    border = [s for s in segments if s.region_id < 0]
    on_wall = [((s.fixed, (s.lo + s.hi) / 2) if s.axis is Axis.V else ((s.lo + s.hi) / 2, s.fixed))
               for s in border[::2]]
    on_wall.append((border[0].fixed, border[0].hi) if border[0].axis is Axis.V
                   else (border[0].hi, border[0].fixed))
    nets.append(make_net(7, on_wall))
    assign_capacities(segments, nets, fp.tol)
    pins = [(p.x, p.y) for net in nets for p in net.pins]
    for seg in segments:
        if seg.region_id < 0:
            expect = 0
            for x, y in pins:
                along, perp = (y, x) if seg.axis is Axis.V else (x, y)
                expect += int(abs(perp - seg.fixed) <= fp.tol
                              and seg.lo - fp.tol <= along <= seg.hi + fp.tol)
            assert seg.r == expect
            continue
        expect = 0
        for net in nets:
            xs = [p.x for p in net.pins]
            ys = [p.y for p in net.pins]
            x1, y1, x2, y2 = min(xs), min(ys), max(xs), max(ys)
            if seg.axis is Axis.V:
                hit = x1 - fp.tol <= seg.fixed <= x2 + fp.tol and \
                    max(seg.lo, y1) <= min(seg.hi, y2) + fp.tol
            else:
                hit = y1 - fp.tol <= seg.fixed <= y2 + fp.tol and \
                    max(seg.lo, x1) <= min(seg.hi, x2) + fp.tol
            expect += int(hit)
        assert seg.r == max(1, expect)
    assert sum(s.r for s in border) >= len(on_wall)


def _capacities_by_scan(segments, nets, tol):
    """Test oracle: the per-segment numpy scan over every net box and pin that
    the capacity sweep replaced; returns r per segment."""
    boxes = [(min(p.x for p in net.pins), min(p.y for p in net.pins),
              max(p.x for p in net.pins), max(p.y for p in net.pins)) for net in nets]
    bx1, by1, bx2, by2 = np.array(boxes, dtype=float).reshape(-1, 4).T
    px, py = np.array([(p.x, p.y) for net in nets for p in net.pins], dtype=float).reshape(-1, 2).T
    r = []
    for seg in segments:
        if seg.region_id < 0:
            along, perp = (py, px) if seg.axis is Axis.V else (px, py)
            hit = (np.abs(perp - seg.fixed) <= tol) & (seg.lo - tol <= along) & (along <= seg.hi + tol)
            r.append(int(hit.sum()))
        elif seg.axis is Axis.V:
            hit = (bx1 - tol <= seg.fixed) & (seg.fixed <= bx2 + tol) \
                & (np.maximum(seg.lo, by1) <= np.minimum(seg.hi, by2) + tol)
            r.append(max(1, int(hit.sum())))
        else:
            hit = (by1 - tol <= seg.fixed) & (seg.fixed <= by2 + tol) \
                & (np.maximum(seg.lo, bx1) <= np.minimum(seg.hi, bx2) + tol)
            r.append(max(1, int(hit.sum())))
    return r


@st.composite
def _nets_on_the_walls(draw):
    """A generated mosaic, its segments and nets whose pins sit on, within
    tol of, or just beyond tol from the segments' coordinates and endpoints,
    or anywhere."""
    fp = generate_random_floorplan(draw(st.integers(2, 25)), 0, 2, seed=draw(st.integers(0, 10_000)))
    _, _, segments = _prepared(fp)
    tol = fp.tol
    xs = sorted({s.fixed for s in segments if s.axis is Axis.V}
                | {c for s in segments if s.axis is Axis.H for c in (s.lo, s.hi)})
    ys = sorted({s.fixed for s in segments if s.axis is Axis.H}
                | {c for s in segments if s.axis is Axis.V for c in (s.lo, s.hi)})
    shifts = st.sampled_from([0.0, tol, -tol, tol / 2, -tol / 2, 1.5 * tol, -1.5 * tol])

    def coord(values, extent):
        base = draw(st.one_of(st.sampled_from(values), st.floats(0.0, extent)))
        return base + draw(shifts)

    nets = []
    for net_id in range(draw(st.integers(0, 12))):
        points = [(coord(xs, fp.box[2]), coord(ys, fp.box[3])) for _ in range(draw(st.integers(2, 4)))]
        nets.append(make_net(net_id, points))
    return fp, segments, nets


@settings(max_examples=150, deadline=None)
@given(case=_nets_on_the_walls())
def test_capacity_sweep_equals_the_scan(case):
    fp, segments, nets = case
    assign_capacities(segments, nets, fp.tol)
    assert [s.r for s in segments] == _capacities_by_scan(segments, nets, fp.tol)


def test_boundary_capacity_counts_pins_on_the_wall():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    _, _, segments = _prepared(fp)
    bottom_left = next(s for s in segments
                       if s.region_id < 0 and s.axis is Axis.H and s.fixed == 0.0 and s.lo == 0.0)
    # two pins on that border piece, one elsewhere
    nets = [make_net(0, [(0.5, 0.0), (1.5, 0.0)]), make_net(1, [(0.5, 1.0), (3.0, 2.0)])]
    assign_capacities(segments, nets, fp.tol)
    assert bottom_left.r == 2


def test_boundary_capacity_zero_without_pins():
    fp = make_fp([(0, 0, 2, 2), (2, 0, 2, 2)])
    _, _, segments = _prepared(fp)
    border = [s for s in segments if s.region_id < 0]
    nets = [make_net(0, [(1.0, 1.0), (3.0, 1.0)])]
    assign_capacities(segments, nets, fp.tol)
    assert all(s.r == 0 for s in border)


# ---------------------------------------------------------------------------
# the tree build hands each node only its own nets and BAG edges

@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), nets_per_block=st.integers(0, 6), seed=st.integers(0, 10_000),
       share=st.sampled_from([None, 0.5, 1.0]))
def test_tree_cuts_equal_bipartition_on_the_full_instance(n, nets_per_block, seed, share):
    if share is None:
        fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    else:  # non-guillotine regions
        fp = with_nets(make_fp(nested_pinwheels(n, seed, share)), n * nets_per_block, seed)
    full = {o: build_bag(fp, o) for o in Orientation}
    areas = [b.area for b in fp.blocks]
    for balance in BalanceMode:
        for cut in build_msc_tree(fp, balance).cuts:
            blocks = set(cut.left_set) | set(cut.right_set)
            edges = [e for e in full[cut.orientation].edges if e.src in blocks and e.dst in blocks]
            ref = _fresh_cut(Bag(cut.orientation, sorted(blocks), edges), fp.nets, balance, areas)
            assert ref.left_set == cut.left_set
            assert ref.right_set == cut.right_set
            assert ref.cut_edges == cut.cut_edges
            assert ref.cut_nets == cut.cut_nets


@settings(max_examples=30, deadline=None)
@given(fp=mosaics, balance=st.sampled_from(list(BalanceMode)))
def test_the_tree_calls_bipartition_once_per_cut_in_preorder(fp, balance):
    """build_msc_tree makes each of its n-1 cuts with one `bipartition`
    call, each on the next node of a preorder walk, left side first."""
    cut = staircase.bipartition
    calls = []

    def counting_cut(orientation, nodes, *rest):
        made = cut(orientation, nodes, *rest)
        calls.append((nodes, made[0]))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(staircase, "bipartition", counting_cut)
        tree = build_msc_tree(fp, balance)
    assert len(calls) == len(fp.blocks) - 1
    stack = [tuple(range(len(fp.blocks)))]
    for nodes, made in calls:
        while len(stack[-1]) == 1:
            stack.pop()
        assert nodes == stack.pop()
        stack += [made.right_set, made.left_set]
    assert all(len(blocks) == 1 for blocks in stack)
    assert [made for _, made in calls] == tree.cuts


@settings(max_examples=30, deadline=None)
@given(fp=mosaics, balance=st.sampled_from(list(BalanceMode)))
def test_each_cut_hands_its_sides_exactly_their_own_nets_and_edges(fp, balance):
    """A side's nets are the nets with at least 2 pins on its blocks, counted
    on them only, and its walls are the MIS BAG's edges within it, in bag
    order, in one list."""
    mis_edges = build_bag(fp, Orientation.MIS).edges
    cut = staircase.bipartition
    calls = []

    def recording_cut(orientation, nodes, walls, nets, balance, areas):
        made, left, right = cut(orientation, nodes, walls, nets, balance, areas)
        calls.append((made.left_set, left))
        calls.append((made.right_set, right))
        return made, left, right

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(staircase, "bipartition", recording_cut)
        tree = build_msc_tree(fp, balance)
    assert len(calls) == 2 * len(tree.cuts)
    for blocks, (walls, nets) in calls:
        inside = set(blocks)
        assert nets == _count_pins(fp.nets, inside)
        assert walls == [e for e in mis_edges if e.src in inside and e.dst in inside]


def _endpoints(e, orientation):
    """Test oracle: where a wall starts along a staircase, and where it ends:
    its lower-left and upper-right corners for MIS, and for MDS its upper-left
    and lower-right ones with y negated, so that both run up in x and y."""
    s = e.span
    x1, y1, x2, y2 = (s.fixed, s.lo, s.fixed, s.hi) if s.axis is Axis.V else (s.lo, s.fixed, s.hi, s.fixed)
    return ((x1, y1), (x2, y2)) if orientation is Orientation.MIS else ((x1, -y2), (x2, -y1))


def test_each_cut_is_the_bag_edges_it_crosses_in_staircase_order():
    """Every cut's walls are the cut orientation's BAG edges from its left to
    its right side, in staircase order, each ending where the next starts or
    before, and no BAG edge runs back.  The AREA builds give blocks back."""
    instances = [generate_random_floorplan(n, 3 * n, 6, seed=seed) for n, seed in [(13, 23), (22, 1), (40, 7)]]
    instances += [with_nets(make_fp(nested_pinwheels(n, seed, share)), 2 * n, seed)
                  for n, seed, share in [(21, 3, 1.0), (33, 8, 0.5), (40, 11, 1.0)]]
    given_back = 0
    for fp in instances:
        bags = {o: build_bag(fp, o) for o in Orientation}
        areas = [b.area for b in fp.blocks]
        for balance in BalanceMode:
            for cut in build_msc_tree(fp, balance).cuts:
                o, left, right = cut.orientation, set(cut.left_set), set(cut.right_set)
                assert not [e for e in bags[o].edges if e.src in right and e.dst in left]
                crossing = sorted((e for e in bags[o].edges if e.src in left and e.dst in right),
                                  key=lambda e: _endpoints(e, o))
                assert cut.cut_edges == crossing
                for a, b in zip(crossing, crossing[1:]):
                    (_, (ax, ay)), ((bx, by), _) = _endpoints(a, o), _endpoints(b, o)
                    assert ax <= bx and ay <= by
                left_area, node_area = sum(areas[v] for v in left), sum(areas[v] for v in left | right)
                given_back += balance is BalanceMode.AREA and 2 * left_area < node_area and len(right) > 1
    assert given_back


def _eager_cut(bag, nets, balance, areas):
    """Test oracle: the eager scan that the ordered pick replaced.  Every step
    checks every source, each by a full rescan of the cut it would leave,
    then absorbs the least (cut change, id) admissible one.  Returns the
    absorbed blocks and the cut nets."""
    nodes = set(bag.nodes)
    on = [{p.block_id for p in net.pins} & nodes for net in nets]

    def n_cut(left):
        return sum(1 for blocks in on if blocks & left and blocks - left)

    def admissible(left):
        cut = [_staircase_key(e.span, bag.orientation) for e in bag.edges if e.src in left and e.dst not in left]
        return _is_monotone_keys(cut)

    absorbed, a_area = [], 0.0
    total_area = sum(areas[v] for v in sorted(nodes))  # in the order bipartition sums them
    while len(absorbed) < len(nodes) - 1 and (
            len(absorbed) < len(nodes) // 2 if balance is BalanceMode.NUMBER else 2.0 * a_area < total_area):
        left = set(absorbed)
        sources = [v for v in sorted(nodes - left)
                   if all(e.src in left for e in bag.edges if e.dst == v)]
        admitted = [v for v in sources if admissible(left | {v})]
        assert admitted, "no source keeps the cut a monotone staircase"
        best = min(admitted, key=lambda v: (n_cut(left | {v}) - n_cut(left), v))
        absorbed.append(best)
        a_area += areas[best]
    if balance is BalanceMode.AREA and len(absorbed) > 1:
        last = absorbed[-1]
        if abs(total_area - 2.0 * (a_area - areas[last])) < abs(total_area - 2.0 * a_area):
            absorbed.pop()
    left = set(absorbed)
    return tuple(sorted(left)), [i for i, blocks in enumerate(on) if blocks & left and blocks - left]


@st.composite
def _mosaics_with_nets(draw):
    """Generated mosaics with their nets, and pinwheels with nets whose pins
    sit at the centres of drawn blocks."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 40))
        return generate_random_floorplan(n, n * draw(st.integers(0, 5)), 6, seed=draw(st.integers(0, 10_000)))
    w, h = draw(st.integers(3, 20)), draw(st.integers(3, 20))
    xa, xb = sorted(draw(st.lists(st.integers(1, w - 1), min_size=2, max_size=2, unique=True)))
    ya, yb = sorted(draw(st.lists(st.integers(1, h - 1), min_size=2, max_size=2, unique=True)))
    rects = pinwheel(xa, xb, ya, yb, w, h)
    nets = []
    for net_id, blocks in enumerate(draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=6), max_size=12))):
        pins = [Pin(b, 0.0, 0.0, rects[b][0] + rects[b][2] / 2, rects[b][1] + rects[b][3] / 2) for b in blocks]
        nets.append(Net(f"n{net_id}", pins))
    return make_fp(rects, nets)


@settings(max_examples=40, deadline=None)
@given(fp=_mosaics_with_nets(), balance=st.sampled_from(list(BalanceMode)))
# mosaics where a better-ranked source would break the staircase and is passed over
@example(fp=generate_random_floorplan(13, 26, 6, seed=23), balance=BalanceMode.AREA)
@example(fp=generate_random_floorplan(22, 88, 6, seed=1), balance=BalanceMode.AREA)
@example(fp=generate_random_floorplan(26, 52, 6, seed=16), balance=BalanceMode.NUMBER)
def test_ordered_pick_equals_the_eager_scan(fp, balance):
    tree = build_msc_tree(fp, balance)
    bags = {Orientation.MIS: tree.bag, Orientation.MDS: tree.bag.mirrored()}
    areas = [b.area for b in fp.blocks]
    for cut in tree.cuts:
        blocks = set(cut.left_set) | set(cut.right_set)
        edges = [e for e in bags[cut.orientation].edges if e.src in blocks and e.dst in blocks]
        left_set, cut_nets = _eager_cut(Bag(cut.orientation, sorted(blocks), edges), fp.nets, balance, areas)
        assert cut.left_set == left_set
        assert cut.cut_nets == cut_nets


@st.composite
def _chain_change(draw):
    """A monotone staircase chain of (key, edge) items, some of its items to
    remove and new (key, edge) items to add, on a small grid so keys tie."""
    m = draw(st.integers(0, 8))
    xs = sorted(draw(st.lists(st.integers(0, 8), min_size=2 * m, max_size=2 * m)))
    ys = sorted(draw(st.lists(st.integers(0, 8), min_size=2 * m, max_size=2 * m)))
    chain = sorted(((xs[2 * i], ys[2 * i], xs[2 * i + 1], ys[2 * i + 1]), i) for i in range(m))
    removed = [item for item in chain if draw(st.booleans())]
    corners = st.tuples(st.integers(0, 8), st.integers(0, 8))
    added = []
    for lo, hi in draw(st.lists(st.tuples(corners, corners), max_size=4)):
        added.append(((*min(lo, hi), *max(lo, hi)), m + len(added)))
    return chain, removed, added


@settings(max_examples=400, deadline=None)
@given(change=_chain_change())
def test_local_staircase_check_equals_the_full_rescan(change):
    chain, removed, added = change
    new_chain = sorted([item for item in chain if item not in removed] + added)
    after = list(chain)
    stays = _is_monotone_keys([key for key, _ in new_chain])
    assert _absorb(after, removed, added) == stays
    assert after == (new_chain if stays else chain)


# sha256 of tree_text + segments_csv, recorded before the tree build stopped
# rescanning every net and BAG edge at every node
REGION_DIGESTS = {
    (30, 160, 11, "NUMBER"): "b6868c8dc63ae440d7db93a2ca56c6a2498f2e15bbb2df482be17502f637d241",
    (30, 160, 11, "AREA"): "ac174780c3a492062e6bc381edf5f04f031d24a25da4f387afb20ca42ca8aa3d",
    (80, 435, 3, "NUMBER"): "fa503142ef7a16e842322caf9e784122fdaa308ba3a985fbbd905f7e1762098b",
    (80, 435, 3, "AREA"): "aac539e4af8d7dab6c5559e5435a4129b5e8cd1eb1de3be2e774e71c7c5135cb",
    (150, 816, 5, "NUMBER"): "6384d112e9b704ed31115f575fa98c04d640fee40bbbe5b7840c2a6c6e96a807",
    (150, 816, 5, "AREA"): "a1ddaff8d21cbaaf99dfdc254795c0bd2544fad0ae66df2cdd36166c297da2e3",
}


@pytest.mark.parametrize("n, k, seed, balance", sorted(REGION_DIGESTS))
def test_region_model_byte_identical_to_golden(n, k, seed, balance):
    fp = generate_random_floorplan(n, k, 6, seed=seed)
    tree = build_msc_tree(fp, BalanceMode(balance))
    segments = extract_segments(tree, fp, all_junctions(fp))
    assign_capacities(segments, fp.nets, fp.tol)
    text = tree_text(tree) + segments_csv(segments)
    assert hashlib.sha256(text.encode()).hexdigest() == REGION_DIGESTS[(n, k, seed, balance)]


# ---------------------------------------------------------------------------
# dumps

def test_tree_text_and_segments_csv():
    fp = generate_random_floorplan(5, 6, 3, seed=0)
    tree, junctions, segments = _prepared(fp)
    text = tree_text(tree)
    assert "cut 0 [MIS]" in text
    assert text.count("block") == 5
    csv_text = segments_csv(segments)
    assert csv_text.splitlines()[0] == "id,axis,fixed,lo,hi,r"
    assert len(csv_text.splitlines()) == len(segments) + 1
