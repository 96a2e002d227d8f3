"""Block adjacency graph construction and T-junction enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from msroute.adjacency import (
    Axis,
    Bag,
    BagEdge,
    Orientation,
    Span,
    _adjacent_pairs,
    all_junctions,
    build_bag,
    enumerate_tjunctions,
)
from msroute.errors import ValidationError
from msroute.floorplan import generate_random_floorplan
from msroute.staircase import build_msc_tree

from test_floorplan import floorplans, make_fp, mosaics, pinwheel


def dense_adjacency(fp):
    """Test oracle: the n x n wall comparison that the sweep replaced.  All
    left-of and above/below adjacent pairs with their shared spans."""
    x1, y1, x2, y2 = map(np.array, fp.snapped[:4])
    horiz = []  # (i, j, span): i left of j
    vert = []   # (i, j, span): i above j
    eq_x = x2[:, None] == x1[None, :]
    ovy_lo = np.maximum(y1[:, None], y1[None, :])
    ovy_hi = np.minimum(y2[:, None], y2[None, :])
    for i, j in zip(*np.nonzero(eq_x & (ovy_hi > ovy_lo))):
        span = Span(Axis.V, float(x2[i]), float(ovy_lo[i, j]), float(ovy_hi[i, j]))
        horiz.append((int(i), int(j), span))
    eq_y = y1[:, None] == y2[None, :]
    ovx_lo = np.maximum(x1[:, None], x1[None, :])
    ovx_hi = np.minimum(x2[:, None], x2[None, :])
    for i, j in zip(*np.nonzero(eq_y & (ovx_hi > ovx_lo))):
        span = Span(Axis.H, float(y1[i]), float(ovx_lo[i, j]), float(ovx_hi[i, j]))
        vert.append((int(i), int(j), span))
    horiz.sort(key=lambda t: (t[0], t[1]))
    vert.sort(key=lambda t: (t[0], t[1]))
    return horiz, vert


def test_two_blocks_side_by_side_one_left_of_edge():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    for orientation in Orientation:
        bag = build_bag(fp, orientation)
        assert len(bag.edges) == 1
        e = bag.edges[0]
        assert (e.src, e.dst, e.span.axis) == (0, 1, Axis.V)  # 0 left of 1
        assert e.span.hi - e.span.lo == pytest.approx(1.0)


def test_vertical_stack_orientation_conventions():
    # block 1 sits above block 0
    fp = make_fp([(0, 0, 1, 1), (0, 1, 1, 1)])
    mis = build_bag(fp, Orientation.MIS)
    assert len(mis.edges) == 1
    assert (mis.edges[0].src, mis.edges[0].dst, mis.edges[0].span.axis) == (1, 0, Axis.H)  # 1 above 0
    mds = build_bag(fp, Orientation.MDS)
    assert (mds.edges[0].src, mds.edges[0].dst, mds.edges[0].span.axis) == (0, 1, Axis.H)  # 0 below 1


def test_corner_contact_is_not_adjacency():
    # a valid mosaic never has corner-only contact (it would need four walls
    # meeting at a point), so exercise the rule on the raw pair detector
    fp = make_fp([(0, 0, 1, 1), (1, 1, 1, 1)], bbox=(0, 0, 2, 2))
    horiz, vert = _adjacent_pairs(fp)
    assert horiz == [] and vert == []


@settings(max_examples=150, deadline=None)
@given(fp=floorplans())
def test_adjacency_sweep_matches_the_dense_oracle(fp):
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(_adjacent_pairs(fp)) == repr(dense_adjacency(fp))


def test_pinwheel_bag():
    fp = make_fp(pinwheel(1, 2, 1, 2, 3, 3))
    pairs = {(e.src, e.dst, e.span.axis) for e in build_bag(fp, Orientation.MIS).edges}
    # V: src left of dst; H: src above dst
    assert pairs == {(0, 1, Axis.V), (3, 4, Axis.V), (4, 1, Axis.V), (3, 2, Axis.V),
                     (4, 0, Axis.H), (3, 0, Axis.H), (2, 4, Axis.H), (2, 1, Axis.H)}
    assert len(pairs) == 3 * (5 - 1) - 4  # 4 of its 8 T-junctions sit on the border


def test_sweep_runs_once_per_floorplan(monkeypatch):
    """One tree build sweeps the walls once, one `_touching_pairs` call per
    wall axis, and its MDS BAG is the MIS one mirrored."""
    import msroute.adjacency as adjacency

    fp = generate_random_floorplan(30, 60, 2, seed=4)
    calls = []
    sweep = adjacency._touching_pairs
    monkeypatch.setattr(adjacency, "_touching_pairs", lambda *a: calls.append(1) or sweep(*a))
    tree = build_msc_tree(fp)
    assert len(calls) == 2  # one sweep per wall axis
    v_edges = [[e for e in tree.bags[o].edges if e.span.axis is Axis.V] for o in Orientation]
    assert len(v_edges[0]) == len(v_edges[1]) > 0
    assert all(a is b for a, b in zip(*v_edges))  # the MDS BAG shares the MIS one's V edges


@settings(max_examples=60, deadline=None)
@given(fp=mosaics)
def test_mirrored_mds_bag_equals_the_directly_oriented_one(fp):
    horiz, vert = _adjacent_pairs(fp)
    oracle = sorted([BagEdge(i, j, span) for i, j, span in horiz] + [BagEdge(j, i, span) for i, j, span in vert],
                    key=lambda e: (e.src, e.dst))
    mis, mds = build_bag(fp, Orientation.MIS), build_bag(fp, Orientation.MDS)
    assert mds.orientation is Orientation.MDS and mds.edges == oracle
    assert mds.as_dot() == Bag(Orientation.MDS, list(range(len(fp.blocks))), oracle).as_dot()
    assert mds.mirrored().as_dot() == mis.as_dot() and mds.mirrored().edges == mis.edges


def test_region_geometry_memory_is_not_quadratic():
    # one dense n x n float64 array is n*n*8 bytes (5.1 MB at n=800); the
    # validation and both BAGs must fit below that
    n = 800
    fp = generate_random_floorplan(n, 0, 2, seed=11)
    tracemalloc.start()
    try:
        fp.require_valid()
        build_bag(fp, Orientation.MIS)
        build_bag(fp, Orientation.MDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_bag_requires_valid_floorplan():
    fp = make_fp([(0, 0, 1, 1), (0.5, 0, 1, 1)], bbox=(0, 0, 1.5, 1))
    with pytest.raises(ValidationError):
        build_bag(fp, Orientation.MIS)


def test_bag_edge_count_identity_on_mosaics():
    # crossing-free mosaics satisfy |edges| = 3(n-1) - b, with b the number of
    # T-junctions sitting on the floorplan border
    for n, seed in [(10, 0), (10, 3), (25, 1), (60, 2)]:
        fp = generate_random_floorplan(n, 0, 2, seed=seed)
        bag = build_bag(fp, Orientation.MIS)
        junctions = enumerate_tjunctions(fp)
        bx1, by1 = fp.origin
        bx2, by2 = bx1 + fp.width, by1 + fp.height
        tol = fp.tol
        b = sum(1 for x, y in junctions
                if abs(x - bx1) < tol or abs(x - bx2) < tol
                or abs(y - by1) < tol or abs(y - by2) < tol)
        assert len(bag.edges) == 3 * (n - 1) - b
        assert len(build_bag(fp, Orientation.MDS).edges) == len(bag.edges)


def test_bag_edges_have_positive_spans():
    fp = generate_random_floorplan(30, 0, 2, seed=5)
    for orientation in Orientation:
        for e in build_bag(fp, orientation).edges:
            assert e.span.hi - e.span.lo > fp.tol


def _is_acyclic(bag):
    """Test oracle: Kahn's algorithm removes every node of an acyclic graph."""
    indeg = {v: 0 for v in bag.nodes}
    for e in bag.edges:
        indeg[e.dst] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    for v in ready:  # grows while it is walked
        for e in bag.edges:
            if e.src == v:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
    return len(ready) == len(bag.nodes)


def test_bag_is_acyclic_both_orientations():
    for seed in range(5):
        fp = generate_random_floorplan(20, 0, 2, seed=seed)
        for orientation in Orientation:
            assert _is_acyclic(build_bag(fp, orientation))
    # the oracle itself tells a cycle apart
    (e,) = build_bag(make_fp([(0, 0, 1, 1), (1, 0, 1, 1)]), Orientation.MIS).edges
    assert not _is_acyclic(Bag(Orientation.MIS, [0, 1], [e, BagEdge(1, 0, e.span)]))


def test_tjunction_count_two_blocks():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions = enumerate_tjunctions(fp)
    assert len(junctions) == 2  # 2n - 2
    assert junctions == [(1.0, 0.0), (1.0, 1.0)]  # the wall's two ends, neither a floorplan corner


def test_tjunction_count_generated_mosaics():
    for n, seed in [(9, 0), (9, 7), (40, 2)]:
        fp = generate_random_floorplan(n, 0, 2, seed=seed)
        assert len(enumerate_tjunctions(fp)) == 2 * n - 2


def test_single_block_has_no_tjunctions():
    fp = make_fp([(0, 0, 2, 3)])
    assert enumerate_tjunctions(fp) == []


def test_crossing_floorplan_is_rejected():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    with pytest.raises(ValidationError):
        enumerate_tjunctions(fp)


def test_all_junctions_appends_four_corners():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions = all_junctions(fp)
    corners = junctions[-4:]
    assert len(junctions) == 6 and junctions[:2] == enumerate_tjunctions(fp)
    assert corners == [(0, 0), (0, 1), (2, 0), (2, 1)]


def test_dot_dump():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    dot = build_bag(fp, Orientation.MIS).as_dot()
    assert dot.startswith("digraph")
    assert "b0 -> b1" in dot
    # labels come from the wall's axis and the orientation: block 1 sits above
    # block 0, and block 2 is right of both
    fp = make_fp([(0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 2)])
    assert build_bag(fp, Orientation.MIS).as_dot() == (
        'digraph bag_mis {\n  b0;\n  b1;\n  b2;\n  b0 -> b2 [label="LEFT_OF"];\n'
        '  b1 -> b0 [label="ABOVE"];\n  b1 -> b2 [label="LEFT_OF"];\n}\n')
    assert build_bag(fp, Orientation.MDS).as_dot() == (
        'digraph bag_mds {\n  b0;\n  b1;\n  b2;\n  b0 -> b1 [label="BELOW"];\n'
        '  b0 -> b2 [label="LEFT_OF"];\n  b1 -> b2 [label="LEFT_OF"];\n}\n')
