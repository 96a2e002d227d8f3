"""Block adjacency graph construction and T-junction enumeration."""

import pytest

from msroute.adjacency import (
    Orientation,
    Relation,
    all_junctions,
    build_bag,
    enumerate_tjunctions,
    topological_order,
)
from msroute.errors import ValidationError
from msroute.floorplan import generate_random_floorplan

from test_floorplan import make_fp


def test_two_blocks_side_by_side_one_left_of_edge():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    for orientation in Orientation:
        bag = build_bag(fp, orientation)
        assert len(bag.edges) == 1
        e = bag.edges[0]
        assert (e.src, e.dst, e.relation) == (0, 1, Relation.LEFT_OF)
        assert e.span.length == pytest.approx(1.0)


def test_vertical_stack_orientation_conventions():
    # block 1 sits above block 0
    fp = make_fp([(0, 0, 1, 1), (0, 1, 1, 1)])
    mis = build_bag(fp, Orientation.MIS)
    assert len(mis.edges) == 1
    assert (mis.edges[0].src, mis.edges[0].dst, mis.edges[0].relation) == (1, 0, Relation.ABOVE)
    mds = build_bag(fp, Orientation.MDS)
    assert (mds.edges[0].src, mds.edges[0].dst, mds.edges[0].relation) == (0, 1, Relation.BELOW)


def test_corner_contact_is_not_adjacency():
    # a valid mosaic never has corner-only contact (it would need four walls
    # meeting at a point), so exercise the rule on the raw pair detector
    from msroute.adjacency import _adjacency_arrays

    fp = make_fp([(0, 0, 1, 1), (1, 1, 1, 1)], bbox=(0, 0, 2, 2))
    horiz, vert = _adjacency_arrays(fp)
    assert horiz == [] and vert == []


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
        b = sum(1 for j in junctions
                if abs(j.x - bx1) < tol or abs(j.x - bx2) < tol
                or abs(j.y - by1) < tol or abs(j.y - by2) < tol)
        assert len(bag.edges) == 3 * (n - 1) - b
        assert len(build_bag(fp, Orientation.MDS).edges) == len(bag.edges)


def test_bag_edges_have_positive_spans():
    fp = generate_random_floorplan(30, 0, 2, seed=5)
    for orientation in Orientation:
        for e in build_bag(fp, orientation).edges:
            assert e.span.length > fp.tol


def test_bag_is_acyclic_both_orientations():
    for seed in range(5):
        fp = generate_random_floorplan(20, 0, 2, seed=seed)
        for orientation in Orientation:
            order = topological_order(build_bag(fp, orientation))
            assert sorted(order) == list(range(20))


def test_tjunction_count_two_blocks():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    junctions = enumerate_tjunctions(fp)
    assert len(junctions) == 2  # 2n - 2
    assert {(j.x, j.y) for j in junctions} == {(1.0, 0.0), (1.0, 1.0)}
    assert all(not j.on_boundary for j in junctions)


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
    corners = [j for j in junctions if j.on_boundary]
    assert len(junctions) == 6 and len(corners) == 4
    assert {(j.x, j.y) for j in corners} == {(0, 0), (0, 1), (2, 0), (2, 1)}
    assert [j.id for j in junctions] == list(range(6))


def test_dot_dump():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    dot = build_bag(fp, Orientation.MIS).as_dot()
    assert dot.startswith("digraph")
    assert "b0 -> b1" in dot
