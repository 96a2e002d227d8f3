"""Staircase bipartitioning, MSC tree, segment extraction, capacities."""

import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msroute.adjacency import Axis, Bag, Orientation, all_junctions, build_bag, enumerate_tjunctions
from msroute.floorplan import Net, Pin, compute_hpwl, generate_random_floorplan
from msroute.staircase import (
    BalanceMode,
    _is_monotone_keys,
    _stays_monotone,
    assign_capacities,
    bipartition,
    build_msc_tree,
    extract_segments,
    is_monotone_chain,
    segments_csv,
    tree_text,
)

from test_floorplan import make_fp, make_net


# ---------------------------------------------------------------------------
# independent geometric oracle (from raw rectangles only)

def _shared_wall(bi, bj, tol=1e-9):
    """Shared boundary of two blocks: ('V'|'H', fixed, lo, hi, left_or_below_id)."""
    if abs(bi.x2 - bj.x) < tol:
        lo, hi = max(bi.y, bj.y), min(bi.y2, bj.y2)
        if hi - lo > tol:
            return ("V", bj.x, lo, hi, bi.id)
    if abs(bj.x2 - bi.x) < tol:
        lo, hi = max(bi.y, bj.y), min(bi.y2, bj.y2)
        if hi - lo > tol:
            return ("V", bi.x, lo, hi, bj.id)
    if abs(bi.y2 - bj.y) < tol:
        lo, hi = max(bi.x, bj.x), min(bi.x2, bj.x2)
        if hi - lo > tol:
            return ("H", bj.y, lo, hi, bi.id)
    if abs(bj.y2 - bi.y) < tol:
        lo, hi = max(bi.x, bj.x), min(bi.x2, bj.x2)
        if hi - lo > tol:
            return ("H", bi.y, lo, hi, bj.id)
    return None


def _all_walls(fp):
    walls = []
    for bi, bj in itertools.combinations(fp.blocks, 2):
        wall = _shared_wall(bi, bj)
        if wall:
            walls.append((wall, bi.id, bj.id))
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

def test_two_blocks_cut_is_the_shared_wall():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    cut = bipartition(build_bag(fp, Orientation.MIS), [])
    assert cut.left_set == (0,) and cut.right_set == (1,)
    assert len(cut.cut_edges) == 1
    span = cut.cut_edges[0].span
    assert (span.axis, span.fixed) == (Axis.V, 1.0)


def test_four_block_number_balance():
    fp = make_fp([(0, 0, 1, 2), (1, 0, 2, 1), (1, 1, 2, 1), (3, 0, 1, 2)])
    cut = bipartition(build_bag(fp, Orientation.MIS), [], BalanceMode.NUMBER)
    assert len(cut.left_set) == 2 and len(cut.right_set) == 2


def test_bipartition_matches_exhaustive_oracle():
    for n, seed in [(6, 0), (8, 1), (10, 2), (10, 5)]:
        fp = generate_random_floorplan(n, 2 * n, 4, seed=seed)
        for orientation in Orientation:
            bag = build_bag(fp, orientation)
            valid = _oracle_enumerate_cuts(fp, orientation)
            balanced = [c for c in valid if abs(len(c) - (n - len(c))) <= 1]
            assert balanced, "oracle found no balanced monotone cut"
            cut = bipartition(bag, fp.nets, BalanceMode.NUMBER)
            assert set(cut.left_set) in valid
            assert abs(len(cut.left_set) - len(cut.right_set)) <= 1


def test_bipartition_cut_nets_use_pin_presence():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    crossing = Net(0, "x", [Pin(0, 0, 0, 0, 0.5, 0.5), Pin(0, 1, 0, 0, 1.5, 0.5)])
    crossing.hpwl = compute_hpwl(crossing)
    local = Net(1, "l", [Pin(1, 0, 0, 0, 0.2, 0.2), Pin(1, 0, 0, 0, 0.8, 0.8)])
    local.hpwl = compute_hpwl(local)
    cut = bipartition(build_bag(fp, Orientation.MIS), [crossing, local])
    assert cut.cut_nets == [0]


def test_area_balance_bound():
    for seed in range(4):
        fp = generate_random_floorplan(12, 0, 2, seed=seed)
        bag = build_bag(fp, Orientation.MIS)
        areas = {b.id: b.area for b in fp.blocks}
        cut = bipartition(bag, [], BalanceMode.AREA, areas)
        left_area = sum(areas[b] for b in cut.left_set)
        right_area = sum(areas[b] for b in cut.right_set)
        assert abs(left_area - right_area) <= max(areas.values()) + 1e-6


# ---------------------------------------------------------------------------
# MSC tree

def test_tree_internal_node_counts():
    for n, seed in [(2, 0), (9, 1), (17, 2)]:
        fp = generate_random_floorplan(n, n, 3, seed=seed)
        tree = build_msc_tree(fp)
        assert tree.n_internal == n - 1


def test_tree_single_block_is_leaf():
    fp = make_fp([(0, 0, 2, 2)])
    tree = build_msc_tree(fp)
    assert tree.n_internal == 0
    assert tree.root.is_leaf and tree.root.block_id == 0


def test_tree_orientations_alternate():
    fp = generate_random_floorplan(12, 10, 3, seed=4)
    tree = build_msc_tree(fp)
    assert tree.root.cut.orientation is Orientation.MIS

    def check(node, depth):
        if node.is_leaf:
            return
        want = Orientation.MIS if depth % 2 == 0 else Orientation.MDS
        assert node.cut.orientation is want
        check(node.left, depth + 1)
        check(node.right, depth + 1)

    check(tree.root, 0)


def test_tree_cuts_are_monotone_and_balanced():
    for seed in range(6):
        fp = generate_random_floorplan(16, 40, 4, seed=seed)
        tree = build_msc_tree(fp)
        for cut in tree.cuts:
            assert is_monotone_chain(cut.cut_edges, cut.orientation)
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
    fp = generate_random_floorplan(10, 0, 2, seed=6)
    _, junctions, segments = _prepared(fp)
    pos = {j.id: (j.x, j.y) for j in junctions}
    for s in segments:
        assert s.length > fp.tol
        for jid, end in ((s.j1, (s.fixed, s.lo)), (s.j2, (s.fixed, s.hi))):
            px, py = pos[jid]
            if s.axis is Axis.V:
                assert (px, py) == end
            else:
                assert (px, py) == (end[1], end[0])


def test_junction_incident_segments_degree():
    fp = generate_random_floorplan(10, 0, 2, seed=6)
    _, junctions, segments = _prepared(fp)
    degree = Counter(jid for s in segments for jid in (s.j1, s.j2))
    for j in junctions:
        assert degree[j.id] == (2 if j.on_boundary else 3)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), nets_per_block=st.integers(0, 4), seed=st.integers(0, 10_000),
       balance=st.sampled_from(list(BalanceMode)))
def test_region_invariants_on_generated_mosaics(n, nets_per_block, seed, balance):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    tree = build_msc_tree(fp, balance)
    tjunctions = enumerate_tjunctions(fp)
    junctions = all_junctions(fp)
    segments = extract_segments(tree, fp, junctions)
    assert tree.n_internal == n - 1
    assert len(tjunctions) == 2 * n - 2
    bx1, by1, bx2, by2 = fp.snapped_rects()[4]
    b = sum(1 for j in tjunctions if j.x in (bx1, bx2) or j.y in (by1, by2))
    for orientation in Orientation:
        assert len(build_bag(fp, orientation).edges) == 3 * (n - 1) - b
    assert len(segments) == 3 * n + 1
    degree = Counter(jid for s in segments for jid in (s.j1, s.j2))
    assert [degree[j.id] for j in junctions] == [2 if j.on_boundary else 3 for j in junctions]
    cut_walls = Counter(frozenset((e.src, e.dst)) for cut in tree.cuts for e in cut.cut_edges)
    assert all(count == 1 for count in cut_walls.values())
    assert set(cut_walls) == {frozenset((e.src, e.dst)) for e in tree.bags[Orientation.MIS].edges}


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
        pts = [(rng.uniform(0, fp.width), rng.uniform(0, fp.height)) for _ in range(3)]
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
       balance=st.sampled_from(list(BalanceMode)))
def test_tree_cuts_equal_bipartition_on_the_full_instance(n, nets_per_block, seed, balance):
    fp = generate_random_floorplan(n, n * nets_per_block, 6, seed=seed)
    tree = build_msc_tree(fp, balance)
    full = {o: build_bag(fp, o) for o in Orientation}
    areas = {b.id: b.area for b in fp.blocks}
    for cut in tree.cuts:
        blocks = set(cut.left_set) | set(cut.right_set)
        edges = [e for e in full[cut.orientation].edges if e.src in blocks and e.dst in blocks]
        ref = bipartition(Bag(cut.orientation, sorted(blocks), edges), fp.nets, balance, areas)
        assert ref.left_set == cut.left_set
        assert ref.cut_edges == cut.cut_edges
        assert ref.cut_nets == cut.cut_nets


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
    new_cut = [key for key, i in chain if (key, i) not in removed] + [key for key, _ in added]
    assert _stays_monotone(chain, removed, added) == _is_monotone_keys(new_cut)


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
