"""Hierarchical monotone staircase bipartitioning and routing segments.

A monotone staircase cut of the (sub-)floorplan corresponds one-to-one with a
predecessor-closed node set of the oriented block adjacency graph: absorbing
BAG sources grows the upper-left (MIS) or lower-left (MDS) side while its wall
boundary stays a monotone staircase.  At each step the bipartitioner orders
the sources by the change they would make to the cut-net count, then by
block id, absorbs the first one that keeps the cut a monotone staircase, and
stops at the balance point.  The count sees only the pins on
the bag's blocks, and a net with fewer than 2 of them is never cut.
`assign_capacities` sizes the segments from every net's full pin box
(`floorplan.net_box`), not from the cut nets, in one sweep per axis.

Recursing with alternating orientations yields the MSC tree: a full binary
tree with the blocks as leaves and exactly n-1 cuts as internal nodes.  Each
net's pins are counted per block once, at the root.  Each child gets only
its own nets (those with at least 2 pins on its blocks, with only those
blocks' counts) and its own MIS and MDS edges, so a node's work scales with
its size, not with the whole instance.  Every adjacency wall is consumed by
exactly one cut (the tree node separating its two blocks), so the cut walls
plus the floorplan border cover all routing channels.
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .adjacency import Axis, Bag, BagEdge, Orientation, Span, build_bag
from .errors import InternalError
from .floorplan import Floorplan, Net, net_box, sequential_sum


class BalanceMode(str, Enum):
    NUMBER = "NUMBER"
    AREA = "AREA"


@dataclass(slots=True)
class MsCut:
    orientation: Orientation
    left_set: tuple[int, ...]   # upper-left blocks (MIS) / lower-left (MDS)
    right_set: tuple[int, ...]
    cut_edges: list[BagEdge]    # staircase order
    cut_nets: list[int]


@dataclass
class MscTree:
    """The tree as its cuts in preorder.  A side of one block is a leaf; a
    cut's larger left side is split by the cut after it, and its larger
    right side by the cut after the left side's cuts."""

    cuts: list[MsCut]
    bags: dict[Orientation, Bag]  # the full MIS and MDS BAGs it was cut from


@dataclass(slots=True)
class Segment:
    """Atomic routing resource: a junction-bounded piece of a wall.

    region_id is the owning cut's index in MscTree.cuts (its preorder
    position), or -(side+1) for the four border (non-MS) walls.  A run's
    usage lives in router.RoutingState, not here.
    """

    id: int
    region_id: int
    axis: Axis
    fixed: float
    lo: float
    hi: float
    j1: int
    j2: int
    r: int = 0
    length: float = field(init=False)  # hi - lo, stored once: the router reads it at every step

    def __post_init__(self):
        self.length = self.hi - self.lo


# ---------------------------------------------------------------------------
# bipartitioning

# A net as a cut sees it: (net id, the blocks it has pins on, its pin count
# on each of them, their sum).  Two tuples take less memory than a dict.
PinCounts = tuple[int, tuple[int, ...], tuple[int, ...], int]


def _count_pins(nets: list[Net]) -> list[PinCounts]:
    """Each net's pins per block, counted once."""
    counted = []
    for net in nets:
        counts: dict[int, int] = {}
        for p in net.pins:
            counts[p.block_id] = counts.get(p.block_id, 0) + 1
        counted.append((net.id, tuple(counts), tuple(counts.values()), len(net.pins)))
    return counted


def _counts_within(nets: list[PinCounts], blocks: set[int]) -> list[PinCounts]:
    """The nets with at least 2 pins on `blocks`, each with only those
    blocks' counts (net order kept)."""
    kept = []
    for entry in nets:
        net_id, on, counts, total = entry
        if blocks.issuperset(on):  # all its pins are here: share the entry
            if total >= 2:
                kept.append(entry)
            continue
        own = [(b, c) for b, c in zip(on, counts) if b in blocks]
        total = sum(c for _, c in own)
        if total >= 2:
            kept.append((net_id, *zip(*own), total))
    return kept


def _staircase_key(span: Span, orientation: Orientation) -> tuple[float, float, float, float]:
    """A wall's bounding box (x1, y1, x2, y2), with y mirrored (negated, so
    y1 and y2 swap) for MDS so that both orientations sort and chain alike."""
    if span.axis is Axis.V:
        x1, y1, x2, y2 = span.fixed, span.lo, span.fixed, span.hi
    else:
        x1, y1, x2, y2 = span.lo, span.fixed, span.hi, span.fixed
    if orientation is Orientation.MIS:
        return (x1, y1, x2, y2)
    return (x1, -y2, x2, -y1)


def _staircase_keys(bag: Bag) -> list[tuple[float, float, float, float]]:
    return [_staircase_key(e.span, bag.orientation) for e in bag.edges]


def _is_monotone_keys(keys: list[tuple[float, float, float, float]]) -> bool:
    # in staircase order each wall ends, in x and in (mirrored) y, where the next begins or before
    ordered = sorted(keys)
    return all(a[2] <= b[0] and a[3] <= b[1] for a, b in zip(ordered, ordered[1:]))


def _stays_monotone(chain: list, removed: list, added: list) -> bool:
    """Whether `chain`, a monotone staircase as a sorted list of (key, edge
    index) items, stays monotone once the `removed` items leave it and the
    `added` ones join it.

    Only the window between the kept walls either side of the change is
    checked: every pair outside it was a neighbour pair of `chain` already.
    """
    spots = [bisect.bisect_left(chain, item) for item in removed + added]
    if not spots:
        return True
    lo, hi = max(min(spots) - 1, 0), max(spots) + 1
    window = sorted([item for item in chain[lo:hi + 1] if item not in removed] + added)
    return all(a[0][2] <= b[0][0] and a[0][3] <= b[0][1] for a, b in zip(window, window[1:]))


def bipartition(
    bag: Bag,
    nets: list[Net],
    balance: BalanceMode = BalanceMode.NUMBER,
    areas: dict[int, float] | None = None,
) -> MsCut:
    """Split the bag's blocks by a balanced monotone staircase cut.

    Returns an MsCut whose left_set is the absorbed (upper/lower-left) side.
    Each step absorbs the least (cut change, block id) source that keeps the
    cut a monotone staircase; NUMBER stops at half the blocks, AREA at half
    the area (giving the last block back when that is nearer the half).
    """
    return _cut(bag, _counts_within(_count_pins(nets), set(bag.nodes)), balance, areas, _staircase_keys(bag))


def _cut(
    bag: Bag,
    nets: list[PinCounts],
    balance: BalanceMode,
    areas: dict[int, float] | None,
    keys: list[tuple[float, float, float, float]],
) -> MsCut:
    """bipartition over nets already counted and cut down to the bag's blocks;
    `keys` are the edges' staircase keys, in bag.edges order."""
    nodes = sorted(bag.nodes)
    n_sub = len(nodes)
    if n_sub < 2:
        raise ValueError("bipartition needs at least 2 blocks")
    if balance is BalanceMode.AREA and areas is None:
        raise ValueError("AREA balance requires block areas")

    succ: dict[int, list[int]] = {v: [] for v in nodes}
    indeg: dict[int, int] = {v: 0 for v in nodes}
    # per block, its in- and out-edges as (staircase key, edge index) items
    in_items: dict[int, list] = {v: [] for v in nodes}
    out_items: dict[int, list] = {v: [] for v in nodes}
    for idx, e in enumerate(bag.edges):
        succ[e.src].append(e.dst)
        indeg[e.dst] += 1
        in_items[e.dst].append((keys[idx], idx))
        out_items[e.src].append((keys[idx], idx))

    # per net: its pin count on the bag's blocks and how many of those pins
    # the absorbed side holds; per block, the (net index, pin count) of each
    # net with pins on it
    total = [n_pins for _, _, _, n_pins in nets]
    pins_on: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for i, (_, on, counts, _) in enumerate(nets):
        for bid, count in zip(on, counts):
            pins_on[bid].append((i, count))
    in_a = [0] * len(total)

    def cut_change(v: int) -> int:
        """The change in the cut-net count when block v joins the absorbed side."""
        change = 0
        for i, count in pins_on[v]:
            change += (in_a[i] + count < total[i]) - (0 < in_a[i] < total[i])
        return change

    sources = {v for v in nodes if indeg[v] == 0}
    absorbed: list[int] = []
    a_area = 0.0
    total_area = sequential_sum(areas[v] for v in nodes) if areas else 0.0
    chain: list = []  # the current cut as sorted (key, edge index) items, a monotone staircase

    # NUMBER stops at half the blocks, AREA at half the area; both leave one block
    while len(absorbed) < n_sub - 1 and (
            len(absorbed) < n_sub // 2 if balance is BalanceMode.NUMBER else 2.0 * a_area < total_area):
        # in staircase-shaped sub-regions not every source keeps the cut a
        # single monotone chain: absorb the least (cut change, id) source that
        # does.  v is a source, so its in-edges leave the cut and its out-edges join it
        best = next((v for v in sorted(sources, key=lambda v: (cut_change(v), v))
                     if _stays_monotone(chain, in_items[v], out_items[v])), None)
        if best is None:
            raise InternalError("no source keeps the cut a monotone staircase")
        sources.remove(best)
        for i, count in pins_on[best]:
            in_a[i] += count
        absorbed.append(best)
        for item in in_items[best]:
            del chain[bisect.bisect_left(chain, item)]
        for item in out_items[best]:
            bisect.insort(chain, item)
        if areas:
            a_area += areas[best]
        for w in succ[best]:
            indeg[w] -= 1
            if indeg[w] == 0:
                sources.add(w)

    if balance is BalanceMode.AREA and len(absorbed) > 1:
        last = absorbed[-1]
        with_last = abs(total_area - 2.0 * a_area)
        without = abs(total_area - 2.0 * (a_area - areas[last]))
        if without < with_last:
            for i, count in pins_on[last]:
                in_a[i] -= count
            absorbed.pop()
            a_area -= areas[last]

    left = set(absorbed)
    cut_items = []  # (staircase key, edge index) of the cut's edges
    for idx, e in enumerate(bag.edges):
        src_in, dst_in = e.src in left, e.dst in left
        if src_in and not dst_in:
            cut_items.append((keys[idx], idx))
        elif dst_in and not src_in:
            raise InternalError("cut is not predecessor-closed; not a staircase")
    if not _is_monotone_keys([key for key, _ in cut_items]):
        raise InternalError("bipartition produced a non-monotone cut")

    return MsCut(
        orientation=bag.orientation,
        left_set=tuple(sorted(absorbed)),
        right_set=tuple(v for v in nodes if v not in left),
        cut_edges=[bag.edges[idx] for _, idx in sorted(cut_items)],
        cut_nets=[nets[i][0] for i, held in enumerate(in_a) if 0 < held < total[i]],
    )


def _induce(bag: Bag, keys: list, subset: set[int]) -> tuple[Bag, list]:
    """The bag's edges within subset, with their staircase keys."""
    kept = [k for k, e in enumerate(bag.edges) if e.src in subset and e.dst in subset]
    return Bag(bag.orientation, sorted(subset), [bag.edges[k] for k in kept]), [keys[k] for k in kept]


def build_msc_tree(fp: Floorplan, balance: BalanceMode = BalanceMode.NUMBER) -> MscTree:
    """Recursively bipartition the floorplan over its nets; root is MIS, levels alternate."""
    fp.require_valid()
    full = {o: build_bag(fp, o) for o in Orientation}
    areas = {b.id: b.area for b in fp.blocks}
    cuts: list[MsCut] = []
    # (blocks, the parent's nets and (bag, keys) per orientation, depth); a
    # node pushes its right side before its left, so cuts come out in preorder
    stack = [(tuple(range(len(fp.blocks))), _count_pins(fp.nets),
              {o: (bag, _staircase_keys(bag)) for o, bag in full.items()}, 0)]
    while stack:
        block_ids, nets, bags, depth = stack.pop()
        if len(block_ids) == 1:
            continue
        orientation = Orientation.MIS if depth % 2 == 0 else Orientation.MDS
        blocks = set(block_ids)
        nets = _counts_within(nets, blocks)
        bags = {o: _induce(bag, keys, blocks) for o, (bag, keys) in bags.items()}
        bag, keys = bags[orientation]
        cut = _cut(bag, nets, balance, areas, keys)
        cuts.append(cut)
        stack.append((cut.right_set, nets, bags, depth + 1))
        stack.append((cut.left_set, nets, bags, depth + 1))
    return MscTree(cuts, full)


# ---------------------------------------------------------------------------
# segments

def extract_segments(tree: MscTree, fp: Floorplan, junctions) -> list[Segment]:
    """Split every cut wall and border wall at the junctions lying on it.

    `junctions` must be the full set of (x, y) points (interior T-junctions
    plus the floorplan corners, as adjacency.all_junctions lists them); each
    resulting segment is bounded by exactly two of them, named by their list
    indices.
    """
    vlines: dict[float, list[tuple[float, int]]] = {}
    hlines: dict[float, list[tuple[float, int]]] = {}
    for jid, (x, y) in enumerate(junctions):
        vlines.setdefault(x, []).append((y, jid))
        hlines.setdefault(y, []).append((x, jid))
    for line in vlines.values():
        line.sort()
    for line in hlines.values():
        line.sort()

    walls = [(e.span, region) for region, cut in enumerate(tree.cuts) for e in cut.cut_edges]
    bx1, by1, bx2, by2 = fp.snapped_rects()[4]
    borders = (Span(Axis.H, by1, bx1, bx2), Span(Axis.H, by2, bx1, bx2),
               Span(Axis.V, bx1, by1, by2), Span(Axis.V, bx2, by1, by2))
    walls += [(span, -(side + 1)) for side, span in enumerate(borders)]

    # (axis, fixed, lo, hi, region, j1, j2) per piece; no two share (axis, fixed, lo)
    pieces = []
    for span, region in walls:
        # on a validated mosaic every wall ends at junctions and holds no two at one point
        line = (vlines if span.axis is Axis.V else hlines).get(span.fixed, [])
        first = bisect.bisect_left(line, (span.lo, -1))  # junction ids are >= 0
        on_span = line[first:bisect.bisect_right(line, (span.hi, math.inf), first)]
        if len(on_span) < 2 or on_span[0][0] != span.lo or on_span[-1][0] != span.hi:
            raise InternalError(f"wall {span} endpoints are not junction-bounded ({on_span})")
        for (c1, ja), (c2, jb) in zip(on_span, on_span[1:]):
            if c2 <= c1:
                raise InternalError(f"zero-length piece on wall {span}")
            pieces.append((span.axis, span.fixed, c1, c2, region, ja, jb))

    pieces.sort()
    return [
        Segment(id=i, region_id=region, axis=axis, fixed=fixed, lo=lo, hi=hi, j1=ja, j2=jb)
        for i, (axis, fixed, lo, hi, region, ja, jb) in enumerate(pieces)
    ]


def _touching(walls: list[tuple[float, float, float]], boxes: list[tuple[float, float, float, float]],
              tol: float) -> list[int]:
    """Per wall (fixed, lo, hi), how many boxes (f1, p1, f2, p2) touch it:
    f1 - tol <= fixed <= f2 + tol and max(lo, p1) <= min(hi, p2) + tol.

    A sweep along `fixed`.  A box is active at a wall once f1 - tol <= fixed
    (it has opened) and until f2 + tol < fixed (it has closed); every closed
    box has opened.  Rounding is monotone, so the span test is exactly
    lo <= p2 + tol and p1 <= hi + tol, and with lo <= hi and p1 <= p2 no box
    fails both.  A wall's count is thus the active boxes with p1 <= hi + tol
    less the active ones with p2 + tol < lo: one bisection each of the active
    boxes' p1 and p2 + tol, kept sorted.
    """
    by_opening = sorted(boxes)
    by_closing = sorted(boxes, key=itemgetter(2))
    opening = [f1 - tol for f1, _, _, _ in by_opening]   # rounding is monotone: both stay sorted
    closing = [f2 + tol for _, _, f2, _ in by_closing]
    starts: list[float] = []  # p1 of the active boxes, sorted
    ends: list[float] = []    # p2 + tol of the active boxes, sorted
    counts = [0] * len(walls)
    opened = closed = 0
    for w in sorted(range(len(walls)), key=walls.__getitem__):
        fixed, lo, hi = walls[w]
        upto = bisect.bisect_right(opening, fixed, opened)
        for _, p1, _, p2 in by_opening[opened:upto]:
            bisect.insort(starts, p1)
            bisect.insort(ends, p2 + tol)
        opened = upto
        upto = bisect.bisect_left(closing, fixed, closed)
        for _, p1, _, p2 in by_closing[closed:upto]:
            del starts[bisect.bisect_left(starts, p1)]
            del ends[bisect.bisect_left(ends, p2 + tol)]
        closed = upto
        counts[w] = bisect.bisect_right(starts, hi + tol) - bisect.bisect_left(ends, lo)
    return counts


def assign_capacities(segments: list[Segment], nets: list[Net], tol: float) -> None:
    """Set every segment's reference capacity r (nets per base layer).

    Interior segments (owned by an ms-cut) count the nets whose pin bounding
    box touches the segment's wall — the nets that may need to cross it when
    routed within their box — with a floor of 1 so no interior wall
    disconnects the junction graph; each axis is one sweep (`_touching`).
    Border (non-MS) segments count the pins sitting on the wall piece itself,
    found by bisecting their wall's pins sorted along it; zero makes the
    segment unusable.
    """
    boxes = [net_box(net) for net in nets]
    # a V wall's fixed coordinate is x and its span is in y; an H wall's the other way
    across = {Axis.V: boxes, Axis.H: [(y1, x1, y2, x2) for x1, y1, x2, y2 in boxes]}
    for axis in Axis:
        interior = [seg for seg in segments if seg.region_id >= 0 and seg.axis is axis]
        counts = _touching([(seg.fixed, seg.lo, seg.hi) for seg in interior], across[axis], tol)
        for seg, count in zip(interior, counts):
            seg.r = max(1, count)

    pins = [(p.x, p.y) for net in nets for p in net.pins]
    on_wall: dict[tuple[Axis, float], list[float]] = {}  # per border wall, its pins sorted along it
    for seg in segments:
        if seg.region_id >= 0:
            continue
        along = on_wall.get((seg.axis, seg.fixed))
        if along is None:
            if seg.axis is Axis.V:
                along = sorted(y for x, y in pins if -tol <= x - seg.fixed <= tol)
            else:
                along = sorted(x for x, y in pins if -tol <= y - seg.fixed <= tol)
            on_wall[seg.axis, seg.fixed] = along
        seg.r = bisect.bisect_right(along, seg.hi + tol) - bisect.bisect_left(along, seg.lo - tol)


# ---------------------------------------------------------------------------
# dumps

def tree_text(tree: MscTree) -> str:
    """Indented text rendering of the MSC tree, walking its preorder cuts."""
    out = io.StringIO()
    cuts = iter(enumerate(tree.cuts))
    stack = [(tuple(tree.bags[Orientation.MIS].nodes), 0)]  # (blocks, depth), right side pushed first
    while stack:
        blocks, depth = stack.pop()
        pad = "  " * depth
        if len(blocks) == 1:
            out.write(f"{pad}block {blocks[0]}\n")
            continue
        cut_id, cut = next(cuts)
        out.write(
            f"{pad}cut {cut_id} [{cut.orientation.value}] "
            f"left={list(cut.left_set)} right={list(cut.right_set)} "
            f"cut_nets={len(cut.cut_nets)}\n"
        )
        stack.append((cut.right_set, depth + 1))
        stack.append((cut.left_set, depth + 1))
    return out.getvalue()


def segments_csv(segments: list[Segment]) -> str:
    lines = ["id,axis,fixed,lo,hi,r"]
    for s in segments:
        lines.append(f"{s.id},{s.axis.value},{s.fixed:.6f},{s.lo:.6f},{s.hi:.6f},{s.r}")
    return "\n".join(lines) + "\n"
