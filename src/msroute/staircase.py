"""Hierarchical monotone staircase bipartitioning and routing segments.

A monotone staircase cut of the (sub-)floorplan corresponds one-to-one with a
predecessor-closed node set of the oriented block adjacency graph: absorbing
BAG sources grows the upper-left (MIS) or lower-left (MDS) side while its wall
boundary stays a monotone staircase.  At each step the bipartitioner orders
the sources by the change they would make to the cut-net count, then by
block id, absorbs the first one that keeps the cut a monotone staircase, and
stops at the balance point.  The count sees only the pins on the blocks
being cut, and a net with fewer than 2 of them is never cut.
`assign_capacities` sizes the segments from every net's full pin box
(`floorplan.net_box`), not from the cut nets, in one sweep per axis.

Recursing with alternating orientations yields the MSC tree: a full binary
tree with the blocks as leaves and exactly n-1 cuts as internal nodes, each
made by one `bipartition` call.  Each net's pins are counted per block once,
at the root, and each node carries one list of walls, its MIS BAG edges; an
MDS cut reads them mirrored.  The chain of walls a cut's steps grow is the
cut.  Once a node's cut is final it splits the node's nets and its walls
between its two sides, in one pass over each list: a net wholly on one side
goes there as it is, a cut net goes to each side holding at least 2 of its
pins with only that side's counts, and a wall goes to the side holding both
its ends.  So a node's work scales with its size, not with the whole
instance.  Every adjacency wall is consumed by exactly one cut
(the tree node separating its two blocks), so the cut walls plus the
floorplan border cover all routing channels.

No junction lies inside a cut wall or inside a block's side on the border,
so each is one segment: the 3(n-1)-b cut walls and the b+4 border sides,
with b the T-junctions on the border, make 3n+1 segments.
"""

from __future__ import annotations

import bisect
import io
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
    bag: Bag  # the full MIS BAG it was cut from


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

# A net as a cut sees it: (its position in fp.nets, the blocks it has pins on,
# its pin count on each of them, their sum).  Two tuples take less memory than a dict.
PinCounts = tuple[int, tuple[int, ...], tuple[int, ...], int]

# A wall as a cut sees it: (its staircase key, its position in the node's walls).
Item = tuple[tuple[float, float, float, float], int]
# What a cut hands one of its sides: its walls (MIS BAG edges, in bag order), and its nets.
Side = tuple[list[BagEdge], list[PinCounts]]


def _count_pins(nets: list[Net], blocks: range | set[int]) -> list[PinCounts]:
    """Each net's pins per block of `blocks`, counted once; the nets with
    fewer than 2 pins there are left out (net order kept)."""
    counted = []
    for i, net in enumerate(nets):
        counts: dict[int, int] = {}
        for p in net.pins:
            if (b := p.block_id) in blocks:
                counts[b] = counts.get(b, 0) + 1
        if (total := sum(counts.values())) >= 2:
            counted.append((i, tuple(counts), tuple(counts.values()), total))
    return counted


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


def _is_monotone_keys(keys: list[tuple[float, float, float, float]]) -> bool:
    # in staircase order each wall ends, in x and in (mirrored) y, where the next begins or before
    ordered = sorted(keys)
    return all(a[2] <= b[0] and a[3] <= b[1] for a, b in zip(ordered, ordered[1:]))


def _absorb(chain: list[Item], removed: list[Item], added: list[Item]) -> bool:
    """Whether `chain`, a monotone staircase as a sorted list of items, stays
    monotone once the `removed` items (all in it) leave it and the `added`
    ones join it; if so, make that change.

    Only the window between the kept walls either side of the change is
    checked and rewritten: every pair outside it was a neighbour pair of
    `chain` already, and every added item sorts inside it.
    """
    change = removed + added
    if not change:
        return True
    # bisect_left is monotone in the item, so these are the least and the
    # greatest of the change's spots
    lo = max(bisect.bisect_left(chain, min(change)) - 1, 0)
    hi = bisect.bisect_left(chain, max(change)) + 2
    window = sorted([item for item in chain[lo:hi] if item not in removed] + added)
    for a, b in zip(window, window[1:]):
        if a[0][2] > b[0][0] or a[0][3] > b[0][1]:
            return False
    chain[lo:hi] = window
    return True


def bipartition(orientation: Orientation, nodes: tuple[int, ...], walls: list[BagEdge],
                nets: list[PinCounts], balance: BalanceMode, areas: list[float]) -> tuple[MsCut, Side, Side]:
    """Split the sorted blocks `nodes` (at least 2) by a balanced monotone
    staircase cut, given the walls within them as MIS BAG edges (in bag
    order) and the nets counted on them (`_count_pins`).  Under MDS each
    wall's edge is read mirrored (`BagEdge.mirrored`).

    The cut's left_set is the absorbed (upper/lower-left) side.  Each step
    absorbs the least (cut change, block id) source that keeps the cut a
    monotone staircase; NUMBER stops at half the blocks, AREA at half the
    area (giving the last block back when that is nearer the half).  The
    chain of walls the steps grow is the cut.

    Returns the cut, then what it hands its left and its right side: a wall
    goes to the side holding both its ends, a net to each side holding at
    least 2 of its pins, cut down to that side's blocks only when it is a
    cut net.
    """
    # per wall its edge under `orientation`; per block, its in- and out-walls
    # as items, and how many in-walls of an unabsorbed block are left
    edges = walls if orientation is Orientation.MIS else [e.mirrored() for e in walls]
    in_items: dict[int, list[Item]] = {v: [] for v in nodes}
    out_items: dict[int, list[Item]] = {v: [] for v in nodes}
    for i, e in enumerate(edges):
        item = (_staircase_key(e.span, orientation), i)
        in_items[e.dst].append(item)
        out_items[e.src].append(item)
    indeg = {v: len(in_items[v]) for v in nodes}

    # per net: its pin count on the blocks and how many of those pins the
    # absorbed side holds; per block, the pin count on it of each net with
    # pins there, by net index
    total = [n_pins for _, _, _, n_pins in nets]
    pins_on: dict[int, dict[int, int]] = {v: {} for v in nodes}
    for i, (_, on, counts, _) in enumerate(nets):
        for bid, count in zip(on, counts):
            pins_on[bid][i] = count
    in_a = [0] * len(total)

    def cut_change(v: int) -> int:
        """The change in the cut-net count when block v joins the absorbed side."""
        change = 0
        for i, count in pins_on[v].items():
            held, n_pins = in_a[i], total[i]
            change += (held + count < n_pins) - (0 < held < n_pins)
        return change

    sources = {v for v in nodes if not indeg[v]}
    absorbed: list[int] = []
    a_area = 0.0
    total_area = sequential_sum(areas[v] for v in nodes)
    chain: list[Item] = []  # the current cut, sorted, a monotone staircase

    # NUMBER stops at half the blocks, AREA at half the area; both leave one block
    while len(absorbed) < len(nodes) - 1 and (
            len(absorbed) < len(nodes) // 2 if balance is BalanceMode.NUMBER else 2.0 * a_area < total_area):
        # in staircase-shaped sub-regions not every source keeps the cut a
        # single monotone chain: absorb the least (cut change, id) source that
        # does.  A source's in-walls leave the cut and its out-walls join it
        ranked = [v for _, v in sorted([(cut_change(v), v) for v in sources])] if len(sources) > 1 else sources
        for best in ranked:
            if _absorb(chain, in_items[best], out_items[best]):
                break
        else:
            raise InternalError("no source keeps the cut a monotone staircase")
        sources.remove(best)
        absorbed.append(best)
        for i, count in pins_on[best].items():
            in_a[i] += count
        for _, i in out_items[best]:
            w = edges[i].dst
            indeg[w] -= 1
            if not indeg[w]:
                sources.add(w)
        a_area += areas[best]

    if balance is BalanceMode.AREA and len(absorbed) > 1:
        last = absorbed[-1]
        # give the last block back when the area without it is nearer the half,
        # undoing its step on the chain
        if abs(total_area - 2.0 * (a_area - areas[last])) < abs(total_area - 2.0 * a_area):
            _absorb(chain, out_items[last], in_items[last])
            for i, count in pins_on[last].items():
                in_a[i] -= count
            absorbed.pop()
            a_area -= areas[last]

    # one pass hands each side the walls within it; the rest cross the cut
    left = set(absorbed)
    sides: tuple[list[BagEdge], list[BagEdge]] = ([], [])  # the walls within the left and the right side
    crossing = []
    for i, e in enumerate(edges):
        if (e.src in left) is (e.dst in left):
            sides[e.src not in left].append(walls[i])
        elif e.src in left:
            crossing.append(i)
        else:
            raise InternalError("cut is not predecessor-closed; not a staircase")
    if sorted(i for _, i in chain) != crossing or not _is_monotone_keys([key for key, _ in chain]):
        raise InternalError("bipartition's chain is not the monotone cut of its sides")

    left_nets, right_nets, cut_nets = [], [], []
    for entry, held, n_pins in zip(nets, in_a, total):
        if held == n_pins:
            left_nets.append(entry)
        elif not held:
            right_nets.append(entry)
        else:
            net_id, on, counts, _ = entry
            cut_nets.append(net_id)
            for side_nets, pins, on_left in ((left_nets, held, True), (right_nets, n_pins - held, False)):
                if pins >= 2:
                    own = [(b, c) for b, c in zip(on, counts) if (b in left) is on_left]
                    side_nets.append((net_id, *zip(*own), pins))

    cut = MsCut(orientation=orientation, left_set=tuple(sorted(absorbed)),
                right_set=tuple(v for v in nodes if v not in left),
                cut_edges=[edges[i] for _, i in chain], cut_nets=cut_nets)
    return cut, (sides[0], left_nets), (sides[1], right_nets)


def build_msc_tree(fp: Floorplan, balance: BalanceMode = BalanceMode.NUMBER) -> MscTree:
    """Recursively bipartition the floorplan over its nets; root is MIS, levels alternate."""
    fp.require_valid()
    mis = build_bag(fp, Orientation.MIS)
    areas = [b.area for b in fp.blocks]
    cuts: list[MsCut] = []
    # (blocks, their walls and nets, depth); each cut hands its sides their
    # walls and nets, and pushes its right side before its left, so cuts come
    # out in preorder
    blocks = range(len(fp.blocks))
    stack = [(tuple(blocks), mis.edges, _count_pins(fp.nets, blocks), 0)]
    while stack:
        block_ids, walls, nets, depth = stack.pop()
        if len(block_ids) == 1:
            continue
        orientation = Orientation.MIS if depth % 2 == 0 else Orientation.MDS
        cut, left, right = bipartition(orientation, block_ids, walls, nets, balance, areas)
        cuts.append(cut)
        stack.append((cut.right_set, *right, depth + 1))
        stack.append((cut.left_set, *left, depth + 1))
    return MscTree(cuts, mis)


# ---------------------------------------------------------------------------
# segments

def extract_segments(tree: MscTree, fp: Floorplan, junctions) -> list[Segment]:
    """Each cut wall and each block side on the border as one segment.

    On a mosaic that passed validation neither holds a junction inside it:
    along a cut wall only its two blocks meet, and along a border side only
    its block and the outside, so a block corner there would be an overlap.
    Both ends are block corners, which validation makes junctions.  That is
    validation's fact, and this reads it: a span's ends are named by their
    index in `junctions`, the full list of (x, y) points (interior
    T-junctions plus the floorplan corners, as adjacency.all_junctions lists
    them), and an end that is not one of them is an error.
    """
    jid = {point: i for i, point in enumerate(junctions)}
    # (axis, fixed, lo, hi, region) per segment; no two share (axis, fixed, lo)
    pieces = [(e.span.axis, e.span.fixed, e.span.lo, e.span.hi, region)
              for region, cut in enumerate(tree.cuts) for e in cut.cut_edges]
    sx1, sy1, sx2, sy2, (bx1, by1, bx2, by2) = fp.snapped
    # the border walls bottom, top, left and right, each as the block sides on it
    borders = ((Axis.H, by1, sy1, sx1, sx2), (Axis.H, by2, sy2, sx1, sx2),
               (Axis.V, bx1, sx1, sy1, sy2), (Axis.V, bx2, sx2, sy1, sy2))
    for side, (axis, fixed, on, lo, hi) in enumerate(borders):
        pieces += [(axis, fixed, lo[i], hi[i], -(side + 1)) for i, c in enumerate(on) if c == fixed]

    pieces.sort()
    segments = []
    for i, (axis, fixed, lo, hi, region) in enumerate(pieces):
        ends = ((fixed, lo), (fixed, hi)) if axis is Axis.V else ((lo, fixed), (hi, fixed))
        if ends[0] not in jid or ends[1] not in jid:
            raise InternalError(f"wall {axis.value} {fixed} [{lo}, {hi}] does not end at junctions")
        segments.append(Segment(id=i, region_id=region, axis=axis, fixed=fixed, lo=lo, hi=hi,
                                j1=jid[ends[0]], j2=jid[ends[1]]))
    return segments


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
    stack = [(tuple(tree.bag.nodes), 0)]  # (blocks, depth), right side pushed first
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
