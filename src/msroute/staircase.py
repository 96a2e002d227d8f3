"""Hierarchical monotone staircase bipartitioning and routing segments.

A monotone staircase cut of the (sub-)floorplan corresponds one-to-one with a
predecessor-closed node set of the oriented block adjacency graph: absorbing
BAG sources grows the upper-left (MIS) or lower-left (MDS) side while its wall
boundary stays a monotone staircase.  The bipartitioner absorbs, at each step,
the source that minimizes the resulting cut-net count (ties to the smaller
block id) and stops at the balance point.  The count sees only the pins on
the bag's blocks, and a net with fewer than 2 of them is never cut.
`assign_capacities` sizes the segments from every net's full pin box, not
from the cut nets.

Recursing with alternating orientations yields the MSC tree: a full binary
tree with the blocks as leaves and exactly n-1 cuts as internal nodes.  Each
child gets only its own nets (those with at least 2 pins on its blocks, cut
down to those pins) and its own MIS and MDS edges, so a node's work scales
with its size, not with the whole instance.  Every
adjacency wall is consumed by exactly one cut (the tree node separating its
two blocks), so the cut walls plus the floorplan border cover all routing
channels.
"""

from __future__ import annotations

import bisect
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adjacency import Axis, Bag, BagEdge, Orientation, Span, build_bag
from .errors import GeometryError, InternalError
from .floorplan import Floorplan, Net


class BalanceMode(str, Enum):
    NUMBER = "NUMBER"
    AREA = "AREA"


@dataclass
class MsCut:
    id: int
    orientation: Orientation
    left_set: tuple[int, ...]   # upper-left blocks (MIS) / lower-left (MDS)
    right_set: tuple[int, ...]
    cut_edges: list[BagEdge]    # staircase order
    cut_nets: list[int]


@dataclass
class MscNode:
    cut: MsCut | None = None
    block_id: int | None = None
    left: "MscNode | None" = None
    right: "MscNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.block_id is not None


@dataclass
class MscTree:
    root: MscNode
    cuts: list[MsCut]  # preorder
    bags: dict[Orientation, Bag]  # the full MIS and MDS BAGs it was cut from

    @property
    def n_internal(self) -> int:
        return len(self.cuts)


@dataclass
class Segment:
    """Atomic routing resource: a junction-bounded piece of a wall.

    region_id is the owning cut's id, or -(side+1) for the four border
    (non-MS) walls.  A run's usage lives in router.RoutingState, not here.
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

    @property
    def length(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# bipartitioning

def _nets_within(nets: list[Net], blocks: set[int]) -> list[Net]:
    """The nets with at least 2 pins on `blocks`, each cut down to those pins
    (net order and pin order kept)."""
    kept = []
    for net in nets:
        pins = [p for p in net.pins if p.block_id in blocks]
        if len(pins) >= 2:
            kept.append(Net(net.id, net.name, pins))
    return kept


def _staircase_key(span: Span, orientation: Orientation) -> tuple[float, float, float, float]:
    """A wall's (min_x, min_y, max_x, max_y), with y mirrored for MDS so that
    both orientations sort and chain alike."""
    if orientation is Orientation.MIS:
        return (span.min_x, span.min_y, span.max_x, span.max_y)
    return (span.min_x, -span.max_y, span.max_x, -span.min_y)


def _staircase_keys(bag: Bag) -> list[tuple[float, float, float, float]]:
    return [_staircase_key(e.span, bag.orientation) for e in bag.edges]


def _staircase_sorted(edges: list[BagEdge], orientation: Orientation) -> list[BagEdge]:
    return sorted(edges, key=lambda e: _staircase_key(e.span, orientation))


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


def is_monotone_chain(edges: list[BagEdge], orientation: Orientation) -> bool:
    """True when the cut walls, in staircase order, advance monotonically in x
    and in y (non-decreasing for MIS, non-increasing for MDS)."""
    return _is_monotone_keys([_staircase_key(e.span, orientation) for e in edges])


def bipartition(
    bag: Bag,
    nets: list[Net],
    balance: BalanceMode = BalanceMode.NUMBER,
    areas: dict[int, float] | None = None,
    keys: list[tuple[float, float, float, float]] | None = None,
) -> MsCut:
    """Split the bag's blocks by a balanced monotone staircase cut.

    Returns an MsCut whose left_set is the absorbed (upper/lower-left) side.
    The cut id is assigned by build_msc_tree; standalone calls get id 0.
    `keys` are the edges' staircase keys, in bag.edges order; they are
    computed when not given.
    """
    nodes = sorted(bag.nodes)
    n_sub = len(nodes)
    if n_sub < 2:
        raise ValueError("bipartition needs at least 2 blocks")
    if balance is BalanceMode.AREA and areas is None:
        raise ValueError("AREA balance requires block areas")

    node_set = set(nodes)
    succ: dict[int, list[int]] = {v: [] for v in nodes}
    indeg: dict[int, int] = {v: 0 for v in nodes}
    if keys is None:
        keys = _staircase_keys(bag)
    # per block, its in- and out-edges as (staircase key, edge index) items
    in_items: dict[int, list] = {v: [] for v in nodes}
    out_items: dict[int, list] = {v: [] for v in nodes}
    for idx, e in enumerate(bag.edges):
        succ[e.src].append(e.dst)
        indeg[e.dst] += 1
        in_items[e.dst].append((keys[idx], idx))
        out_items[e.src].append((keys[idx], idx))

    # per net with at least 2 pins on the bag's blocks: its id, those pins'
    # count and how many of them the absorbed side holds; per block, the
    # (net index, pin count) of each such net with pins on it
    net_ids: list[int] = []
    total: list[int] = []
    pins_on: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
    for net in nets:
        counts = Counter(p.block_id for p in net.pins if p.block_id in node_set)
        n_pins = sum(counts.values())
        if n_pins >= 2:
            for bid, count in counts.items():
                pins_on[bid].append((len(net_ids), count))
            net_ids.append(net.id)
            total.append(n_pins)
    in_a = [0] * len(total)

    def cut_change(v: int) -> int:
        """The change in the cut-net count when block v joins the absorbed side."""
        change = 0
        for i, count in pins_on[v]:
            change += (in_a[i] + count < total[i]) - (0 < in_a[i] < total[i])
        return change

    sources = sorted(v for v in nodes if indeg[v] == 0)
    a_set: set[int] = set()
    absorbed: list[int] = []
    a_area = 0.0
    total_area = sum(areas[v] for v in nodes) if areas else 0.0
    chain: list = []  # the current cut as sorted (key, edge index) items, a monotone staircase

    def absorb_next():
        # in staircase-shaped sub-regions not every source keeps the frontier
        # a single monotone chain; only admissible sources may be absorbed.
        # v is a source, so its in-edges leave the cut and its out-edges join it
        nonlocal a_area
        best = None
        best_key = None
        for v in sources:
            if not _stays_monotone(chain, in_items[v], out_items[v]):
                continue
            key = (cut_change(v), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is None:
            raise InternalError("no source keeps the cut a monotone staircase")
        sources.remove(best)
        for i, count in pins_on[best]:
            in_a[i] += count
        a_set.add(best)
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
                sources.append(w)
        sources.sort()

    if balance is BalanceMode.NUMBER:
        for _ in range(n_sub // 2):
            absorb_next()
    else:
        while 2.0 * a_area < total_area and len(a_set) < n_sub - 1:
            absorb_next()
        if len(absorbed) > 1:
            last = absorbed[-1]
            with_last = abs(total_area - 2.0 * a_area)
            without = abs(total_area - 2.0 * (a_area - areas[last]))
            if without < with_last:
                for i, count in pins_on[last]:
                    in_a[i] -= count
                a_set.remove(last)
                absorbed.pop()
                a_area -= areas[last]

    cut_edges = []
    for e in bag.edges:
        src_in, dst_in = e.src in a_set, e.dst in a_set
        if src_in and not dst_in:
            cut_edges.append(e)
        elif dst_in and not src_in:
            raise InternalError("cut is not predecessor-closed; not a staircase")
    if not is_monotone_chain(cut_edges, bag.orientation):
        raise InternalError("bipartition produced a non-monotone cut")

    right = tuple(v for v in nodes if v not in a_set)
    return MsCut(
        id=0,
        orientation=bag.orientation,
        left_set=tuple(sorted(a_set)),
        right_set=right,
        cut_edges=_staircase_sorted(cut_edges, bag.orientation),
        cut_nets=[net_ids[i] for i, held in enumerate(in_a) if 0 < held < total[i]],
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

    def rec(block_ids: tuple[int, ...], nets: list[Net], bags: dict, depth: int) -> MscNode:
        # nets and (bag, keys) are the parent's; cut them down to this node's blocks
        if len(block_ids) == 1:
            return MscNode(block_id=block_ids[0])
        orientation = Orientation.MIS if depth % 2 == 0 else Orientation.MDS
        blocks = set(block_ids)
        nets = _nets_within(nets, blocks)
        bags = {o: _induce(bag, keys, blocks) for o, (bag, keys) in bags.items()}
        bag, keys = bags[orientation]
        cut = bipartition(bag, nets, balance, areas, keys)
        cut.id = len(cuts)
        cuts.append(cut)
        node = MscNode(cut=cut)
        node.left = rec(cut.left_set, nets, bags, depth + 1)
        node.right = rec(cut.right_set, nets, bags, depth + 1)
        return node

    root = rec(tuple(range(len(fp.blocks))), fp.nets, {o: (bag, _staircase_keys(bag)) for o, bag in full.items()}, 0)
    return MscTree(root=root, cuts=cuts, bags=full)


# ---------------------------------------------------------------------------
# segments

def extract_segments(tree: MscTree, fp: Floorplan, junctions) -> list[Segment]:
    """Split every cut wall and border wall at the junctions lying on it.

    `junctions` must be the full set (interior T-junctions plus boundary
    corners, e.g. from adjacency.all_junctions); each resulting segment is
    bounded by exactly two of them.
    """
    vlines: dict[float, list[tuple[float, int]]] = {}
    hlines: dict[float, list[tuple[float, int]]] = {}
    for j in junctions:
        vlines.setdefault(j.x, []).append((j.y, j.id))
        hlines.setdefault(j.y, []).append((j.x, j.id))
    for line in vlines.values():
        line.sort()
    for line in hlines.values():
        line.sort()

    raw: list[tuple[Span, int]] = []
    for cut in tree.cuts:
        for e in cut.cut_edges:
            raw.append((e.span, cut.id))
    _, _, _, _, bbox = fp.snapped_rects()
    bx1, by1, bx2, by2 = bbox
    for side_idx, span in enumerate((
        Span(Axis.H, by1, bx1, bx2),
        Span(Axis.H, by2, bx1, bx2),
        Span(Axis.V, bx1, by1, by2),
        Span(Axis.V, bx2, by1, by2),
    )):
        raw.append((span, -(side_idx + 1)))

    pieces: list[tuple[Span, int, int, int]] = []
    for span, region in raw:
        line = (vlines if span.axis is Axis.V else hlines).get(span.fixed)
        if line is None:
            raise GeometryError(f"wall at {span.fixed} has no junctions on it")
        on_span = [(c, jid) for c, jid in line if span.lo <= c <= span.hi]
        if len(on_span) < 2 or on_span[0][0] != span.lo or on_span[-1][0] != span.hi:
            raise GeometryError(
                f"wall {span} endpoints are not junction-bounded ({on_span})")
        for (c1, ja), (c2, jb) in zip(on_span, on_span[1:]):
            if c2 <= c1:
                raise GeometryError(f"zero-length piece on wall {span}")
            pieces.append((Span(span.axis, span.fixed, c1, c2), region, ja, jb))

    pieces.sort(key=lambda p: (p[0].axis.value, p[0].fixed, p[0].lo))
    return [
        Segment(id=i, region_id=region, axis=span.axis, fixed=span.fixed,
                lo=span.lo, hi=span.hi, j1=ja, j2=jb)
        for i, (span, region, ja, jb) in enumerate(pieces)
    ]


def _net_box(net: Net) -> tuple[float, float, float, float]:
    xs = [p.x for p in net.pins]
    ys = [p.y for p in net.pins]
    return (min(xs), min(ys), max(xs), max(ys))


def assign_capacities(segments: list[Segment], nets: list[Net], tol: float) -> None:
    """Set every segment's reference capacity r (nets per base layer).

    Interior segments (owned by an ms-cut) count the nets whose pin bounding
    box touches the segment's wall — the nets that may need to cross it when
    routed within their box — with a floor of 1 so no interior wall
    disconnects the junction graph.  Border (non-MS) segments count the pins
    sitting on the wall piece itself; zero makes the segment unusable.
    """
    bx1, by1, bx2, by2 = np.array([_net_box(net) for net in nets], dtype=float).reshape(-1, 4).T
    px, py = np.array([(p.x, p.y) for net in nets for p in net.pins], dtype=float).reshape(-1, 2).T
    for seg in segments:
        if seg.region_id < 0:
            along, perp = (py, px) if seg.axis is Axis.V else (px, py)
            hit = (np.abs(perp - seg.fixed) <= tol) & (seg.lo - tol <= along) & (along <= seg.hi + tol)
            seg.r = int(hit.sum())
        elif seg.axis is Axis.V:
            hit = (bx1 - tol <= seg.fixed) & (seg.fixed <= bx2 + tol) \
                & (np.maximum(seg.lo, by1) <= np.minimum(seg.hi, by2) + tol)
            seg.r = max(1, int(hit.sum()))
        else:
            hit = (by1 - tol <= seg.fixed) & (seg.fixed <= by2 + tol) \
                & (np.maximum(seg.lo, bx1) <= np.minimum(seg.hi, bx2) + tol)
            seg.r = max(1, int(hit.sum()))


# ---------------------------------------------------------------------------
# dumps

def tree_text(tree: MscTree) -> str:
    """Indented text rendering of the MSC tree."""
    out = io.StringIO()

    def rec(node: MscNode, depth: int):
        pad = "  " * depth
        if node.is_leaf:
            out.write(f"{pad}block {node.block_id}\n")
            return
        cut = node.cut
        out.write(
            f"{pad}cut {cut.id} [{cut.orientation.value}] "
            f"left={list(cut.left_set)} right={list(cut.right_set)} "
            f"cut_nets={len(cut.cut_nets)}\n"
        )
        rec(node.left, depth + 1)
        rec(node.right, depth + 1)

    rec(tree.root, 0)
    return out.getvalue()


def segments_csv(segments: list[Segment]) -> str:
    lines = ["id,axis,fixed,lo,hi,r"]
    for s in segments:
        lines.append(f"{s.id},{s.axis.value},{s.fixed:.6f},{s.lo:.6f},{s.hi:.6f},{s.r}")
    return "\n".join(lines) + "\n"
