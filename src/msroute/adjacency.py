"""Block adjacency graph (BAG) and T-junction enumeration.

Two blocks are adjacent when their rectangles share a wall piece of positive
length; corner contact does not count.  The BAG is directed: horizontal
neighbours always point left -> right, vertical neighbours point in the
direction selected by the staircase orientation (top -> bottom for MIS,
bottom -> top for MDS).  Both orientations are acyclic on a mosaic floorplan.

A junction is its snapped (x, y) point and its id is its index in
`all_junctions`.  Validation owns the mosaic contract, so listing the
junctions checks nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .floorplan import Floorplan


class Orientation(str, Enum):
    MIS = "MIS"  # monotone increasing staircase
    MDS = "MDS"  # monotone decreasing staircase


class Axis(str, Enum):
    H = "H"
    V = "V"


@dataclass(frozen=True, slots=True)
class Span:
    """Wall piece: a V span is a vertical wall at x=fixed covering y in [lo, hi]."""

    axis: Axis
    fixed: float
    lo: float
    hi: float


@dataclass(frozen=True, slots=True)
class BagEdge:
    """src and dst are the two blocks, span their wall: src is left of dst
    across a V wall, and above (MIS) or below (MDS) it across an H wall."""

    src: int
    dst: int
    span: Span

    def mirrored(self) -> BagEdge:
        """The wall's edge in the other orientation: reversed across an H
        wall, the same across a V one."""
        return self if self.span.axis is Axis.V else BagEdge(self.dst, self.src, self.span)


@dataclass
class Bag:
    orientation: Orientation
    nodes: list[int]
    edges: list[BagEdge]

    def as_dot(self) -> str:
        lines = [f"digraph bag_{self.orientation.value.lower()} {{"]
        vertical = "ABOVE" if self.orientation is Orientation.MIS else "BELOW"
        for v in self.nodes:
            lines.append(f"  b{v};")
        for e in self.edges:
            label = "LEFT_OF" if e.span.axis is Axis.V else vertical
            lines.append(f'  b{e.src} -> b{e.dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def mirrored(self) -> Bag:
        """The other orientation over the same walls: each H edge reversed,
        each V edge shared."""
        edges = [e.mirrored() for e in self.edges]
        edges.sort(key=lambda e: (e.src, e.dst))
        other = Orientation.MDS if self.orientation is Orientation.MIS else Orientation.MIS
        return Bag(other, list(self.nodes), edges)


def _touching_pairs(near: list[float], far: list[float], lo: list[float], hi: list[float]) -> list[tuple[int, int]]:
    """Every (i, j) with near[i] == far[j] whose [lo, hi] intervals share a
    positive length, sorted.

    One sweep per shared wall coordinate: the intervals of both sides, in lo
    order, meet each open interval of the other side.  An open interval that
    ends at or before the current lo can meet nothing later and is dropped,
    so a mosaic's wall meets only the few intervals it overlaps.
    """
    sides: dict[float, tuple[list[int], list[int]]] = {}
    for i, c in enumerate(near):
        sides.setdefault(c, ([], []))[0].append(i)
    for j, c in enumerate(far):
        if c in sides:
            sides[c][1].append(j)
    pairs = []
    for ii, jj in sides.values():
        if not jj:
            continue
        events = sorted([(lo[i], 0, i) for i in ii] + [(lo[j], 1, j) for j in jj])
        open_: list[list[int]] = [[], []]
        for start, side, b in events:
            if hi[b] <= start:
                continue  # an empty interval meets nothing
            # the open intervals began at or before start, so they overlap b
            # in a positive length when they end after it
            other = open_[1 - side] = [a for a in open_[1 - side] if hi[a] > start]
            pairs.extend((b, a) if side == 0 else (a, b) for a in other)
            open_[side].append(b)
    pairs.sort()
    return pairs


def _shared_spans(axis: Axis, pairs, fixed: list[float], lo: list[float], hi: list[float]) -> list[tuple[int, int, Span]]:
    """(i, j, Span) per pair: the wall at fixed[i] covering the overlap of
    [lo, hi] of i and j."""
    return [(i, j, Span(axis, fixed[i], max(lo[i], lo[j]), min(hi[i], hi[j]))) for i, j in pairs]


def _adjacent_pairs(fp: Floorplan):
    """All left-of and above/below adjacent pairs with their shared spans."""
    x1, y1, x2, y2, _ = fp.snapped
    horiz = _shared_spans(Axis.V, _touching_pairs(x2, x1, y1, y2), x2, y1, y2)  # i left of j
    vert = _shared_spans(Axis.H, _touching_pairs(y1, y2, x1, x2), y1, x1, x2)   # i above j
    return horiz, vert


def build_bag(fp: Floorplan, orientation: Orientation) -> Bag:
    """Build the directed block adjacency graph for one staircase
    orientation; the MDS one is the MIS one mirrored."""
    fp.require_valid()
    horiz, vert = _adjacent_pairs(fp)
    edges = [BagEdge(i, j, span) for i, j, span in horiz + vert]
    edges.sort(key=lambda e: (e.src, e.dst))
    bag = Bag(Orientation.MIS, list(range(len(fp.blocks))), edges)
    return bag if orientation is Orientation.MIS else bag.mirrored()


def enumerate_tjunctions(fp: Floorplan) -> list[tuple[float, float]]:
    """T-junctions: points where three wall directions meet, sorted.

    On a validated mosaic they are exactly the snapped points holding two
    block corners; validation has checked every other count.  The four
    floorplan corners hold one each and are not included here — see
    all_junctions.
    """
    fp.require_valid()
    return [point for point, count in sorted(fp.corners.items()) if count == 2]


def all_junctions(fp: Floorplan) -> list[tuple[float, float]]:
    """Interior T-junctions followed by the four degree-2 junctions at the
    floorplan corners, each its (x, y) point; a junction's id is its index
    here, so the last four are the corners."""
    bx1, by1, bx2, by2 = fp.snapped[4]
    return enumerate_tjunctions(fp) + sorted([(bx1, by1), (bx1, by2), (bx2, by1), (bx2, by2)])
