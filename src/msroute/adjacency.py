"""Block adjacency graph (BAG) and T-junction enumeration.

Two blocks are adjacent when their rectangles share a wall piece of positive
length; corner contact does not count.  The BAG is directed: horizontal
neighbours always point left -> right, vertical neighbours point in the
direction selected by the staircase orientation (top -> bottom for MIS,
bottom -> top for MDS).  Both orientations are acyclic on a mosaic floorplan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GeometryError
from .floorplan import Floorplan, corner_counts


class Orientation(str, Enum):
    MIS = "MIS"  # monotone increasing staircase
    MDS = "MDS"  # monotone decreasing staircase


class Relation(str, Enum):
    LEFT_OF = "LEFT_OF"
    ABOVE = "ABOVE"
    BELOW = "BELOW"


class Axis(str, Enum):
    H = "H"
    V = "V"


@dataclass(frozen=True)
class Span:
    """Wall piece: a V span is a vertical wall at x=fixed covering y in [lo, hi]."""

    axis: Axis
    fixed: float
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    # bounding-interval accessors used by the staircase-monotonicity checks
    @property
    def min_x(self) -> float:
        return self.fixed if self.axis is Axis.V else self.lo

    @property
    def max_x(self) -> float:
        return self.fixed if self.axis is Axis.V else self.hi

    @property
    def min_y(self) -> float:
        return self.lo if self.axis is Axis.V else self.fixed

    @property
    def max_y(self) -> float:
        return self.hi if self.axis is Axis.V else self.fixed


@dataclass(frozen=True)
class BagEdge:
    src: int
    dst: int
    relation: Relation
    span: Span


@dataclass
class Bag:
    orientation: Orientation
    nodes: list[int]
    edges: list[BagEdge]

    def as_dot(self) -> str:
        lines = [f"digraph bag_{self.orientation.value.lower()} {{"]
        for v in self.nodes:
            lines.append(f"  b{v};")
        for e in self.edges:
            lines.append(f'  b{e.src} -> b{e.dst} [label="{e.relation.value}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class TJunction:
    id: int
    x: float
    y: float
    on_boundary: bool = False  # True only for the four degree-2 floorplan corners
    incident_segments: list[int] = field(default_factory=list)


def _adjacency_arrays(fp: Floorplan):
    """All left-of and above/below adjacent pairs with their shared spans."""
    x1, y1, x2, y2, _ = fp.snapped_rects()
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


def build_bag(fp: Floorplan, orientation: Orientation) -> Bag:
    """Build the directed block adjacency graph for one staircase orientation."""
    fp.require_valid()
    horiz, vert = _adjacency_arrays(fp)
    edges = [BagEdge(i, j, Relation.LEFT_OF, span) for i, j, span in horiz]
    if orientation is Orientation.MIS:
        edges += [BagEdge(i, j, Relation.ABOVE, span) for i, j, span in vert]
    else:
        edges += [BagEdge(j, i, Relation.BELOW, span) for i, j, span in vert]
    edges.sort(key=lambda e: (e.src, e.dst))
    return Bag(orientation, list(range(len(fp.blocks))), edges)


def enumerate_tjunctions(fp: Floorplan) -> list[TJunction]:
    """T-junctions: points where three wall directions meet.

    In a crossing-free mosaic every such point is shared by exactly two block
    corners, so bucketing the 4n corners pins them all down; a bucket of four
    corners is a '+' crossing.  The four floorplan corners (single-corner
    buckets) are not included here — see corner_junctions.
    """
    fp.require_valid()
    bx1, by1, bx2, by2 = fp.snapped_rects()[4]
    fp_corners = {(bx1, by1), (bx1, by2), (bx2, by1), (bx2, by2)}
    buckets = corner_counts(fp)
    junctions: list[TJunction] = []
    for key in sorted(buckets):
        count = buckets[key]
        if key in fp_corners:
            if count != 1:
                raise GeometryError(f"{count} block corners at floorplan corner {key}")
            continue
        if count >= 4:
            raise GeometryError(f"'+' crossing: four blocks meet at {key}")
        if count != 2:
            raise GeometryError(f"dangling block corner at {key}")
        junctions.append(TJunction(id=len(junctions), x=key[0], y=key[1]))
    return junctions


def corner_junctions(fp: Floorplan, start_id: int) -> list[TJunction]:
    """The four degree-2 junctions at the floorplan corners, with ids
    continuing from start_id."""
    _, _, _, _, bbox = fp.snapped_rects()
    bx1, by1, bx2, by2 = bbox
    pts = sorted([(bx1, by1), (bx1, by2), (bx2, by1), (bx2, by2)])
    return [
        TJunction(id=start_id + i, x=px, y=py, on_boundary=True)
        for i, (px, py) in enumerate(pts)
    ]


def all_junctions(fp: Floorplan) -> list[TJunction]:
    """Interior T-junctions followed by the four boundary corner junctions."""
    interior = enumerate_tjunctions(fp)
    return interior + corner_junctions(fp, start_id=len(interior))


def topological_order(bag: Bag) -> list[int]:
    """Kahn topological order; raises GeometryError if the BAG has a cycle."""
    indeg = {v: 0 for v in bag.nodes}
    succ: dict[int, list[int]] = {v: [] for v in bag.nodes}
    for e in bag.edges:
        indeg[e.dst] += 1
        succ[e.src].append(e.dst)
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != len(bag.nodes):
        raise GeometryError("block adjacency graph has a cycle")
    return order
