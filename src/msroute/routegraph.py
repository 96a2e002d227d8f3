"""The region model: the static routing graph every run of an instance reads.

A `RegionModel` holds what depends only on the floorplan (with its nets,
read from `region.fp.nets`) and the balance mode: the MSC tree and the
junction graph, whose `segments` (with their base capacity r) are the
region's only segment list and whose `jx`/`jy` are the only junction
coordinates.  Build it once with `RegionModel.build`; every run
configuration routes over the same region.  A run fills only memos of
region facts (the junction graph's pin attachments and its host index),
which are the same whichever run fills them.

The junction graph has one undirected edge per usable segment (r > 0)
between its endpoint junctions; `JunctionGraph.usable` lists those segment
ids in ascending order, and every reader of "usable" reads that list.  A
segment's endpoints live on the segment only.  Per-net routing runs on the
GSRG: the junction graph plus one node per pin, attached by two
pin-junction edges to the endpoints of the pin's host segment, the nearest
usable one.  A `PinAttachment` holds the host's id and the two edges'
lengths; the search reads the endpoints from the host.  The graph indexes
the usable segments at the first host lookup and memoises each pin site's
whole attachment, which depends only on the site's (x, y): a net's GSRG
costs one dict lookup per pin whose site an earlier net met.  It also keeps
the junction coordinates and kappa, the scale of the router's A* bound.

Capacity profiles scale r across the metal layers (`capacity_at`) and the
layer model says which layers a wire axis may use (`layer_permitted`).  A
run reads both once per distinct (r, axis) into a `capacity_row` (0 on
layers the axis may not use), which every segment with that (r, axis)
shares.  The layer rule reads only that row and the segment's usage row
`u`, which is its whole run state: a segment's effective layer is the
lowest layer with spare capacity (a layer of capacity 0 is never spare),
and `charge` lands a net there, so usage never exceeds capacity and every
layer below the last charge's is full.  The router undoes a charge by
taking the unit off the landed layer.  A segment's price is its
`free_share`, 1 - p with p the usage share of its effective layer.  A run
keeps one `SegmentUsage` per segment in its `router.RoutingState`.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter

from .adjacency import Axis, all_junctions
from .errors import InternalError, PinHostError
from .floorplan import Floorplan, Net
from .staircase import BalanceMode, MscTree, Segment, assign_capacities, build_msc_tree, extract_segments

UNUSABLE = math.inf
# the most metal layers a profile takes: well past any real stack, and each
# segment's usage row is this long, so a larger M is bad input, not a run
MAX_LAYERS = 64

logger = logging.getLogger("msroute")


class ProfileKind(str, Enum):
    UNIFORM = "UNIFORM"
    HYPERBOLIC = "HYPERBOLIC"
    LADDER = "LADDER"


class LayerModel(str, Enum):
    RESERVED_HV = "RESERVED_HV"  # horizontal wires on odd layers, vertical on even
    UNRESERVED = "UNRESERVED"


@dataclass(frozen=True)
class CapacityProfile:
    kind: ProfileKind
    layers: int = 8  # M
    layer_model: LayerModel = LayerModel.RESERVED_HV

    def __post_init__(self):
        if not 1 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be in [1, {MAX_LAYERS}], got {self.layers}")


def capacity_at(profile: CapacityProfile, r: int, layer: int) -> int:
    """Per-layer capacity scaled from the base capacity r (layer 1 equals r)."""
    if not 1 <= layer <= profile.layers:
        raise ValueError(f"layer {layer} outside [1, {profile.layers}]")
    if profile.kind is ProfileKind.UNIFORM:
        return r
    if profile.kind is ProfileKind.HYPERBOLIC:
        return math.ceil(r / layer)
    if layer <= 2:
        return r
    if layer <= 4:
        return math.ceil(r / 2)
    return math.ceil(r / 4)


def layer_permitted(profile: CapacityProfile, axis: Axis, layer: int) -> bool:
    if profile.layer_model is LayerModel.UNRESERVED:
        return True
    return (layer % 2 == 1) if axis is Axis.H else (layer % 2 == 0)


@dataclass(slots=True)
class SegmentUsage:
    """One segment's usage in one run."""

    sid: int
    cap: tuple[int, ...]  # the shared `capacity_row` of the segment's (r, axis)
    u: list[int]          # usage per layer

    @property
    def curr_layer(self) -> int:
        """The layer of the last charge not rolled back: the highest layer
        in use, or 1 when none is."""
        return next((layer for layer in range(len(self.u), 0, -1) if self.u[layer - 1]), 1)


def capacity_row(profile: CapacityProfile, r: int, axis: Axis) -> tuple[int, ...]:
    """Capacity per layer of a segment with base capacity r on this axis, 0
    where the axis may not go."""
    return tuple(capacity_at(profile, r, l) if layer_permitted(profile, axis, l) else 0
                 for l in range(1, profile.layers + 1))


def effective_layer(usage: SegmentUsage) -> int | None:
    """The lowest layer with spare capacity, or None when every layer is
    full.  Every layer below the last charge's is full (a charge skips only
    full layers, and a unit leaves only when its net rolls back), so this is
    also the first spare layer at or above `curr_layer`."""
    u, cap = usage.u, usage.cap
    for layer in range(1, len(cap) + 1):
        if u[layer - 1] < cap[layer - 1]:
            return layer
    return None


def free_share(usage: SegmentUsage) -> float | None:
    """1 - p, with p the usage share of the segment's effective layer; None
    when no layer has room."""
    layer = effective_layer(usage)
    if layer is None:
        return None
    return 1.0 - usage.u[layer - 1] / usage.cap[layer - 1]


def charge(usage: SegmentUsage) -> int:
    """Account one routed net on the segment; returns the layer it landed on."""
    layer = effective_layer(usage)
    if layer is None:
        raise InternalError(f"charging unusable segment {usage.sid}")
    usage.u[layer - 1] += 1
    if usage.u[layer - 1] > usage.cap[layer - 1]:
        raise InternalError(f"segment {usage.sid} over capacity on layer {layer}")
    return layer


# ---------------------------------------------------------------------------
# graphs

#: kappa's relative shrink: it dwarfs the rounding of any float path sum
#: (about edges x 2**-53), so the bound never overshoots a remaining cost and
#: the A* search pops what Dijkstra's answer depends on
KAPPA_MARGIN = 1e-6


@dataclass
class JunctionGraph:
    segments: list[Segment]                  # indexed by segment id
    usable: list[int]                        # ids of the r > 0 segments, ascending
    adj: list[list[tuple[int, int]]]         # junction -> [(neighbor, segment id)]
    jx: list[float]                          # junction coordinates, for the A* bound
    jy: list[float]
    kappa: float                             # min(1, length / L1 of its junctions), shrunk
    attachments: dict[tuple[float, float], PinAttachment] = field(default_factory=dict)  # pin site -> its attachment

    @cached_property
    def host_index(self) -> dict[Axis, tuple[list[float], list[Segment]]]:
        """Per axis, the usable walls sorted by their fixed coordinate, with
        those coordinates; built at the first host lookup."""
        index = {axis: ([], []) for axis in Axis}
        for s in sorted(map(self.segments.__getitem__, self.usable), key=lambda s: s.fixed):
            index[s.axis][0].append(s.fixed)
            index[s.axis][1].append(s)
        return index

    def attach(self, x: float, y: float) -> PinAttachment:
        """The pin site's attachment to its host, memoised per site."""
        att = self.attachments.get((x, y))
        if att is None:
            seg = self.host(x, y)
            att = self.attachments[x, y] = PinAttachment(seg.id, abs(x - self.jx[seg.j1]) + abs(y - self.jy[seg.j1]),
                                                         abs(x - self.jx[seg.j2]) + abs(y - self.jy[seg.j2]))
        return att

    def host(self, x: float, y: float) -> Segment:
        """Nearest usable segment by Euclidean point-to-wall distance.
        Walking the segments in id order, one replaces the best so far when
        nearer by more than 1e-12.  The walk visits only those up to a cut
        that no other comes within 1e-9 (relative) of, so it ends where the
        full walk would.  The walls of each axis (`host_index`) are met
        outward from the pin, smallest perpendicular gap first; a wall is no
        nearer than its gap, so the walls stop once the gap passes the cut's
        1e-9 reach."""
        if not self.usable:
            raise PinHostError("no usable segment to host the pin")
        seen: list[tuple[float, Segment]] = []  # (distance, wall) of the walls met
        cut = reach = math.inf
        for gap, wall in heapq.merge(_outward(*self.host_index[Axis.V], x),
                                     _outward(*self.host_index[Axis.H], y), key=itemgetter(0)):
            if gap > reach:
                break
            d = _point_interval_dist(wall, x, y)
            seen.append((d, wall))
            if d <= reach:
                cut = _last_near_tie(sorted(dist for dist, _ in seen))
                reach = cut + 1e-9 * (1.0 + cut)
        best_d = math.inf
        for d, wall in sorted((item for item in seen if item[0] <= cut), key=lambda item: item[1].id):
            if d < best_d - 1e-12:
                seg, best_d = wall, d
        return seg


def _outward(fixed: list[float], walls: list[Segment], p: float):
    """One axis's walls, sorted by `fixed`, as (|p - fixed|, wall), smallest first."""
    right = bisect.bisect_left(fixed, p)
    left = right - 1
    while left >= 0 or right < len(fixed):
        if right == len(fixed) or (left >= 0 and p - fixed[left] <= fixed[right] - p):
            yield p - fixed[left], walls[left]
            left -= 1
        else:
            yield fixed[right] - p, walls[right]
            right += 1


def _last_near_tie(dists: list[float]) -> float:
    """The largest of the sorted distances reached from the first in steps
    of at most 1e-9 (relative)."""
    cut = dists[0]
    for d in dists:
        if d > cut + 1e-9 * (1.0 + cut):
            break
        cut = d
    return cut


def build_junction_graph(segments: list[Segment], junctions: list[tuple[float, float]]) -> JunctionGraph:
    """One edge per usable (r > 0) segment over the (x, y) junction points;
    touches each segment once."""
    jx = [x for x, _ in junctions]
    jy = [y for _, y in junctions]
    usable: list[int] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in junctions]
    kappa = 1.0
    for seg in segments:
        if seg.j1 >= len(junctions) or seg.j2 >= len(junctions):
            raise InternalError(f"segment {seg.id} references a missing junction")
        if seg.r <= 0:
            continue
        usable.append(seg.id)
        adj[seg.j1].append((seg.j2, seg.id))
        adj[seg.j2].append((seg.j1, seg.id))
        l1 = abs(jx[seg.j1] - jx[seg.j2]) + abs(jy[seg.j1] - jy[seg.j2])
        if l1 > 0:
            kappa = min(kappa, seg.length / l1)
    for lst in adj:
        lst.sort()
    return JunctionGraph(segments=segments, usable=usable, adj=adj,
                         jx=jx, jy=jy, kappa=kappa * (1.0 - KAPPA_MARGIN))


@dataclass(frozen=True, slots=True)
class PinAttachment:
    """A pin site's host segment and its two pin-junction edge lengths;
    shared by every net with a pin at the site."""

    host_seg: int
    d1: float  # Manhattan pin -> the host segment's j1
    d2: float  # and -> its j2


@dataclass
class Gsrg:
    """Per-net view of the shared junction graph: the net's pin attachments,
    in pin order.

    Dropping the attachments restores the junction graph exactly; nothing in
    it is copied or mutated.  The class stays, rather than a bare list, because
    observers of `build_gsrg` (the benchmark's trace) read `.pins`.
    """

    pins: list[PinAttachment]


def _point_interval_dist(seg: Segment, x: float, y: float) -> float:
    if seg.axis is Axis.V:
        dx = x - seg.fixed
        dy = 0.0 if seg.lo <= y <= seg.hi else min(abs(y - seg.lo), abs(y - seg.hi))
    else:
        dy = y - seg.fixed
        dx = 0.0 if seg.lo <= x <= seg.hi else min(abs(x - seg.lo), abs(x - seg.hi))
    return math.hypot(dx, dy)


def build_gsrg(jg: JunctionGraph, net: Net) -> Gsrg:
    """Attach each pin of the net to its host segment's endpoint junctions:
    one lookup in the graph's attachment memo per pin site met before."""
    return Gsrg(pins=[jg.attach(pin.x, pin.y) for pin in net.pins])


def pin_edge_weights(att: PinAttachment, usage: list[SegmentUsage]) -> tuple[float, float]:
    """Weights of the two pin-junction edges: their lengths priced at
    1 / (1 - p) of the host, read from its usage."""
    free = free_share(usage[att.host_seg])
    if free is None:
        return UNUSABLE, UNUSABLE
    penalty = 1.0 / free
    return att.d1 * penalty, att.d2 * penalty


def junction_graph_csv(jg: JunctionGraph, usage: list[SegmentUsage] | None, layers: int) -> str:
    """CSV dump: one row per usable edge with its per-layer usage (0 on every
    layer when `usage` is None, as before any routing)."""
    header = "segment,j1,j2,length,r," + ",".join(f"u{l}" for l in range(1, layers + 1))
    lines = [header]
    unused = ",".join(["0"] * layers)
    for sid in jg.usable:
        seg = jg.segments[sid]
        used = unused if usage is None else ",".join(map(str, usage[sid].u))
        lines.append(f"{sid},{seg.j1},{seg.j2},{seg.length:.6f},{seg.r},{used}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# region model

@dataclass(frozen=True)
class RegionModel:
    """Everything the runs over one (floorplan, balance) read; they fill only
    the junction graph's attachment memo and host index.  Its segments are
    `graph.segments`."""

    fp: Floorplan
    balance: BalanceMode
    tree: MscTree
    graph: JunctionGraph      # its segments are indexed by id, base capacity r set

    @classmethod
    def build(cls, fp: Floorplan, balance: BalanceMode = BalanceMode.NUMBER) -> "RegionModel":
        fp.require_valid()
        tree = build_msc_tree(fp, balance)
        junctions = all_junctions(fp)
        segments = extract_segments(tree, fp, junctions)
        assign_capacities(segments, fp.nets, fp.tol)
        graph = build_junction_graph(segments, junctions)
        n = len(fp.blocks)
        logger.debug(
            "junction graph: %d nodes, %d usable edges (3n-7 = %d)",
            len(graph.adj), len(graph.usable), 3 * n - 7,
        )
        return cls(fp=fp, balance=balance, tree=tree, graph=graph)
