"""The region model: the static routing graph every run of an instance reads.

A `RegionModel` holds what depends only on the floorplan (with its nets,
read from `region.fp.nets`) and the balance mode: the MSC tree, the
junctions, the segments with their base capacity r and the junction graph.
Build it once with `RegionModel.build`; every run configuration routes over
the same region, and no run writes to it.

The junction graph has one undirected edge per usable segment (r > 0)
between its endpoint junctions; `JunctionGraph.usable` lists those segment
ids in ascending order, and every reader of "usable" reads that list.  A
segment's endpoints live on the segment only.  Per-net routing runs on the
GSRG: the junction graph plus one node per pin, attached by two
pin-junction edges to the endpoints of the pin's host segment, the nearest
usable one.  A `PinAttachment` holds the host's id and the two edges'
lengths; the search reads the endpoints from the host.  The graph indexes
the usable segments at the first host lookup and memoises each pin
coordinate's host.  It also keeps the junction coordinates and kappa, the
scale of the router's A* bound.

Capacity profiles scale r across the metal layers (`capacity_at`) and the
layer model says which layers a wire axis may use (`layer_permitted`).  A
run reads both once per distinct (r, axis) into a `capacity_row` (0 on
layers the axis may not use), and each segment's `SegmentUsage` gets its
own copy.  The layer rule reads only that row: a segment's effective layer
is the first layer at or above its current layer with spare capacity, and
`charge` lands a net there, so usage never exceeds capacity; the router
undoes a charge by taking the unit off the landed layer and restoring
`curr_layer`.  A run keeps one `SegmentUsage` per segment in its
`router.RoutingState`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adjacency import Axis, TJunction, all_junctions
from .errors import InternalError, PinHostError
from .floorplan import Floorplan, Net
from .staircase import BalanceMode, MscTree, Segment, assign_capacities, build_msc_tree, extract_segments

UNUSABLE = math.inf

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
        if self.layers < 1:
            raise ValueError(f"layers must be at least 1, got {self.layers}")


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


@dataclass
class SegmentUsage:
    """One segment's usage in one run."""

    sid: int
    cap: list[int]       # capacity per layer, 0 where the segment's axis may not go
    u: list[int]         # usage per layer
    curr_layer: int      # layer of the last charge; never decreases

    @classmethod
    def fresh(cls, sid: int, row: tuple[tuple[int, ...], int]) -> "SegmentUsage":
        """No usage yet, on the segment's `capacity_row`, of which it gets its own copy."""
        cap, first = row
        return cls(sid, list(cap), [0] * len(cap), first)


def capacity_row(profile: CapacityProfile, r: int, axis: Axis) -> tuple[tuple[int, ...], int]:
    """Capacity per layer of a segment with base capacity r on this axis (0
    where the axis may not go), and the first layer it may use (1 when none)."""
    layers = range(1, profile.layers + 1)
    cap = tuple(capacity_at(profile, r, l) if layer_permitted(profile, axis, l) else 0 for l in layers)
    first = next((l for l in layers if layer_permitted(profile, axis, l)), 1)
    return cap, first


def effective_layer(usage: SegmentUsage) -> int | None:
    """First layer at or above curr_layer with spare capacity."""
    u, cap = usage.u, usage.cap
    for layer in range(usage.curr_layer, len(cap) + 1):
        if u[layer - 1] < cap[layer - 1]:
            return layer
    return None


def charge(usage: SegmentUsage) -> int:
    """Account one routed net on the segment; returns the layer it landed on."""
    layer = effective_layer(usage)
    if layer is None:
        raise InternalError(f"charging unusable segment {usage.sid}")
    usage.curr_layer = layer
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
    hosts: dict[tuple[float, float], Segment] = field(default_factory=dict)  # pin (x, y) -> host
    host_index: tuple[np.ndarray, np.ndarray] | None = None  # usable ids; (is V, fixed, lo, hi) rows

    def host(self, x: float, y: float) -> Segment:
        """Nearest usable segment by Euclidean point-to-wall distance, memoised
        per pin coordinate.  Walking the segments in id order, one replaces the
        best so far when nearer by more than 1e-12.  numpy prices them all at
        once; the walk then visits only those up to a cut that no other comes
        within 1e-9 (relative) of, so it ends where the full walk would."""
        seg = self.hosts.get((x, y))
        if seg is not None:
            return seg
        if self.host_index is None:
            usable = [self.segments[sid] for sid in self.usable]
            rows = [(s.axis is Axis.V, s.fixed, s.lo, s.hi) for s in usable]
            self.host_index = (np.array([s.id for s in usable], dtype=np.int64),
                               np.array(rows, dtype=float).reshape(-1, 4).T)
        ids, (vertical, fixed, lo, hi) = self.host_index
        if not ids.size:
            raise PinHostError("no usable segment to host the pin")
        along = np.where(vertical, y, x)
        dist = np.hypot(np.where(vertical, x, y) - fixed, np.maximum(np.maximum(lo - along, along - hi), 0.0))
        cut = dist.min()
        while (near := dist[(dist > cut) & (dist <= cut + 1e-9 * (1.0 + cut))]).size:
            cut = near.max()
        best_d = math.inf
        for sid in ids[dist <= cut].tolist():
            d = _point_interval_dist(self.segments[sid], x, y)
            if d < best_d - 1e-12:
                seg, best_d = self.segments[sid], d
        self.hosts[(x, y)] = seg
        return seg


def build_junction_graph(segments: list[Segment], junctions: list[TJunction]) -> JunctionGraph:
    """One edge per usable (r > 0) segment; touches each segment once."""
    jx = [j.x for j in junctions]
    jy = [j.y for j in junctions]
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


@dataclass
class PinAttachment:
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
    """Attach each pin of the net to its host segment's endpoint junctions."""
    pins: list[PinAttachment] = []
    for pin in net.pins:
        host = jg.host(pin.x, pin.y)
        pins.append(PinAttachment(
            host_seg=host.id,
            d1=abs(pin.x - jg.jx[host.j1]) + abs(pin.y - jg.jy[host.j1]),
            d2=abs(pin.x - jg.jx[host.j2]) + abs(pin.y - jg.jy[host.j2]),
        ))
    return Gsrg(pins=pins)


def pin_edge_weights(att: PinAttachment, penalty: list[float]) -> tuple[float, float]:
    """Weights of the two pin-junction edges under the host's usage penalty."""
    host_penalty = penalty[att.host_seg]
    if host_penalty == UNUSABLE:
        return UNUSABLE, UNUSABLE
    return att.d1 * host_penalty, att.d2 * host_penalty


def junction_graph_csv(jg: JunctionGraph, usage: list[SegmentUsage], layers: int) -> str:
    """CSV dump: one row per usable edge with its per-layer usage."""
    header = "segment,j1,j2,length,r," + ",".join(f"u{l}" for l in range(1, layers + 1))
    lines = [header]
    for sid in jg.usable:
        seg = jg.segments[sid]
        lines.append(f"{sid},{seg.j1},{seg.j2},{seg.length:.6f},{seg.r}," + ",".join(map(str, usage[sid].u)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# region model

@dataclass(frozen=True)
class RegionModel:
    """Everything the runs over one (floorplan, balance) read and none writes."""

    fp: Floorplan
    balance: BalanceMode
    tree: MscTree
    junctions: list[TJunction]
    segments: list[Segment]   # indexed by segment id, base capacity r set
    graph: JunctionGraph

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
        return cls(fp=fp, balance=balance, tree=tree, junctions=junctions,
                   segments=segments, graph=graph)
