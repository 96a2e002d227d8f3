"""Congestion-weighted junction graph over the staircase segments.

Each usable segment (r > 0) is one undirected edge between its endpoint
junctions.  Edge weight is length / (1 - p) where p is the normalized usage
at the segment's effective layer: the first permitted layer at or above
curr_layer with free capacity.  When every permitted layer up to M is full
the edge weight is infinite (UNUSABLE) and the edge drops out of relaxation,
so usage can never exceed capacity on any layer.

Per-net routing runs on the GSRG: the junction graph plus one node per pin,
attached by two pin-junction edges to the endpoints of the pin's host
segment.  Pin edges are priced like segment edges, with the host's usage
penalty applied to the Manhattan pin-to-junction distance.

The junction graph memoises each pin coordinate's host segment and caches
every segment's weight and pin penalty, both filled at first use.  During a
run all usage changes go through `charge` and the router's rollback, because
the weight cache is refreshed only there (for exactly the segments touched).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .adjacency import Axis, TJunction
from .errors import InternalError, PinHostError
from .floorplan import Net
from .staircase import Segment

UNUSABLE = math.inf


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


def first_layer(profile: CapacityProfile, axis: Axis) -> int:
    """Lowest layer the segment's axis may occupy (may exceed M when V and M=1)."""
    if profile.layer_model is LayerModel.UNRESERVED or axis is Axis.H:
        return 1
    return 2


def init_layer_state(segments: list[Segment], profile: CapacityProfile) -> None:
    """Attach fresh per-layer usage state to every segment."""
    for seg in segments:
        seg.u = [0] * profile.layers
        seg.curr_layer = min(first_layer(profile, seg.axis), profile.layers)


def advance_layer(seg: Segment, profile: CapacityProfile) -> int | None:
    """Move a full segment to its next permitted layer; None when saturated.

    Precondition: the current layer's capacity is exhausted (or the current
    layer is not permitted for the segment's axis at all).
    """
    cur = seg.curr_layer
    if layer_permitted(profile, seg.axis, cur) and seg.u[cur - 1] < capacity_at(profile, seg.r, cur):
        raise ValueError("advance_layer called before the current layer saturated")
    nxt = cur + 1
    while nxt <= profile.layers and not layer_permitted(profile, seg.axis, nxt):
        nxt += 1
    if nxt > profile.layers:
        return None
    seg.curr_layer = nxt
    return nxt


def effective_layer(seg: Segment, profile: CapacityProfile) -> int | None:
    """First permitted layer at or above curr_layer with spare capacity."""
    if seg.r <= 0:
        return None
    layer = seg.curr_layer
    while layer <= profile.layers:
        if layer_permitted(profile, seg.axis, layer) and seg.u[layer - 1] < capacity_at(profile, seg.r, layer):
            return layer
        layer += 1
    return None


def _free_share(seg: Segment, profile: CapacityProfile) -> float | None:
    """1 - u/cap at the effective layer; None when no permitted layer has room."""
    layer = effective_layer(seg, profile)
    if layer is None:
        return None
    return 1.0 - seg.u[layer - 1] / capacity_at(profile, seg.r, layer)


def edge_weight(seg: Segment, profile: CapacityProfile) -> float:
    """Congestion-penalized weight: length / (1 - u/cap) at the effective
    layer; UNUSABLE (infinity) when no permitted layer has room left."""
    free = _free_share(seg, profile)
    return UNUSABLE if free is None else seg.length / free


def charge(seg: Segment, profile: CapacityProfile) -> int:
    """Account one routed net on the segment; returns the layer it landed on.

    Advances curr_layer to the effective layer first, so curr_layer never
    decreases and usage never exceeds the per-layer capacity.
    """
    layer = effective_layer(seg, profile)
    if layer is None:
        raise InternalError(f"charging unusable segment {seg.id}")
    if layer > seg.curr_layer:
        seg.curr_layer = layer
    seg.u[layer - 1] += 1
    if seg.u[layer - 1] > capacity_at(profile, seg.r, layer):
        raise InternalError(f"segment {seg.id} over capacity on layer {layer}")
    return layer


# ---------------------------------------------------------------------------
# graphs

@dataclass
class JunctionGraph:
    n_nodes: int
    segments: list[Segment]                  # indexed by segment id
    edges: dict[int, tuple[int, int]]        # usable segment id -> (j1, j2)
    adj: list[list[tuple[int, int]]]         # junction -> [(neighbor, segment id)]
    hosts: dict[tuple[float, float], Segment] = field(default_factory=dict)  # pin (x, y) -> host
    weight: list[float] = field(default_factory=list)    # segment id -> edge_weight
    penalty: list[float] = field(default_factory=list)   # segment id -> 1 / (1 - p)
    weighted_for: CapacityProfile | None = None          # profile of weight and penalty

    def host(self, x: float, y: float) -> Segment:
        """host_segment, memoised per pin coordinate (segment r never changes)."""
        seg = self.hosts.get((x, y))
        if seg is None:
            seg = self.hosts[(x, y)] = host_segment(self, x, y)
        return seg

    def weights(self, profile: CapacityProfile) -> list[float]:
        """Per-segment edge weights under profile, filled at the first call."""
        if profile != self.weighted_for:
            self.weighted_for = profile
            n = len(self.segments)
            self.weight, self.penalty = [UNUSABLE] * n, [UNUSABLE] * n
            self.refresh(range(n))
        return self.weight

    def refresh(self, sids) -> None:
        """Recompute the cached weight and penalty of segments whose usage changed."""
        profile = self.weighted_for
        if profile is None:
            return  # nothing cached yet; the first search fills every entry
        for sid in sids:
            seg = self.segments[sid]
            free = _free_share(seg, profile)
            self.weight[sid] = UNUSABLE if free is None else seg.length / free
            self.penalty[sid] = UNUSABLE if free is None else 1.0 / free


def build_junction_graph(segments: list[Segment], junctions: list[TJunction]) -> JunctionGraph:
    """One edge per usable (r > 0) segment; touches each segment once."""
    n_nodes = len(junctions)
    edges: dict[int, tuple[int, int]] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for seg in segments:
        if seg.j1 >= n_nodes or seg.j2 >= n_nodes:
            raise InternalError(f"segment {seg.id} references a missing junction")
        if seg.r <= 0:
            continue
        edges[seg.id] = (seg.j1, seg.j2)
        adj[seg.j1].append((seg.j2, seg.id))
        adj[seg.j2].append((seg.j1, seg.id))
    for lst in adj:
        lst.sort()
    return JunctionGraph(n_nodes=n_nodes, segments=segments, edges=edges, adj=adj)


@dataclass
class PinAttachment:
    pin_index: int
    host_seg: int
    j1: int
    j2: int
    d1: float  # Manhattan pin -> j1
    d2: float


@dataclass
class Gsrg:
    """Per-net view: the shared junction graph plus the net's pin attachments.

    Dropping the attachments restores the base graph exactly; nothing in the
    base is copied or mutated.
    """

    base: JunctionGraph
    net: Net
    pins: list[PinAttachment]


def _point_interval_dist(seg: Segment, x: float, y: float) -> float:
    if seg.axis is Axis.V:
        dx = x - seg.fixed
        dy = 0.0 if seg.lo <= y <= seg.hi else min(abs(y - seg.lo), abs(y - seg.hi))
    else:
        dy = y - seg.fixed
        dx = 0.0 if seg.lo <= x <= seg.hi else min(abs(x - seg.lo), abs(x - seg.hi))
    return math.hypot(dx, dy)


def host_segment(jg: JunctionGraph, x: float, y: float) -> Segment:
    """Nearest usable segment by Euclidean point-to-wall distance (ties to the
    lower segment id)."""
    best = None
    best_d = math.inf
    for seg in jg.segments:
        if seg.id not in jg.edges:
            continue
        d = _point_interval_dist(seg, x, y)
        if d < best_d - 1e-12:
            best, best_d = seg, d
    if best is None:
        raise PinHostError("no usable segment to host the pin")
    return best


def build_gsrg(jg: JunctionGraph, net: Net) -> Gsrg:
    """Attach each pin of the net to its host segment's endpoint junctions."""
    pins: list[PinAttachment] = []
    for idx, pin in enumerate(net.pins):
        host = jg.host(pin.x, pin.y)
        (x1, y1), (x2, y2) = _segment_endpoints(host)
        pins.append(PinAttachment(
            pin_index=idx,
            host_seg=host.id,
            j1=host.j1,
            j2=host.j2,
            d1=abs(pin.x - x1) + abs(pin.y - y1),
            d2=abs(pin.x - x2) + abs(pin.y - y2),
        ))
    return Gsrg(base=jg, net=net, pins=pins)


def _segment_endpoints(seg: Segment):
    if seg.axis is Axis.V:
        return (seg.fixed, seg.lo), (seg.fixed, seg.hi)
    return (seg.lo, seg.fixed), (seg.hi, seg.fixed)


def pin_edge_weights(att: PinAttachment, jg: JunctionGraph, profile: CapacityProfile) -> tuple[float, float]:
    """Weights of the two pin-junction edges under the host's usage penalty."""
    jg.weights(profile)
    penalty = jg.penalty[att.host_seg]
    if penalty == UNUSABLE:
        return UNUSABLE, UNUSABLE
    return att.d1 * penalty, att.d2 * penalty


def junction_graph_csv(jg: JunctionGraph, profile: CapacityProfile | None = None) -> str:
    """CSV dump: one row per usable edge with its per-layer usage."""
    m = profile.layers if profile else (len(jg.segments[0].u) if jg.segments and jg.segments[0].u else 0)
    header = "segment,j1,j2,length,r," + ",".join(f"u{l}" for l in range(1, m + 1))
    lines = [header]
    for sid in sorted(jg.edges):
        seg = jg.segments[sid]
        u = seg.u if seg.u is not None else [0] * m
        lines.append(
            f"{sid},{seg.j1},{seg.j2},{seg.length:.6f},{seg.r}," + ",".join(str(v) for v in u[:m])
        )
    return "\n".join(lines) + "\n"
