"""Congestion-aware routing over the junction graph of a region model.

A run is a `RoutingState`: one `SegmentUsage` per segment of a
`RegionModel` it only reads, under one `RunConfig` (a search direction and
a `CapacityProfile`).  A segment's edge weight is length / (1 - p), with p
its usage share at its effective layer, and UNUSABLE when no layer has
room.  The state caches every weight and pin penalty; usage changes only
through `RoutingState.charge` and the rollback of a failed net, which
refresh exactly the segments they touch.  Several states can share one
region.

Nets route one at a time in non-decreasing (HPWL, degree) order.  A
multi-terminal net is first decomposed into t-1 two-terminal pairs by a
minimum spanning tree over pairwise pin HPWL, shortest pair first; each pair
routes by A* on the net's GSRG under the live congestion weights, charging
segment usage after every successful pair: once per net on each segment of
the path and on the host segments of the pair's two pins.  The net's journal
records each charge's landed layer and the segment's layer before it.  If
any pair is unroutable the whole net fails and the journal takes back every
charge of its earlier pairs.  A net's `NetResult` is its one record: status,
pair paths, merged segments, Steiner points, wirelength and vias.

The search returns exactly the path Dijkstra would (see `dijkstra_ssp`).

Search direction picks the source of each pair: FWD starts from the
minimum-x pin (minimum y on ties), BACK from the maximum-x pin.  Both explore
the same weighted graph but break ties differently, so they may return
different equal-weight paths with different via counts.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError, PinHostError
from .floorplan import Floorplan, Net, Pin
from .routegraph import (
    UNUSABLE,
    CapacityProfile,
    Gsrg,
    ProfileKind,
    RegionModel,
    SegmentUsage,
    build_gsrg,
    capacity_row,
    charge,
    effective_layer,
    pin_edge_weights,
)
from .staircase import BalanceMode, Segment


class SearchDir(str, Enum):
    FWD = "FWD"
    BACK = "BACK"


#: the six named run configurations: search direction x capacity profile
PRESETS: dict[str, tuple[SearchDir, ProfileKind]] = {
    "FCN": (SearchDir.FWD, ProfileKind.UNIFORM),
    "FCH": (SearchDir.FWD, ProfileKind.HYPERBOLIC),
    "FCL": (SearchDir.FWD, ProfileKind.LADDER),
    "BCN": (SearchDir.BACK, ProfileKind.UNIFORM),
    "BCH": (SearchDir.BACK, ProfileKind.HYPERBOLIC),
    "BCL": (SearchDir.BACK, ProfileKind.LADDER),
}


_PRESET_NAMES = {pair: name for name, pair in PRESETS.items()}


@dataclass(frozen=True)
class RunConfig:
    search: SearchDir
    profile: CapacityProfile

    @property
    def name(self) -> str:
        return _PRESET_NAMES[self.search, self.profile.kind]

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "RunConfig":
        """The preset's search and profile kind; kwargs (layers, layer_model) go to the profile."""
        if name.upper() not in PRESETS:
            raise ParseError(f"unknown configuration {name!r}; choose from {', '.join(PRESETS)}")
        search, kind = PRESETS[name.upper()]
        return cls(search, CapacityProfile(kind, **kwargs))


@dataclass
class RoutePath:
    source_pin: int
    sink_pin: int
    junctions: list[int]          # visited junction sequence
    segments: list[int]           # traversed segments, len(junctions) - 1
    entry_dist: float             # Manhattan pin -> first junction
    exit_dist: float
    length: float                 # segment lengths + pin escapes
    weight: float                 # congestion-weighted cost at route time
    layers: list[int] = field(default_factory=list)
    vias: int = 0


@dataclass
class NetResult:
    """A net's outcome.  A routed net holds its Steiner tree, the union of its
    pair paths; a failed one keeps the empty defaults."""

    net_id: int
    status: str                   # ROUTED | FAILED
    paths: list[RoutePath] = field(default_factory=list)
    segments: list[int] = field(default_factory=list)        # unique, sorted
    steiner_points: list[int] = field(default_factory=list)  # junctions where branches merge
    wirelength: float = 0.0       # shared segments counted once
    vias: int = 0
    failure_pair: tuple[int, int] | None = None
    reason: str = ""


@dataclass
class RoutingState:
    """Everything one run writes, per segment id, over a region it only reads."""

    region: RegionModel
    config: RunConfig
    usage: list[SegmentUsage]
    weight: list[float]           # length / (1 - p) at the effective layer
    penalty: list[float]          # 1 / (1 - p), priced onto pin edges

    @classmethod
    def prepare(cls, region: RegionModel, config: RunConfig) -> "RoutingState":
        n = len(region.segments)
        rows = {}  # (r, axis) -> its capacity_row, built once
        usage = []
        for seg in region.segments:
            row = rows.get((seg.r, seg.axis))
            if row is None:
                row = rows[seg.r, seg.axis] = capacity_row(config.profile, seg.r, seg.axis)
            usage.append(SegmentUsage.fresh(seg.id, row))
        state = cls(region=region, config=config, usage=usage,
                    weight=[UNUSABLE] * n, penalty=[UNUSABLE] * n)
        for sid in range(n):
            state.refresh(sid)
        return state

    def refresh(self, sid: int) -> None:
        """Recompute the segment's weight and penalty from its usage."""
        usage = self.usage[sid]
        layer = effective_layer(usage)
        if layer is None:
            self.weight[sid] = self.penalty[sid] = UNUSABLE
            return
        free = 1.0 - usage.u[layer - 1] / usage.cap[layer - 1]
        self.weight[sid] = self.region.segments[sid].length / free
        self.penalty[sid] = 1.0 / free

    def charge(self, sid: int) -> int:
        """routegraph.charge on the segment, then refresh its weight; returns the layer."""
        layer = charge(self.usage[sid])
        self.refresh(sid)
        return layer


@dataclass
class RouteRun:
    state: RoutingState
    results: list[NetResult]      # net id order
    runtime: float


# ---------------------------------------------------------------------------
# ordering and decomposition

def order_nets(nets: list[Net]) -> list[Net]:
    """Routing priority: non-decreasing HPWL, then degree, then net id."""
    return sorted(nets, key=lambda n: (n.hpwl, n.degree, n.id))


def identify_source(pin_a: Pin, pin_b: Pin, search: SearchDir) -> tuple[Pin, Pin]:
    """Pick the search source of a pin pair.

    FWD: minimum x, minimum y on an x-tie.  BACK: maximum x / maximum y.
    Identical positions fall back to the given order (FWD) or its reverse.
    """
    ka, kb = (pin_a.x, pin_a.y), (pin_b.x, pin_b.y)
    if search is SearchDir.FWD:
        return (pin_a, pin_b) if ka <= kb else (pin_b, pin_a)
    return (pin_a, pin_b) if ka > kb else (pin_b, pin_a)


def _manhattan(a: Pin, b: Pin) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def decompose_net(net: Net) -> list[tuple[int, int]]:
    """Prim MST over the pin clique under pairwise-HPWL (Manhattan) weights.

    Returns t-1 (lo, hi) pin-index pairs in routing order: by Manhattan
    length, then pin ids.  Equal-weight candidates break ties toward the
    smaller pair.
    """
    t = net.degree
    if t <= 2:
        return [(0, 1)]
    pins = net.pins
    in_tree = [False] * t
    in_tree[0] = True
    best: list[tuple[float, int, int] | None] = [None] * t  # (dist, lo, hi) per candidate
    for j in range(1, t):
        best[j] = (_manhattan(pins[0], pins[j]), 0, j)
    edges: list[tuple[float, int, int]] = []
    for _ in range(t - 1):
        pick = None
        for j in range(t):
            if not in_tree[j] and (pick is None or best[j] < best[pick]):
                pick = j
        edges.append(best[pick])
        in_tree[pick] = True
        best[pick] = None
        for j in range(t):
            if in_tree[j]:
                continue
            nd = _manhattan(pins[pick], pins[j])
            cand = (nd, *sorted((pick, j)))
            if cand < best[j]:
                best[j] = cand
    return [(lo, hi) for _, lo, hi in sorted(edges)]


# ---------------------------------------------------------------------------
# shortest path

def dijkstra_ssp(gsrg: Gsrg, state: RoutingState, source_pin: int, sink_pin: int) -> RoutePath | None:
    """Minimum-weight source->sink path under the current congestion weights.

    Runs on the junction level with the two pin-junction edges of each
    terminal folded into the seed/finish distances; unusable edges are
    skipped.  Returns None when the sink is unreachable.

    A* with the bound h(j) = kappa * min over the sink's usable junctions t of
    (L1(j, t) + w_sink(t)), consistent because an edge weighs at least its
    length, which is at least kappa times its junctions' L1 distance.  It
    returns Dijkstra's path: equal finishes go to the lower junction, and of
    two predecessors giving the same distance the one with the smaller
    (distance, junction) wins, the one Dijkstra's pop order relaxes first.
    Only a strictly nearer junction takes a tie over, so zero-length
    segments cannot close a predecessor loop.
    """
    jg = state.region.graph
    segs = jg.segments
    weight = state.weight
    src, dst = gsrg.pins[source_pin], gsrg.pins[sink_pin]
    src_seg, dst_seg = segs[src.host_seg], segs[dst.host_seg]
    sw1, sw2 = pin_edge_weights(src, state.penalty)
    dw1, dw2 = pin_edge_weights(dst, state.penalty)
    sink_w: dict[int, float] = {}
    if dw1 != UNUSABLE:
        sink_w[dst_seg.j1] = dw1
    if dw2 != UNUSABLE:
        sink_w[dst_seg.j2] = min(dw2, sink_w.get(dst_seg.j2, UNUSABLE))
    if not sink_w:
        return None

    jx, jy, kappa = jg.jx, jg.jy, jg.kappa
    (t1, tw), *rest = sink_w.items()
    tx, ty = jx[t1], jy[t1]
    if rest:
        ((t2, uw),) = rest
        ux, uy = jx[t2], jy[t2]

    def bound(j: int) -> float:  # inlined in the loop below
        x, y = jx[j], jy[j]
        h = abs(x - tx) + abs(y - ty) + tw
        return kappa * (min(h, abs(x - ux) + abs(y - uy) + uw) if rest else h)

    inf = math.inf
    adj = jg.adj
    dist = [inf] * len(adj)
    pred_j = [-1] * len(adj)
    pred_s = [-1] * len(adj)
    heap: list[tuple[float, int, float]] = []
    for j, w in ((src_seg.j1, sw1), (src_seg.j2, sw2)):
        if w != UNUSABLE and w < dist[j]:
            dist[j] = w
            heapq.heappush(heap, (w + bound(j), j, w))

    best = inf
    best_j = -1
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        f, j, d = pop(heap)
        if d > dist[j]:
            continue
        if f > best:
            break
        w_sink = sink_w.get(j)
        if w_sink is not None:
            cand = d + w_sink
            if cand < best or (cand == best and (best_j == -1 or j < best_j)):
                best, best_j = cand, j
        for nb, sid in adj[j]:
            w = weight[sid]
            if w == UNUSABLE:
                continue
            nd = d + w
            if nd < dist[nb]:
                dist[nb] = nd
                pred_j[nb] = j
                pred_s[nb] = sid
                x, y = jx[nb], jy[nb]
                h = abs(x - tx) + abs(y - ty) + tw
                if rest and (h2 := abs(x - ux) + abs(y - uy) + uw) < h:
                    h = h2
                push(heap, (nd + kappa * h, nb, nd))
            elif nd == dist[nb] and d < nd and pred_j[nb] >= 0 and (d, j) < (dist[pred_j[nb]], pred_j[nb]):
                pred_j[nb] = j
                pred_s[nb] = sid

    if best_j < 0:
        return None

    seq_j = [best_j]
    seq_s: list[int] = []
    while pred_j[seq_j[-1]] != -1:
        seq_s.append(pred_s[seq_j[-1]])
        seq_j.append(pred_j[seq_j[-1]])
    seq_j.reverse()
    seq_s.reverse()

    entry_dist = src.d1 if seq_j[0] == src_seg.j1 else src.d2
    exit_dist = dst.d1 if best_j == dst_seg.j1 else dst.d2
    length = sum(segs[s].length for s in seq_s) + entry_dist + exit_dist
    return RoutePath(
        source_pin=source_pin,
        sink_pin=sink_pin,
        junctions=seq_j,
        segments=seq_s,
        entry_dist=entry_dist,
        exit_dist=exit_dist,
        length=length,
        weight=best,
    )


def count_vias(path: RoutePath) -> int:
    """Unit layer changes along the path, with pins living on layer 1."""
    if not path.layers:
        return 0
    vias = abs(1 - path.layers[0]) + abs(path.layers[-1] - 1)
    for a, b in zip(path.layers, path.layers[1:]):
        vias += abs(a - b)
    return vias


# ---------------------------------------------------------------------------
# per-net routing

def identify_steiner_points(net: Net, paths: list[RoutePath], segments: list[Segment]) -> NetResult:
    """Merge a net's pair paths into its routed tree; returns the routed net.

    Shared segments and shared pin escapes count once toward wirelength.
    Steiner points are the non-terminal branch points: junctions where three
    or more distinct routed segments meet.
    """
    seg_ids = sorted({sid for p in paths for sid in p.segments})
    pin_edges = set()
    for p in paths:
        pin_edges.add((p.source_pin, p.junctions[0], p.entry_dist))
        pin_edges.add((p.sink_pin, p.junctions[-1], p.exit_dist))
    wirelength = sum(segments[sid].length for sid in seg_ids)
    wirelength += sum(d for _, _, d in pin_edges)

    incident: dict[int, set] = {}
    for sid in seg_ids:
        seg = segments[sid]
        incident.setdefault(seg.j1, set()).add(sid)
        incident.setdefault(seg.j2, set()).add(sid)
    steiner = sorted(j for j, edges in incident.items() if len(edges) >= 3)

    return NetResult(
        net_id=net.id,
        status="ROUTED",
        paths=paths,
        segments=seg_ids,
        steiner_points=steiner,
        wirelength=wirelength,
        vias=sum(p.vias for p in paths),
    )


def _charge_path(state: RoutingState, gsrg: Gsrg, path: RoutePath,
                 journal: dict[int, tuple[int, int]]) -> None:
    """Charge one unit of usage for the net on every new segment of the path
    and on the host segments of its two pins.

    `journal` maps each segment the net charged to (landed layer, curr_layer
    before the charge): a net pays a shared segment once.
    """
    hosts = [gsrg.pins[path.source_pin].host_seg, gsrg.pins[path.sink_pin].host_seg]
    for sid in path.segments + hosts:
        if sid not in journal:
            before = state.usage[sid].curr_layer
            journal[sid] = (state.charge(sid), before)
    path.layers = [journal[sid][0] for sid in path.segments]
    path.vias = count_vias(path)


def _rollback(state: RoutingState, journal: dict[int, tuple[int, int]]) -> None:
    """Take back each charge of the journal: one unit off its landed layer,
    and the segment's curr_layer from before."""
    for sid, (layer, before) in journal.items():
        usage = state.usage[sid]
        usage.u[layer - 1] -= 1
        usage.curr_layer = before
        state.refresh(sid)


def route_net(state: RoutingState, net: Net) -> NetResult:
    """Route one net; on any pair failure the net fails and its usage rolls back."""
    try:
        gsrg = build_gsrg(state.region.graph, net)
    except PinHostError as exc:
        return NetResult(net_id=net.id, status="FAILED", reason=str(exc))

    journal: dict[int, tuple[int, int]] = {}
    paths: list[RoutePath] = []
    for i, j in decompose_net(net):
        a, b = net.pins[i], net.pins[j]
        src_pin, _ = identify_source(a, b, state.config.search)
        si, ti = (i, j) if src_pin is a else (j, i)
        path = dijkstra_ssp(gsrg, state, si, ti)
        if path is None:
            _rollback(state, journal)
            return NetResult(net_id=net.id, status="FAILED", failure_pair=(i, j),
                             reason=f"no usable path for pins {i}-{j}")
        _charge_path(state, gsrg, path, journal)
        paths.append(path)
    return identify_steiner_points(net, paths, state.region.segments)


def route_all(state: RoutingState) -> RouteRun:
    """Route every net in priority order; failures are recorded, not raised."""
    nets = state.region.fp.nets
    t0 = time.perf_counter()
    by_id: dict[int, NetResult] = {}
    for net in order_nets(nets):
        by_id[net.id] = route_net(state, net)
    runtime = time.perf_counter() - t0
    results = [by_id[net.id] for net in nets]
    return RouteRun(state=state, results=results, runtime=runtime)


def route_floorplan(fp: Floorplan, config: RunConfig, balance: BalanceMode = BalanceMode.NUMBER) -> RouteRun:
    """Build the region model of fp and route its nets under config."""
    return route_all(RoutingState.prepare(RegionModel.build(fp, balance), config))
