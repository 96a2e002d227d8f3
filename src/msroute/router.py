"""Congestion-aware routing over the junction graph of a region model.

A run is a `RoutingState`: one `SegmentUsage` per segment of a
`RegionModel` whose facts it only reads, under one `RunConfig` (a search
direction and a `CapacityProfile`).  A segment's edge weight is
length / (1 - p), with 1 - p its `free_share`, and UNUSABLE when no layer
has room; a pin edge is priced at 1 / (1 - p) of its host.  The state
caches every weight; usage changes only through `RoutingState.charge` and
the rollback of a failed net, which refresh exactly the segments they
touch.  Several states can share one region.

Nets route one at a time in non-decreasing (HPWL, degree) order; a run
computes each net's HPWL once and keeps it (`RouteRun.hpwl`) for the
report.  A multi-terminal net is first decomposed into t-1 two-terminal
pairs by a minimum spanning tree over pairwise pin HPWL, shortest pair
first; each pair routes by A* on the net's GSRG under the live congestion
weights, charging segment usage after every successful pair: once per net
on each segment of the path and on the host segments of the pair's two
pins.  The net's journal records each charge's landed layer.  If any pair
is unroutable the whole net fails and the journal takes back every charge
of its earlier pairs, one unit off each landed layer; a segment's layer
derives from its usage, so nothing else needs restoring.  A net's
`NetResult` is its one record: status, pair paths, merged segments, Steiner
points, wirelength and vias.  A net of one path is that path: no segment is
shared and no junction is a Steiner point.

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
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError, PinHostError
from .floorplan import Floorplan, Net, Pin, compute_hpwl, sequential_sum
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
    free_share,
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class NetResult:
    """A net's outcome.  A routed net holds its Steiner tree, the union of its
    pair paths; a failed one keeps the empty defaults."""

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

    @classmethod
    def prepare(cls, region: RegionModel, config: RunConfig) -> "RoutingState":
        n = len(region.graph.segments)
        rows = {}  # (r, axis) -> its capacity_row, built once and shared
        usage = []
        for seg in region.graph.segments:
            cap = rows.get((seg.r, seg.axis))
            if cap is None:
                cap = rows[seg.r, seg.axis] = capacity_row(config.profile, seg.r, seg.axis)
            usage.append(SegmentUsage(seg.id, cap, [0] * len(cap)))
        state = cls(region=region, config=config, usage=usage, weight=[UNUSABLE] * n)
        for sid in range(n):
            state.refresh(sid)
        return state

    def refresh(self, sid: int) -> None:
        """Recompute the segment's weight from its usage."""
        free = free_share(self.usage[sid])
        self.weight[sid] = UNUSABLE if free is None else self.region.graph.segments[sid].length / free

    def charge(self, sid: int) -> int:
        """routegraph.charge on the segment, then refresh its weight; returns the layer."""
        layer = charge(self.usage[sid])
        self.refresh(sid)
        return layer


@dataclass
class RouteRun:
    state: RoutingState
    results: list[NetResult]      # in the order of the region's fp.nets
    hpwl: list[float]             # each net's HPWL, in the same order
    runtime: float


# ---------------------------------------------------------------------------
# ordering and decomposition

def order_nets(nets: list[Net]) -> list[Net]:
    """Routing priority: non-decreasing HPWL, then degree, then list order."""
    return [nets[i] for i in _by_priority(nets, [compute_hpwl(n) for n in nets])]


def _by_priority(nets: list[Net], hpwl: list[float]) -> list[int]:
    """The positions of `order_nets(nets)` in `nets`, with each net's HPWL
    given, `hpwl[i]` being `nets[i]`'s."""
    return sorted(range(len(nets)), key=lambda i: (hpwl[i], nets[i].degree))


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
    pins = net.pins
    # the least (length, lo, hi) pair joining each outside pin to the tree
    best = {j: (_manhattan(pins[0], pins[j]), 0, j) for j in range(1, net.degree)}
    edges: list[tuple[float, int, int]] = []
    while best:
        j = min(best, key=best.get)
        edges.append(best.pop(j))
        for k in best:
            best[k] = min(best[k], (_manhattan(pins[j], pins[k]), min(j, k), max(j, k)))
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
    sw1, sw2 = pin_edge_weights(src, state.usage)
    dw1, dw2 = pin_edge_weights(dst, state.usage)
    if dw1 == UNUSABLE:  # the host's two weights are both finite or both UNUSABLE
        return None
    # a segment's two junctions differ, so the sink has two finish junctions
    sink_w = {dst_seg.j1: dw1, dst_seg.j2: dw2}

    jx, jy, kappa = jg.jx, jg.jy, jg.kappa
    tx, ty, ux, uy = jx[dst_seg.j1], jy[dst_seg.j1], jx[dst_seg.j2], jy[dst_seg.j2]
    inf = math.inf
    adj = jg.adj
    dist = [inf] * len(adj)
    pred_j = [-1] * len(adj)
    pred_s = [-1] * len(adj)
    heap: list[tuple[float, int, float]] = []
    for j, w in ((src_seg.j1, sw1), (src_seg.j2, sw2)):
        if w != UNUSABLE and w < dist[j]:
            dist[j] = w
            x, y = jx[j], jy[j]
            h = abs(x - tx) + abs(y - ty) + dw1
            if (h2 := abs(x - ux) + abs(y - uy) + dw2) < h:
                h = h2
            heapq.heappush(heap, (w + kappa * h, j, w))

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
                h = abs(x - tx) + abs(y - ty) + dw1
                if (h2 := abs(x - ux) + abs(y - uy) + dw2) < h:
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
    length = sequential_sum(segs[s].length for s in seq_s) + entry_dist + exit_dist
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

def identify_steiner_points(paths: list[RoutePath], segments: list[Segment]) -> NetResult:
    """Merge a net's pair paths into its routed tree; returns the routed net.

    Shared segments and shared pin escapes count once toward wirelength.
    Steiner points are the non-terminal branch points: junctions where three
    or more distinct routed segments meet.  One path is simple (its
    junctions are distinct), so it shares nothing and has no Steiner point;
    its wirelength adds the same values in the same order as the merge.
    """
    if len(paths) == 1:
        (path,) = paths
        seg_ids = sorted(path.segments)
        wirelength = sequential_sum(segments[sid].length for sid in seg_ids)
        return NetResult(status="ROUTED", paths=paths, segments=seg_ids,
                         wirelength=wirelength + (path.entry_dist + path.exit_dist), vias=path.vias)
    seg_ids = sorted({sid for p in paths for sid in p.segments})
    pin_edges = set()
    for p in paths:
        pin_edges.add((p.source_pin, p.junctions[0], p.entry_dist))
        pin_edges.add((p.sink_pin, p.junctions[-1], p.exit_dist))
    wirelength = sequential_sum(segments[sid].length for sid in seg_ids)
    wirelength += sequential_sum(d for _, _, d in pin_edges)

    ends = Counter(j for sid in seg_ids for j in (segments[sid].j1, segments[sid].j2))
    steiner = sorted(j for j, count in ends.items() if count >= 3)

    return NetResult(
        status="ROUTED",
        paths=paths,
        segments=seg_ids,
        steiner_points=steiner,
        wirelength=wirelength,
        vias=sum(p.vias for p in paths),
    )


def _charge_path(state: RoutingState, gsrg: Gsrg, path: RoutePath,
                 journal: dict[int, int]) -> None:
    """Charge one unit of usage for the net on every new segment of the path
    and on the host segments of its two pins.

    `journal` maps each segment the net charged to its landed layer: a net
    pays a shared segment once.
    """
    layers = path.layers = []
    for sid in path.segments:
        if sid not in journal:
            journal[sid] = state.charge(sid)
        layers.append(journal[sid])
    for sid in (gsrg.pins[path.source_pin].host_seg, gsrg.pins[path.sink_pin].host_seg):
        if sid not in journal:
            journal[sid] = state.charge(sid)
    path.vias = count_vias(path)


def _rollback(state: RoutingState, journal: dict[int, int]) -> None:
    """Take back each charge of the journal: one unit off its landed layer."""
    for sid, layer in journal.items():
        state.usage[sid].u[layer - 1] -= 1
        state.refresh(sid)


def route_net(state: RoutingState, net: Net) -> NetResult:
    """Route one net; on any pair failure the net fails and its usage rolls back."""
    try:
        gsrg = build_gsrg(state.region.graph, net)
    except PinHostError as exc:
        return NetResult(status="FAILED", reason=str(exc))

    journal: dict[int, int] = {}
    paths: list[RoutePath] = []
    for i, j in decompose_net(net):
        a, b = net.pins[i], net.pins[j]
        src_pin, _ = identify_source(a, b, state.config.search)
        si, ti = (i, j) if src_pin is a else (j, i)
        path = dijkstra_ssp(gsrg, state, si, ti)
        if path is None:
            _rollback(state, journal)
            return NetResult(status="FAILED", failure_pair=(i, j),
                             reason=f"no usable path for pins {i}-{j}")
        _charge_path(state, gsrg, path, journal)
        paths.append(path)
    return identify_steiner_points(paths, state.region.graph.segments)


def route_all(state: RoutingState) -> RouteRun:
    """Route every net in priority order; failures are recorded, not raised."""
    nets = state.region.fp.nets
    t0 = time.perf_counter()
    hpwl = [compute_hpwl(net) for net in nets]
    results: list[NetResult | None] = [None] * len(nets)
    for i in _by_priority(nets, hpwl):
        results[i] = route_net(state, nets[i])
    runtime = time.perf_counter() - t0
    return RouteRun(state=state, results=results, hpwl=hpwl, runtime=runtime)


def route_floorplan(fp: Floorplan, config: RunConfig, balance: BalanceMode = BalanceMode.NUMBER) -> RouteRun:
    """Build the region model of fp and route its nets under config."""
    return route_all(RoutingState.prepare(RegionModel.build(fp, balance), config))
