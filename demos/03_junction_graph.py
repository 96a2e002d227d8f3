"""Congestion weights, capacity profiles and layer advancement.

Run as: python3 demos/03_junction_graph.py
"""

import msroute as msr
from msroute import CapacityProfile, LayerModel, ProfileKind


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


section("Capacity profiles across 8 metal layers (base capacity r = 8)")
print("layer      :", "  ".join(f"{l:>3}" for l in range(1, 9)))
for kind in ProfileKind:
    profile = CapacityProfile(kind, 8)
    caps = [msr.capacity_at(profile, 8, l) for l in range(1, 9)]
    print(f"{kind.value:<11}:", "  ".join(f"{c:>3}" for c in caps))
print("UNIFORM keeps r everywhere; HYPERBOLIC scales by 1/layer;")
print("LADDER steps r, r, r/2, r/2, r/4, ... -- always between the other two.")

section("One region model, built once per floorplan")
fp = msr.generate_random_floorplan(n=10, k=30, max_degree=4, seed=5)
region = msr.RegionModel.build(fp)
graph = region.graph
print(f"{len(graph.adj)} junction nodes, {len(graph.usable)} usable edges "
      f"(segments with r = 0 are excluded)")
print("the MSC tree, segments, capacities r and junction graph depend only on the")
print("floorplan, its nets and the balance mode; every run configuration reuses them.")

section("Edge weight grows as a segment fills up")
state = msr.RoutingState.prepare(region, msr.RunConfig.from_name("FCN", layers=1,
                                                                 layer_model=LayerModel.UNRESERVED))
seg = max((s for s in region.graph.segments if s.r > 0), key=lambda s: (s.r, -s.id))
print(f"segment {seg.id}, length {seg.length:.1f}, capacity {seg.r}, one layer; "
      "usage changes only by charging a routed net:")
while state.weight[seg.id] != msr.UNUSABLE:
    print(f"  u={state.usage[seg.id].u[0]:>2}: weight {state.weight[seg.id]:8.1f}")
    state.charge(seg.id)
print(f"  u={state.usage[seg.id].u[0]:>2}: weight {state.weight[seg.id]}  "
      "(saturated at the top layer -> unusable)")

section("Layer advancement under the reserved-HV model")
state = msr.RoutingState.prepare(region, msr.RunConfig.from_name("FCN", layers=8))
for axis, parity in (("H", "odd"), ("V", "even")):
    seg = min((s for s in region.graph.segments if s.r > 0 and s.axis.value == axis),
              key=lambda s: (s.r, s.id))
    landed = [state.charge(seg.id) for _ in range(3 * seg.r + 1)]
    print(f"{axis} segment {seg.id} (r = {seg.r}) uses {parity} layers: "
          + " -> ".join(str(layer) for layer in dict.fromkeys(landed)))
print("a new run configuration prepares fresh usage over the same region.")

section("Per-net GSRG: pins attach to their host segment's junctions")
net = fp.nets[0]
gsrg = msr.build_gsrg(graph, net)
for idx, att in enumerate(gsrg.pins):
    host = graph.segments[att.host_seg]  # the attachment names its host; the endpoints live there
    print(f"  pin {idx} -> segment {att.host_seg}, "
          f"junctions {host.j1}/{host.j2} at Manhattan distance {att.d1:.1f}/{att.d2:.1f}")
print(f"{net.degree} pins contribute {2 * net.degree} pin-junction edges; "
      "dropping them restores the base graph unchanged.")
