"""Routing a whole netlist: ordering, decomposition, paths, vias, congestion.

Run as: python3 demos/04_routing_a_netlist.py
"""

import msroute as msr


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


fp = msr.generate_random_floorplan(n=20, k=80, max_degree=5, seed=11)
config = msr.RunConfig.from_name("FCN", layers=8)  # forward search, uniform capacity

section("Net ordering")
ordered = msr.order_nets(fp.nets)
print("nets route in non-decreasing (HPWL, degree) order;")
print("first three:", [(n.name, round(msr.compute_hpwl(n), 1), n.degree) for n in ordered[:3]])
print("last one:   ", [(n.name, round(msr.compute_hpwl(n), 1), n.degree) for n in ordered[-1:]])

section("Multi-terminal decomposition")
big = max(fp.nets, key=lambda n: n.degree)
pairs = msr.decompose_net(big)
print(f"{big.name} has {big.degree} pins -> {len(pairs)} two-terminal pairs "
      f"(a minimum spanning tree under pairwise HPWL, shortest pair first): {pairs}")

section("Routing the whole netlist")
run = msr.route_floorplan(fp, config)
report = msr.summarize(run)
t = report.totals
print(f"routed {t['routed']}/{t['nets']} nets ({t['routed_pct']:.1f}%) "
      f"in {t['runtime_seconds']:.3f}s")
print(f"wirelength {t['wirelength']:.1f} (= {t['wl_over_hpwl']:.3f} x total HPWL), "
      f"{t['vias']} vias")
print(f"detour ratio: mean {t['detour_ratio_mean']:.3f}, max {t['detour_ratio_max']:.3f}")

section("One routed multi-terminal net in detail")
# results follow fp.nets; each is its net's one record: status, paths and their merged tree
result = run.results[fp.nets.index(big)]
print(f"{big.name}: {len(result.paths)} pair paths merged into a Steiner tree over "
      f"{len(result.segments)} segments")
print(f"wirelength {result.wirelength:.1f} (shared segments counted once), "
      f"{result.vias} vias, Steiner points at junctions {result.steiner_points}")
for path in result.paths[:2]:
    print(f"  pins {path.source_pin}->{path.sink_pin}: junctions {path.junctions}, "
          f"layers {path.layers}")

section("Congestion after routing")
snap = msr.snapshot(run.state)  # a row per usable segment, an entry per layer
print(f"max normalized usage p = {max(max(row) for row in snap):.3f} over {len(snap)} usable segments "
      f"x {len(snap[0])} layers (never exceeds 1.0)")
print(f"wACE4 per layer: "
      f"{[round(w, 3) for w in report.congestion['wace4_per_layer']]}")
print(f"max-layer wACE4 = {report.congestion['wace4_max']:.4f}")
