"""Sweeping the six run configurations on one instance.

FCN/FCH/FCL use forward search with uniform / hyperbolic / ladder capacity
scaling; BCN/BCH/BCL use backward search.  Run as:

    python3 demos/05_config_sweep.py
"""

import msroute as msr

fp = msr.generate_random_floorplan(n=40, k=220, max_degree=4, seed=1)
print(f"instance: {len(fp.blocks)} blocks, {len(fp.nets)} nets, "
      f"hash {fp.instance_hash}")
# the MSC tree, segments and capacities do not depend on the configuration
region = msr.RegionModel.build(fp)
print(f"region model: {len(region.graph.segments)} segments, built once for all six runs\n")

header = f"{'config':<7}{'routed %':>9}{'wirelength':>13}{'vias':>7}{'wACE4max':>10}{'runtime':>9}"
print(header)
print("-" * len(header))
reports = {}
for name in ("FCN", "FCH", "FCL", "BCN", "BCH", "BCL"):
    run = msr.route_all(msr.RoutingState.prepare(region, msr.RunConfig.from_name(name, layers=8)))
    report = msr.summarize(run)
    reports[name] = report
    t, c = report.totals, report.congestion
    print(f"{name:<7}{t['routed_pct']:>9.1f}{t['wirelength']:>13.1f}{t['vias']:>7}"
          f"{c['wace4_max']:>10.4f}{t['runtime_seconds']:>8.3f}s")

print("""
Reading the table:
 - the hyperbolic profile (FCH/BCH) starves the upper layers, so it pays the
   most vias and is the first to lose nets when capacity gets tight;
 - uniform and ladder profiles differ only once segments climb past layer 2;
 - forward and backward search explore the same weights from opposite ends
   and only diverge when equal-cost routes exist.""")

uni, hyp = reports["FCN"].totals, reports["FCH"].totals
if uni["routed_pct"] == hyp["routed_pct"] == 100.0:
    print(f"here: FCH used {hyp['vias'] - uni['vias']:+d} vias vs FCN at full routability")
