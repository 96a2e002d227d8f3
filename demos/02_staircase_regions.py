"""Monotone staircase regions: adjacency graph, cuts, tree, segments.

Run as: python3 demos/02_staircase_regions.py
"""

import msroute as msr
from msroute.staircase import segments_csv, tree_text


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


fp = msr.generate_random_floorplan(n=10, k=25, max_degree=4, seed=3)

section("Block adjacency graph (BAG)")
# Directed: left -> right for horizontal neighbours, and top -> bottom (MIS)
# or bottom -> top (MDS) for vertical ones. Both orientations are acyclic.
for orientation in (msr.Orientation.MIS, msr.Orientation.MDS):
    bag = msr.build_bag(fp, orientation)
    order = msr.topological_order(bag)
    print(f"{orientation.value}: {len(bag.edges)} edges, "
          f"topological order starts {order[:5]}")

section("T-junctions")
junctions = msr.enumerate_tjunctions(fp)
print(f"{len(junctions)} interior T-junctions = 2n-2 = {2 * len(fp.blocks) - 2}")
print("plus 4 degree-2 corner junctions:",
      [(j.x, j.y) for j in msr.all_junctions(fp) if j.on_boundary])

section("MSC tree: hierarchy of monotone staircase cuts")
tree = msr.build_msc_tree(fp)
print(f"{tree.n_internal} internal nodes = n-1 = {len(fp.blocks) - 1}")
print(tree_text(tree)[:600], "...")

section("A single balanced cut")
cut = msr.bipartition(msr.build_bag(fp, msr.Orientation.MIS), fp.nets)
print(f"left {list(cut.left_set)} vs right {list(cut.right_set)}, "
      f"{len(cut.cut_edges)} cut walls, {len(cut.cut_nets)} cut nets")
print("monotone staircase:", msr.is_monotone_chain(cut.cut_edges, cut.orientation))

section("Routing segments and reference capacities")
all_j = msr.all_junctions(fp)
segments = msr.extract_segments(tree, fp, all_j)
msr.assign_capacities(segments, fp.nets, fp.tol)
interior = [s for s in segments if s.region_id >= 0]
border = [s for s in segments if s.region_id < 0]
print(f"{len(interior)} interior wall segments + {len(border)} border pieces "
      f"= 3n+1 = {3 * len(fp.blocks) + 1}")
print("capacity r counts the nets whose pin box touches the wall (floor 1);")
print("border walls count only pins sitting on them, so they are usually 0:")
print(segments_csv(segments[:6]))
