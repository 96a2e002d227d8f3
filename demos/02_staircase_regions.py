"""Monotone staircase regions: adjacency graph, cuts, tree, segments.

Run as: python3 demos/02_staircase_regions.py
"""

import msroute as msr
from msroute.staircase import segments_csv, tree_text


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


fp = msr.generate_random_floorplan(n=10, k=25, max_degree=4, seed=3)

section("Block adjacency graph (BAG)")
# An edge is two blocks and their wall. Directed: left -> right across a
# V wall, and top -> bottom (MIS) or bottom -> top (MDS) across an H wall.
for orientation in (msr.Orientation.MIS, msr.Orientation.MDS):
    bag = msr.build_bag(fp, orientation)
    print(f"{orientation.value}: {len(bag.edges)} edges, the first three:")
    for e in bag.edges[:3]:
        print(f"  b{e.src} -> b{e.dst} across the {e.span.axis.value} wall at "
              f"{e.span.fixed:.1f}, from {e.span.lo:.1f} to {e.span.hi:.1f}")

section("T-junctions")
junctions = msr.enumerate_tjunctions(fp)
print(f"{len(junctions)} interior T-junctions = 2n-2 = {2 * len(fp.blocks) - 2}")
print("plus 4 degree-2 corner junctions, the last four of all_junctions:",
      msr.all_junctions(fp)[-4:])

section("MSC tree: hierarchy of monotone staircase cuts")
tree = msr.build_msc_tree(fp)
# the tree is its cuts in preorder: each side of a cut is a block or the next cut
print(f"{len(tree.cuts)} cuts = n-1 = {len(fp.blocks) - 1}")
print(tree_text(tree)[:600], "...")

section("The root cut: one balanced monotone staircase")
# build_msc_tree makes each cut with one staircase.bipartition call; the
# first in preorder splits the whole floorplan
cut = tree.cuts[0]
print(f"left {list(cut.left_set)} vs right {list(cut.right_set)}, "
      f"{len(cut.cut_edges)} cut walls, {len(cut.cut_nets)} cut nets")
print("its walls in staircase order (x and y never step back under MIS):")
for e in cut.cut_edges:
    print(f"  {e.span.axis.value} wall at {e.span.fixed:.1f}, "
          f"from {e.span.lo:.1f} to {e.span.hi:.1f}")

section("Routing segments and reference capacities")
all_j = msr.all_junctions(fp)
# no junction lies inside a wall, so each cut wall is one segment and so is
# each block side on the border: 3(n-1)-b walls and b+4 sides, with b the
# T-junctions on the border
segments = msr.extract_segments(tree, fp, all_j)
msr.assign_capacities(segments, fp.nets, fp.tol)
interior = [s for s in segments if s.region_id >= 0]
border = [s for s in segments if s.region_id < 0]
print(f"{len(interior)} cut wall segments + {len(border)} border block sides "
      f"= 3n+1 = {3 * len(fp.blocks) + 1}")
print("capacity r counts the nets whose pin box touches the wall (floor 1);")
print("border walls count only pins sitting on them, so they are usually 0:")
print(segments_csv(segments[:6]))
