"""Floorplans: generating, validating, serializing and measuring them.

Run as: python3 demos/01_floorplan_io.py
"""

import msroute as msr


def section(title):
    print(f"\n{title}\n{'-' * len(title)}")


section("Generating a mosaic floorplan")
# Guillotine slicing with jittered cut positions: the result always tiles the
# bounding rectangle and never lets four blocks meet at a point.
fp = msr.generate_random_floorplan(n=12, k=30, max_degree=4, seed=7)
_, _, width, height = fp.box  # the blocks' bounding box: x0, y0, width, height
print(f"{len(fp.blocks)} blocks in a {width:.0f} x {height:.0f} rectangle, "
      f"{len(fp.nets)} nets")
for b in fp.blocks[:4]:
    print(f"  {b.name}: ({b.x:.1f}, {b.y:.1f}) size {b.width:.1f} x {b.height:.1f}")
print("  ...")

section("Validation")
report = msr.validate_floorplan(fp)
print(f"valid mosaic: {report.passed}")

# A '+' crossing (four blocks meeting at one point) is rejected, not repaired.
# A block is named by its position in the list, a pin's block_id too.
bad = msr.Floorplan(
    blocks=[msr.Block(f"q{i}", x, y, 1, 1) for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)])],
    nets=[],
)
bad_report = msr.validate_floorplan(bad)
print(f"2x2 quadrants valid: {bad_report.passed} "
      f"({', '.join(sorted(bad_report.kinds()))})")

section("Serialization round trip")
blocks_text, pl_text, nets_text = msr.serialize_floorplan(fp)
print("first .blocks line :", blocks_text.splitlines()[2])
print("first .pl line     :", pl_text.splitlines()[0])
print("first .nets lines  :", " / ".join(nets_text.splitlines()[3:5]))
again = msr.parse_floorplan(blocks_text, pl_text, nets_text)
print("byte-stable:", msr.serialize_floorplan(again) == (blocks_text, pl_text, nets_text))
print("instance hash:", fp.instance_hash)

section("Net statistics")
degrees = [net.degree for net in fp.nets]
hpwls = [msr.compute_hpwl(net) for net in fp.nets]
print(f"average degree {sum(degrees) / len(degrees):.2f}, "
      f"HPWL range [{min(hpwls):.1f}, {max(hpwls):.1f}]")
print("HPWL is half the perimeter of the pin bounding box:",
      msr.compute_hpwl(fp.nets[0]), "for", fp.nets[0].name)
