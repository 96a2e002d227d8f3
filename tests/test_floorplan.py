"""Parsing, validation, synthesis and serialization of floorplan instances."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msroute import floorplan as floorplan_module
from msroute.errors import InvalidNetError, ParseError
from msroute.floorplan import (
    Block,
    Floorplan,
    Net,
    Pin,
    compute_hpwl,
    generate_random_floorplan,
    parse_blocks,
    parse_floorplan,
    parse_nets,
    parse_pl,
    serialize_floorplan,
    validate_floorplan,
)
from msroute.cli import main


def make_fp(rects, nets=None, bbox=None):
    """Hand-built floorplan from (x, y, w, h) tuples."""
    blocks = [Block(id=i, name=f"bk{i}", x=x, y=y, width=w, height=h, placed=True)
              for i, (x, y, w, h) in enumerate(rects)]
    if bbox is None:
        x0 = min(b.x for b in blocks)
        y0 = min(b.y for b in blocks)
        bbox = (x0, y0, max(b.x2 for b in blocks) - x0, max(b.y2 for b in blocks) - y0)
    return Floorplan(origin=(bbox[0], bbox[1]), width=bbox[2], height=bbox[3],
                     blocks=blocks, nets=nets or [])


def pinwheel(xa, xb, ya, yb, w, h):
    """The five-block non-slicing mosaic: four blocks wind around a centre
    block [xa, xb] x [ya, yb] of the w x h rectangle, as (x, y, w, h) tuples."""
    corners = [(0, 0, xb, ya), (xb, 0, w, yb), (xa, yb, w, h), (0, ya, xa, h), (xa, ya, xb, yb)]
    return [(x1, y1, x2 - x1, y2 - y1) for x1, y1, x2, y2 in corners]


def jittered(fp, jitter, seed):
    """A copy of fp whose block corners and sizes move by less than `jitter`."""
    rng = random.Random(seed)
    move = lambda v: v + rng.uniform(-jitter, jitter)
    return make_fp([(move(b.x), move(b.y), move(b.width), move(b.height)) for b in fp.blocks],
                   bbox=(*fp.origin, fp.width, fp.height))


@st.composite
def floorplans(draw):
    """Valid and invalid floorplans for the geometry oracles: generated
    mosaics, pinwheels, mosaics jittered by less than tol, and random
    rectangles on a small grid (overlapping, nested, touching at corners,
    empty)."""
    kind = draw(st.sampled_from(["mosaic", "pinwheel", "jittered", "random"]))
    if kind == "pinwheel":
        w, h = draw(st.integers(3, 40)), draw(st.integers(3, 40))
        xa, xb = sorted(draw(st.lists(st.integers(1, w - 1), min_size=2, max_size=2, unique=True)))
        ya, yb = sorted(draw(st.lists(st.integers(1, h - 1), min_size=2, max_size=2, unique=True)))
        scale, dx = draw(st.sampled_from([1.0, 0.1, 37.5])), draw(st.sampled_from([0.0, -3.25, 1e3]))
        return make_fp([(x * scale + dx, y * scale, bw * scale, bh * scale)
                        for x, y, bw, bh in pinwheel(xa, xb, ya, yb, w, h)])
    if kind == "random":
        rects = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                        st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=14))
        return make_fp(rects)
    fp = generate_random_floorplan(draw(st.integers(2, 80)), 0, 2, seed=draw(st.integers(0, 10_000)))
    if kind == "jittered":
        fp = jittered(fp, fp.tol * draw(st.sampled_from([0.01, 0.2, 0.45])), draw(st.integers(0, 100)))
    return fp


def dense_overlapping_pairs(x1, y1, x2, y2, tol):
    """Test oracle: the n x n overlap check that the x-sweep replaced."""
    ovx = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ovy = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    over = (ovx > tol) & (ovy > tol)
    np.fill_diagonal(over, False)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(over)))]


def make_net(net_id, points, name=None):
    pins = [Pin(net_id=net_id, block_id=0, dx=0.0, dy=0.0, x=x, y=y) for x, y in points]
    net = Net(id=net_id, name=name or f"n{net_id}", pins=pins)
    net.hpwl = compute_hpwl(net)
    return net


# ---------------------------------------------------------------------------
# parse_blocks

def test_parse_blocks_single_line():
    blocks = parse_blocks("bk1 hardrectilinear 4 (0,0) (0,10) (20,10) (20,0)")
    assert len(blocks) == 1
    b = blocks[0]
    assert (b.name, b.width, b.height) == ("bk1", 20.0, 10.0)
    assert (b.x, b.y) == (0.0, 0.0)


def test_parse_blocks_empty_file():
    assert parse_blocks("") == []
    assert parse_blocks("# just a comment\nNumHardRectilinearBlocks : 0\n") == []


def test_parse_blocks_nine_blocks():
    text = "\n".join(
        f"bk{i} hardrectilinear 4 (0,0) (0,{i+1}) ({i+2},{i+1}) ({i+2},0)" for i in range(9)
    )
    blocks = parse_blocks(text)
    assert len(blocks) == 9
    assert [b.id for b in blocks] == list(range(9))


def test_parse_blocks_malformed_line_reports_lineno():
    with pytest.raises(ParseError) as exc:
        parse_blocks("bk0 hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\nbogus line here")
    assert "line 2" in str(exc.value)


def test_parse_blocks_duplicate_name():
    text = ("a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\n"
            "a hardrectilinear 4 (0,0) (0,2) (2,2) (2,0)")
    with pytest.raises(ParseError, match="duplicate"):
        parse_blocks(text)


def test_parse_blocks_skips_terminals():
    text = ("p1 terminal\n"
            "a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)")
    assert len(parse_blocks(text)) == 1


# ---------------------------------------------------------------------------
# parse_pl

def test_parse_pl_places_block():
    blocks = parse_blocks("bk1 hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)")
    parse_pl("bk1 0 0", blocks)
    assert blocks[0].placed and (blocks[0].x, blocks[0].y) == (0.0, 0.0)


def test_parse_pl_unknown_block():
    blocks = parse_blocks("\n".join(
        f"bk{i} hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)" for i in range(3)))
    with pytest.raises(ParseError, match="bk9"):
        parse_pl("bk9 1 2", blocks)


def test_parse_pl_duplicate_placement():
    blocks = parse_blocks("\n".join(
        f"bk{i} hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)" for i in range(2)))
    with pytest.raises(ParseError, match="line 3: duplicate placement for block 'bk0'"):
        parse_pl("bk0 0 0\nbk1 1 0\nbk0 2 0", blocks)


def test_parse_pl_missing_placement():
    blocks = parse_blocks("\n".join(
        f"bk{i} hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)" for i in range(2)))
    with pytest.raises(ParseError, match="missing placement"):
        parse_pl("bk0 0 0", blocks)


def test_parse_pl_round_trip_from_generator():
    fp = generate_random_floorplan(9, 5, 3, seed=11)
    bt, pt, nt = serialize_floorplan(fp)
    blocks = parse_blocks(bt)
    parse_pl(pt, blocks)
    assert all(b.placed for b in blocks)
    assert len(blocks) == 9


# ---------------------------------------------------------------------------
# parse_nets

def _two_block_texts():
    bt = ("a hardrectilinear 4 (0,0) (0,2) (2,2) (2,0)\n"
          "b hardrectilinear 4 (0,0) (0,2) (2,2) (2,0)")
    pt = "a 0 0\nb 2 0"
    return bt, pt


def test_parse_nets_two_pin():
    bt, pt = _two_block_texts()
    nt = "NetDegree : 2\na B\nb B"
    fp = parse_floorplan(bt, pt, nt)
    assert len(fp.nets) == 1
    net = fp.nets[0]
    assert net.degree == 2
    # pins default to block centers
    assert (net.pins[0].x, net.pins[0].y) == (1.0, 1.0)
    assert (net.pins[1].x, net.pins[1].y) == (3.0, 1.0)
    assert net.hpwl == 2.0


def test_parse_nets_offsets_and_clamping():
    bt, pt = _two_block_texts()
    nt = "NetDegree : 2\na B : 0.5 -0.5\nb B : 9 9"
    fp = parse_floorplan(bt, pt, nt)
    p0, p1 = fp.nets[0].pins
    assert (p0.x, p0.y) == (1.5, 0.5)
    assert (p1.x, p1.y) == (4.0, 2.0)  # clamped to block b's corner


def test_parse_nets_unknown_block():
    bt, pt = _two_block_texts()
    with pytest.raises(ParseError, match="zz"):
        parse_floorplan(bt, pt, "NetDegree : 2\na B\nzz B")


def test_parse_nets_degree_mismatch():
    bt, pt = _two_block_texts()
    with pytest.raises(ParseError, match="declares"):
        parse_floorplan(bt, pt, "NetDegree : 3\na B\nb B")


def test_parse_nets_single_offset_reports_lineno(tmp_path):
    bt, pt = _two_block_texts()
    nt = "NetDegree : 2\na B : 0.5 0.5\nb B : 0.0"
    with pytest.raises(ParseError, match="dx and dy") as exc:
        parse_floorplan(bt, pt, nt)
    assert "line 3" in str(exc.value)
    for ext, text in (("blocks", bt), ("pl", pt), ("nets", nt)):
        (tmp_path / f"one.{ext}").write_text(text)
    args = [f"--{ext}={tmp_path / f'one.{ext}'}" for ext in ("blocks", "pl", "nets")]
    assert main(["route", *args, "--out", str(tmp_path)]) == 1


def test_parse_nets_degree_below_two():
    bt, pt = _two_block_texts()
    with pytest.raises(InvalidNetError):
        parse_floorplan(bt, pt, "NetDegree : 1\na B")


def test_parse_nets_44_nets_avg_degree_3_5():
    # 22 three-pin + 22 four-pin nets over 9 blocks: mean degree 3.5
    rng = random.Random(5)
    bt = "\n".join(f"bk{i} hardrectilinear 4 (0,0) (0,10) (10,10) (10,0)" for i in range(9))
    pt = "\n".join(f"bk{i} {10 * (i % 3)} {10 * (i // 3)}" for i in range(9))
    lines = []
    for i in range(44):
        degree = 3 if i % 2 == 0 else 4
        lines.append(f"NetDegree : {degree} n{i}")
        for b in rng.sample(range(9), degree):
            lines.append(f"bk{b} B")
    fp = parse_floorplan(bt, pt, "\n".join(lines))
    assert len(fp.nets) == 44
    assert sum(n.degree for n in fp.nets) / 44 == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# compute_hpwl

def test_hpwl_examples():
    assert compute_hpwl(make_net(0, [(0, 0), (3, 4)])) == 7.0
    assert compute_hpwl(make_net(0, [(2, 2), (2, 2), (2, 2)])) == 0.0
    assert compute_hpwl(make_net(0, [(0, 0), (3, 0), (3, 4)])) == 7.0


def test_hpwl_rejects_single_pin():
    net = Net(id=0, name="bad", pins=[Pin(0, 0, 0, 0, 1.0, 1.0)])
    with pytest.raises(InvalidNetError):
        compute_hpwl(net)


def test_hpwl_permutation_and_translation_invariance():
    rng = random.Random(42)
    for _ in range(50):
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(rng.randint(2, 8))]
        base = compute_hpwl(make_net(0, pts))
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert compute_hpwl(make_net(0, shuffled)) == pytest.approx(base)
        dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        moved = [(x + dx, y + dy) for x, y in pts]
        assert compute_hpwl(make_net(0, moved)) == pytest.approx(base)


# ---------------------------------------------------------------------------
# validate_floorplan

def test_validate_two_unit_blocks_pass():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)])
    assert validate_floorplan(fp).passed


def test_validate_overlap():
    fp = make_fp([(0, 0, 1, 1), (0.5, 0, 1, 1)], bbox=(0, 0, 1.5, 1))
    report = validate_floorplan(fp)
    assert not report.passed
    assert "overlap" in report.kinds()


def test_validate_plus_crossing():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    report = validate_floorplan(fp)
    assert not report.passed
    assert "crossing" in report.kinds()


def test_validate_coverage_gap():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1)], bbox=(0, 0, 3, 1))
    report = validate_floorplan(fp)
    assert not report.passed
    assert "coverage" in report.kinds()


def test_validate_violations_carry_coordinates():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    report = validate_floorplan(fp)
    crossing = [v for v in report.violations if v.kind == "crossing"]
    assert crossing and (crossing[0].x, crossing[0].y) == (1.0, 1.0)


def test_pinwheel_is_a_valid_mosaic():
    fp = make_fp(pinwheel(1, 2, 1, 2, 3, 3))
    assert validate_floorplan(fp).passed
    assert len(fp.blocks) == 5


def test_validate_nested_and_corner_contact():
    nested = make_fp([(0, 0, 4, 4), (1, 1, 1, 1), (1.5, 1.5, 2, 2)])
    report = validate_floorplan(nested)
    assert [v.message for v in report.violations if v.kind == "overlap"] == [
        "blocks bk0 and bk1 overlap", "blocks bk0 and bk2 overlap", "blocks bk1 and bk2 overlap"]
    corner = validate_floorplan(make_fp([(0, 0, 1, 1), (1, 1, 1, 1)], bbox=(0, 0, 2, 2)))
    assert corner.kinds() == {"coverage"}


@settings(max_examples=150, deadline=None)
@given(fp=floorplans())
def test_overlap_sweep_matches_the_dense_oracle(fp):
    x1 = np.array([b.x for b in fp.blocks])
    y1 = np.array([b.y for b in fp.blocks])
    x2 = np.array([b.x2 for b in fp.blocks])
    y2 = np.array([b.y2 for b in fp.blocks])
    for tol in (fp.tol, 0.0, 0.5):
        assert floorplan_module._overlapping_pairs(x1, y1, x2, y2, tol) == dense_overlapping_pairs(x1, y1, x2, y2, tol)


@settings(max_examples=60, deadline=None)
@given(fp=floorplans())
def test_validation_report_matches_the_dense_oracle(fp):
    swept = validate_floorplan(fp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floorplan_module, "_overlapping_pairs", dense_overlapping_pairs)
        dense = validate_floorplan(fp)
    assert swept == dense
    assert [repr((v.kind, v.message, v.x, v.y)) for v in swept.violations] == \
        [repr((v.kind, v.message, v.x, v.y)) for v in dense.violations]


# ---------------------------------------------------------------------------
# generator

def test_generator_minimal_instance():
    fp = generate_random_floorplan(2, 1, 2, seed=7)
    assert len(fp.blocks) == 2
    assert len(fp.nets) == 1 and fp.nets[0].degree == 2
    assert validate_floorplan(fp).passed


def test_generator_deterministic():
    a = serialize_floorplan(generate_random_floorplan(17, 40, 5, seed=3))
    b = serialize_floorplan(generate_random_floorplan(17, 40, 5, seed=3))
    assert a == b


def test_generator_all_seeds_valid():
    for seed in range(20):
        fp = generate_random_floorplan(12, 30, 4, seed=seed)
        assert validate_floorplan(fp).passed, f"seed {seed}"


def test_generator_paper_scale_n300():
    fp = generate_random_floorplan(300, 1632, 6, seed=1)
    assert len(fp.blocks) == 300
    assert len(fp.nets) == 1632
    assert validate_floorplan(fp).passed
    avg = sum(n.degree for n in fp.nets) / len(fp.nets)
    assert 2.0 <= avg <= 2.4  # generator targets ~2.16


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_random_floorplan(1, 1, 2, seed=0)
    with pytest.raises(ValueError):
        generate_random_floorplan(4, 1, 1, seed=0)


# ---------------------------------------------------------------------------
# serialization round-trip

def test_round_trip_is_byte_stable():
    for seed in (0, 4, 9):
        fp = generate_random_floorplan(10, 25, 4, seed=seed)
        first = serialize_floorplan(fp)
        reparsed = parse_floorplan(*first)
        assert serialize_floorplan(reparsed) == first


def test_round_trip_preserves_validation():
    fp = generate_random_floorplan(30, 60, 4, seed=8)
    reparsed = parse_floorplan(*serialize_floorplan(fp))
    assert validate_floorplan(reparsed).passed
