"""Parsing, validation, synthesis and serialization of floorplan instances."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msroute import floorplan as floorplan_module
from msroute.errors import InvalidNetError, MsRouteError, ParseError, ValidationError
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
from msroute.routegraph import RegionModel
from msroute.router import RunConfig, route_floorplan
from msroute.staircase import BalanceMode


def make_fp(rects, nets=None):
    """Hand-built floorplan from (x, y, w, h) tuples."""
    return Floorplan([Block(f"bk{i}", x, y, w, h) for i, (x, y, w, h) in enumerate(rects)], nets or [])


def pinwheel(xa, xb, ya, yb, w, h):
    """The five-block non-slicing mosaic: four blocks wind around a centre
    block [xa, xb] x [ya, yb] of the w x h rectangle, as (x, y, w, h) tuples."""
    corners = [(0, 0, xb, ya), (xb, 0, w, yb), (xa, yb, w, h), (0, ya, xa, h), (xa, ya, xb, yb)]
    return [(x1, y1, x2 - x1, y2 - y1) for x1, y1, x2, y2 in corners]


def nested_pinwheels(n, seed, pinwheel_share=0.5):
    """A non-slicing mosaic of n blocks, as (x, y, w, h) tuples.  Starting
    from a square, a rectangle is replaced by a five-block pinwheel of either
    winding (with chance `pinwheel_share`, while it fits in n) or split in
    two.  Every new wall coordinate keeps clear of those in use, so no four
    blocks meet at a point."""
    rng = random.Random(seed)
    side = 100.0
    rects = [(0.0, 0.0, side, side)]  # (x1, y1, x2, y2)
    used = ({0.0, side}, {0.0, side})  # the wall x and y coordinates in use

    def fresh(axis, lo, hi):
        """A coordinate in the middle half of (lo, hi) clear of those in use, or None."""
        for _ in range(50):
            c = lo + (hi - lo) * rng.uniform(0.25, 0.75)
            if all(abs(c - u) > 1e-3 * side for u in used[axis]):
                used[axis].add(c)
                return c
        return None

    while len(rects) < n:
        i = rng.choices(range(len(rects)), weights=[(x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in rects])[0]
        x1, y1, x2, y2 = rects[i]
        if len(rects) + 4 <= n and rng.random() < pinwheel_share:
            xm, ym = (x1 + x2) / 2, (y1 + y2) / 2
            xa, xb, ya, yb = fresh(0, x1, xm), fresh(0, xm, x2), fresh(1, y1, ym), fresh(1, ym, y2)
            if None in (xa, xb, ya, yb):
                continue
            if rng.random() < 0.5:  # as `pinwheel` winds, or mirrored
                new = [(x1, y1, xb, ya), (xb, y1, x2, yb), (xa, yb, x2, y2), (x1, ya, xa, y2)]
            else:
                new = [(xa, y1, x2, ya), (x1, y1, xa, yb), (x1, yb, xb, y2), (xb, ya, x2, y2)]
            new.append((xa, ya, xb, yb))
        else:
            axis = rng.randrange(2)
            c = fresh(axis, (x1, y1)[axis], (x2, y2)[axis])
            if c is None:
                continue
            new = [(x1, y1, c, y2), (c, y1, x2, y2)] if axis == 0 else [(x1, y1, x2, c), (x1, c, x2, y2)]
        rects[i:i + 1] = new
    return [(x1, y1, x2 - x1, y2 - y1) for x1, y1, x2, y2 in rects]


def with_nets(fp, k, seed):
    """fp's blocks with k two- or three-pin nets whose pins sit at block centres."""
    rng = random.Random(seed)
    n = len(fp.blocks)
    nets = [Net(f"n{i}", [Pin(bid, 0.0, 0.0, *fp.blocks[bid].center)
                          for bid in rng.sample(range(n), min(n, rng.randint(2, 3)))])
            for i in range(k if n >= 2 else 0)]
    return Floorplan(fp.blocks, nets)


# generated mosaics and nested (non-guillotine) pinwheels, with nets
mosaics = st.one_of(
    st.builds(lambda n, k, seed: generate_random_floorplan(n, n * k, 6, seed=seed),
              st.integers(2, 40), st.integers(0, 6), st.integers(0, 10_000)),
    st.builds(lambda n, k, seed, share: with_nets(make_fp(nested_pinwheels(n, seed, share)), n * k, seed),
              st.integers(2, 40), st.integers(0, 6), st.integers(0, 10_000), st.sampled_from([0.5, 1.0])))


def jittered(fp, jitter, seed):
    """A copy of fp whose block corners and sizes move by less than `jitter`."""
    rng = random.Random(seed)
    move = lambda v: v + rng.uniform(-jitter, jitter)
    return make_fp([(move(b.x), move(b.y), move(b.width), move(b.height)) for b in fp.blocks])


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
    x1, y1, x2, y2 = map(np.array, (x1, y1, x2, y2))
    ovx = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ovy = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    over = (ovx > tol) & (ovy > tol)
    np.fill_diagonal(over, False)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(over)))]


def make_net(net_id, points, name=None):
    pins = [Pin(block_id=0, dx=0.0, dy=0.0, x=x, y=y) for x, y in points]
    return Net(name=name or f"n{net_id}", pins=pins)


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
    assert [b.name for b in blocks] == [f"bk{i}" for i in range(9)]  # a block's id is its position


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


@pytest.mark.parametrize("points", ["(0,0) (0,2) (3,1) (3,0)", "(0,0) (0,0) (0,0) (3,2)"],
                         ids=["off-corner", "repeated-corner"])
def test_parse_blocks_rejects_points_that_are_not_the_corners(points):
    text = f"a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\nb hardrectilinear 4 {points}"
    with pytest.raises(ParseError, match="line 2: the points of block 'b' are not"):
        parse_blocks(text)


def test_parse_blocks_takes_the_corners_in_any_order():
    (block,) = parse_blocks("a hardrectilinear 4 (3,2) (0,0) (3,0) (0,2)")
    assert (block.width, block.height) == (3.0, 2.0)


# ---------------------------------------------------------------------------
# parse_pl

def test_a_block_named_ucla_is_parsed_and_only_the_header_line_skipped():
    blocks = parse_blocks("UCLA blocks 1.0\n"
                          "UCLA hardrectilinear 4 (0,0) (0,10) (4,10) (4,0)\n"
                          "B hardrectilinear 4 (0,0) (0,10) (6,10) (6,0)\n")
    assert [(b.name, b.width) for b in blocks] == [("UCLA", 4.0), ("B", 6.0)]
    parse_pl("UCLA pl 1.0\nUCLA 0 0\nB 4 0\n", blocks)
    assert [(b.x, b.y) for b in blocks] == [(0.0, 0.0), (4.0, 0.0)]


def test_parse_pl_places_block():
    blocks = parse_blocks("bk1 hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)")
    parse_pl("bk1 0 0", blocks)
    assert (blocks[0].x, blocks[0].y) == (0.0, 0.0)


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


@pytest.mark.parametrize("pl", ["bk0 1e308 0", "bk0 0 1e308"], ids=["x", "y"])
def test_parse_pl_rejects_a_far_corner_beyond_the_float_range(pl):
    # x + width (or y + height) overflows to inf, which validation would
    # then report as a crossing at inf
    blocks = parse_blocks("bk0 hardrectilinear 4 (0,0) (0,1e308) (1e308,1e308) (1e308,0)")
    with pytest.raises(ParseError, match=r"line 1: block 'bk0' has its far corner beyond the float range"):
        parse_pl(pl, blocks)


def test_parse_floorplan_rejects_a_bounding_box_beyond_the_float_range():
    # each block's corners are finite, but the box from -1e308 to 1e308 is not
    wide = "hardrectilinear 4 (0,0) (0,1e-300) (1e308,1e-300) (1e308,0)"
    with pytest.raises(ParseError, match=r"the blocks span inf x 1e-300, beyond the float range"):
        parse_floorplan(f"a {wide}\nb {wide}", "a -1e308 0\nb 0 0", "")


def test_parse_pl_round_trip_from_generator():
    fp = generate_random_floorplan(9, 5, 3, seed=11)
    bt, pt, nt = serialize_floorplan(fp)
    blocks = parse_blocks(bt)
    parse_pl(pt, blocks)
    assert [f"{b.name} {b.x:.6f} {b.y:.6f}" for b in blocks] == pt.splitlines()
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
    assert compute_hpwl(net) == 2.0


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


def _content_lines_by_regex(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or floorplan_module._SKIP_RE.match(line):
            continue
        yield lineno, line


def _parse_nets_by_lines(text, blocks):
    """Test oracle: the .nets parser that listed the content lines first and
    read each net by index, before the one-pass parse replaced it."""
    index = {b.name: (i, b) for i, b in enumerate(blocks)}
    nets = []
    lines = list(_content_lines_by_regex(text))
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        if not line.startswith("NetDegree"):
            raise ParseError(f"expected NetDegree header, got {line!r}", lineno)
        _, _, rhs = line.partition(":")
        parts = rhs.split()
        if not parts:
            raise ParseError("NetDegree header missing a pin count", lineno)
        try:
            degree = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad NetDegree value {parts[0]!r}", lineno) from exc
        if degree < 2:
            raise InvalidNetError(f"line {lineno}: net with degree {degree} (< 2)")
        name = parts[1] if len(parts) > 1 else f"n{len(nets)}"
        pins = []
        for j in range(degree):
            if i + 1 + j >= len(lines) or lines[i + 1 + j][1].startswith("NetDegree"):
                raise ParseError(f"net {name!r} declares {degree} pins but has {j}", lineno)
            pl_no, pin_line = lines[i + 1 + j]
            tokens = pin_line.replace(":", " ").split()
            bname = tokens[0]
            if bname not in index:
                raise ParseError(f"pin on unknown block {bname!r}", pl_no)
            bid, block = index[bname]
            dx = dy = 0.0
            numeric = [t.lstrip("%") for t in tokens[2:]]
            if len(numeric) == 1:
                raise ParseError(f"pin offset needs both dx and dy in {pin_line!r}", pl_no)
            if len(numeric) >= 2:
                dx, dy = floorplan_module._numbers(numeric[:2], "pin offset", pin_line, pl_no)
            cx, cy = block.center
            px = min(max(cx + dx, block.x), block.x2)
            py = min(max(cy + dy, block.y), block.y2)
            pins.append(Pin(block_id=bid, dx=dx, dy=dy, x=px, y=py))
        nets.append(Net(name=name, pins=pins))
        i += 1 + degree
    return nets


def _rarely(draw, odd, usual):
    """Draw from `odd` one time in eight, else from `usual`."""
    return draw(odd if draw(st.sampled_from([False] * 7 + [True])) else usual)


@st.composite
def _nets_texts(draw):
    """.nets texts, valid and malformed: nets whose pin count may differ
    from their header, odd headers, pin lines and offsets, and skipped lines."""
    def number():
        return _rarely(draw, st.sampled_from(["1e999", "nan", "-inf", "abc", "%"]),
                       st.sampled_from(["0", "0.5", "-0.75", "%0.25", "9", "-9", "1e-3"]))

    def pin_line():
        odd = st.sampled_from([":", " : ", "b:0.5", "a B : 0.5", "b  0 0 0", "zz B", "A B", "a"])
        if draw(st.sampled_from([False] * 7 + [True])):
            return draw(odd)
        return f"{draw(st.sampled_from(['a', 'b']))} B" + ("" if draw(st.booleans()) else f" : {number()} {number()}")

    lines = []
    for _ in range(draw(st.integers(0, 4))):
        degree = _rarely(draw, st.integers(-1, 1), st.integers(2, 4))
        lines.append(_rarely(
            draw, st.sampled_from(["NetDegree :", "NetDegree : two", "NetDegree", "NetDegree:3", "Net : 2"]),
            st.sampled_from(["", " n7", " x y"]).map(f"NetDegree : {degree}".__add__)))
        for _ in range(_rarely(draw, st.integers(0, 5), st.just(degree))):
            if draw(st.sampled_from([False] * 7 + [True])):
                lines.append(draw(st.sampled_from(["", "   ", "# note", "UCLA nets 1.0", "NumPins: 4"])))
            lines.append(pin_line())
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "NumNets : 2", "hello"])))
    return "\n".join(lines)


def _parsed(parse, text, blocks):
    """A parse's nets as plain values, or the class and message of its error."""
    try:
        nets = parse(text, blocks)
    except (ParseError, InvalidNetError, IndexError) as exc:
        return type(exc), str(exc)
    return [(net.name, compute_hpwl(net), [(p.block_id, p.dx, p.dy, p.x, p.y) for p in net.pins])
            for net in nets]


@settings(max_examples=300, deadline=None)
@given(text=_nets_texts())
def test_one_pass_nets_parse_equals_the_line_list_parse(text):
    bt, pt = _two_block_texts()
    blocks = parse_pl(pt, parse_blocks(bt))
    expected = _parsed(_parse_nets_by_lines, text, blocks)
    got = _parsed(parse_nets, text, blocks)
    if isinstance(expected, tuple) and expected[0] is IndexError:
        # the old parser crashed on a pin line without a block name
        assert got[0] is ParseError and "names no block" in got[1]
    else:
        assert got == expected


def test_parse_nets_pin_line_without_a_block_exits_one(tmp_path, capsys):
    bt, pt = _two_block_texts()
    for ext, text in (("blocks", bt), ("pl", pt), ("nets", "NetDegree : 2\na B\n :\n")):
        (tmp_path / f"one.{ext}").write_text(text)
    args = [f"--{ext}={tmp_path / f'one.{ext}'}" for ext in ("blocks", "pl", "nets")]
    assert main(["route", *args, "--out", str(tmp_path)]) == 1
    assert "line 3: pin line names no block" in capsys.readouterr().err


_FUZZ_TEXTS = serialize_floorplan(generate_random_floorplan(5, 7, 4, seed=3))
_ODD_TOKENS = ["", "nan", "-nan", "inf", "1e999", "-1e999", "1e308", "-1e308", "5e-324", "-0", "0", "-1", ":",
               "B", "#", "NetDegree : 1", "NetDegree : 0", "NetDegree : 99", "NumNets : 1", "UCLA nets 1.0",
               "hardrectilinear", "terminal", "(0,0)", "(nan,0)", "(1e999,1)", "(0,0,0)", "bk0", "bk9"]


@st.composite
def _mutated_texts(draw):
    """The three serialized files of a small instance after one to four line
    mutations: a line deleted, duplicated, truncated, given an odd line before
    it, or with one token swapped for an odd one."""
    files = [text.split("\n") for text in _FUZZ_TEXTS]
    for _ in range(draw(st.integers(1, 4))):
        lines = files[draw(st.integers(0, 2))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "truncate", "insert", "swap"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(_ODD_TOKENS)))
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            lines[i] = " ".join(tokens)
    return tuple("\n".join(lines) for lines in files)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts=_mutated_texts())
def test_mutated_files_parse_and_validate_or_raise_a_package_error(texts):
    try:
        fp = parse_floorplan(*texts)
        fp.require_valid()
    except MsRouteError:
        return
    RegionModel.build(fp)  # a floorplan that validates builds


def test_corner_counts_and_instance_hash_are_computed_once_per_floorplan(monkeypatch):
    """Each derived fact is computed once: one region build validates once
    and snaps once per axis, and the corners and the hash are cached too."""
    fp = generate_random_floorplan(12, 30, seed=2)
    calls = Counter()
    for name in ("validate_floorplan", "_cluster_snap", "serialize_floorplan"):
        real = getattr(floorplan_module, name)
        monkeypatch.setattr(floorplan_module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    RegionModel.build(fp)
    assert calls == {"validate_floorplan": 1, "_cluster_snap": 2}  # one snap per axis
    corners = fp.corners
    assert validate_floorplan(fp).passed  # the module's own function, unpatched
    assert fp.corners is corners
    digest = fp.instance_hash
    assert fp.instance_hash == digest
    assert calls == {"validate_floorplan": 1, "_cluster_snap": 2, "serialize_floorplan": 1}


# ---------------------------------------------------------------------------
# compute_hpwl

def test_hpwl_examples():
    assert compute_hpwl(make_net(0, [(0, 0), (3, 4)])) == 7.0
    assert compute_hpwl(make_net(0, [(2, 2), (2, 2), (2, 2)])) == 0.0
    assert compute_hpwl(make_net(0, [(0, 0), (3, 0), (3, 4)])) == 7.0


def test_hpwl_rejects_single_pin():
    net = Net(name="bad", pins=[Pin(0, 0, 0, 1.0, 1.0)])
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
    fp = make_fp([(0, 0, 1, 1), (0.5, 0, 1, 1)])
    report = validate_floorplan(fp)
    assert not report.passed
    assert "overlap" in report.kinds()


def test_validate_plus_crossing():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    report = validate_floorplan(fp)
    assert not report.passed
    assert "crossing" in report.kinds()


def test_validate_coverage_gap():
    # the rectangle is the blocks' bounding box, so a gap lies between blocks
    fp = make_fp([(0, 0, 1, 1), (2, 0, 1, 1)])
    report = validate_floorplan(fp)
    assert not report.passed
    assert "coverage" in report.kinds()


def test_validate_coverage_gap_whose_areas_overflow():
    # both areas are inf, so their difference is NaN: still a coverage gap
    fp = make_fp([(0, 0, 1e200, 1e200), (2e200, 0, 1e200, 1e200)])
    report = validate_floorplan(fp)
    assert not report.passed
    assert report.kinds() == {"coverage"}


@pytest.mark.parametrize("block_id", [40, -1])
def test_validate_rejects_a_pin_on_no_block(block_id):
    # a pin's block_id is a position in fp.blocks: 40 names no block, and -1
    # must not be read as the last one
    fp = generate_random_floorplan(12, 20, 3, seed=4)
    fp.nets[5].pins[1].block_id = block_id
    report = validate_floorplan(fp)
    assert [(v.kind, v.message) for v in report.violations] == [
        ("pin", f"net n5 has a pin on block {block_id}, not one of the 12 blocks")]
    with pytest.raises(ValidationError, match="net n5 has a pin on block"):
        route_floorplan(fp, RunConfig.from_name("FCN", layers=2))


def test_validate_passes_an_empty_floorplan():
    assert validate_floorplan(Floorplan([], [])).passed


def test_an_empty_floorplan_is_refused_at_build():
    # it validates, but has no rectangle to build regions in
    with pytest.raises(ValidationError, match="no blocks"):
        RegionModel.build(Floorplan([], []))


@pytest.mark.parametrize("pins", [0, 1])
def test_a_net_with_fewer_than_two_pins_is_refused_at_build(pins):
    fp = generate_random_floorplan(6, 4, 3, seed=1)
    fp.nets.append(Net("x", fp.nets[0].pins[:pins]))
    report = validate_floorplan(fp)
    assert [(v.kind, v.message) for v in report.violations] == [
        ("net", f"net x has {pins} pin(s), not 2 or more")]
    with pytest.raises(ValidationError, match="net x has"):
        route_floorplan(fp, RunConfig.from_name("FCN", layers=2))


def test_validate_violations_carry_coordinates():
    fp = make_fp([(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)])
    report = validate_floorplan(fp)
    crossing = [v for v in report.violations if v.kind == "crossing"]
    assert crossing and (crossing[0].x, crossing[0].y) == (1.0, 1.0)


@st.composite
def _near_tol_jitter(draw):
    """Generated mosaics whose blocks move by up to 0.5 to 1 tol: the misfits
    snapping may or may not merge."""
    fp = generate_random_floorplan(draw(st.integers(2, 15)), 0, 2, seed=draw(st.integers(0, 10_000)))
    return jittered(fp, fp.tol * draw(st.sampled_from([0.5, 0.75, 1.0])), draw(st.integers(0, 100)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fp=st.one_of(floorplans(), _near_tol_jitter()))
# near-tol misfits that validation once passed and the region build then
# stopped on: a 1.5 tol wall gap, a sliver on the border, a sliver in a wall
@example(fp=make_fp([(0, 0, 40, 100), (40.000212, 0, 60, 100)]))
@example(fp=make_fp([(0, 0, 1e-9, 10), (1e-9, 0, 9.999999999, 10)]))
@example(fp=make_fp([(0, 0, 1, 10), (1, 0, 1, 10), (1, 3, 1e-9, 1)]))
def test_a_floorplan_that_validates_builds_and_routes(fp):
    fp = with_nets(fp, 2 * len(fp.blocks), seed=len(fp.blocks))
    try:
        fp.require_valid()
    except ValidationError:
        return
    for balance in BalanceMode:
        RegionModel.build(fp, balance)
    route_floorplan(fp, RunConfig.from_name("FCN", layers=2))


def test_pinwheel_is_a_valid_mosaic():
    fp = make_fp(pinwheel(1, 2, 1, 2, 3, 3))
    assert validate_floorplan(fp).passed
    assert len(fp.blocks) == 5


def test_validate_nested_and_corner_contact():
    nested = make_fp([(0, 0, 4, 4), (1, 1, 1, 1), (1.5, 1.5, 2, 2)])
    report = validate_floorplan(nested)
    assert [v.message for v in report.violations if v.kind == "overlap"] == [
        "blocks bk0 and bk1 overlap", "blocks bk0 and bk2 overlap", "blocks bk1 and bk2 overlap"]
    corner = validate_floorplan(make_fp([(0, 0, 1, 1), (1, 1, 1, 1)]))
    assert corner.kinds() == {"coverage"}


@settings(max_examples=150, deadline=None)
@given(fp=floorplans())
def test_overlap_sweep_matches_the_dense_oracle(fp):
    x1 = [b.x for b in fp.blocks]
    y1 = [b.y for b in fp.blocks]
    x2 = [b.x2 for b in fp.blocks]
    y2 = [b.y2 for b in fp.blocks]
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
# coordinate snap

def _cluster_snap_by_loop(values, tol):
    """Test oracle: the per-element loop that the split of the sorted values replaced."""
    if len(values) == 0:
        return values
    order = np.argsort(values, kind="stable")
    sv = values[order]
    out = np.empty_like(sv)
    start = 0
    for i in range(1, len(sv) + 1):
        if i == len(sv) or sv[i] - sv[i - 1] > tol:
            out[start:i] = sv[start:i].mean()
            start = i
    res = np.empty_like(values)
    res[order] = out
    return res


@st.composite
def _snap_cases(draw):
    """Values on a grid whose step divides tol exactly (so gaps of exactly
    tol occur, and few distinct steps make clusters of 9 or more), or
    arbitrary floats; empty and one-value arrays included."""
    tol = draw(st.sampled_from([0.25, 1.0, 1e-9]))
    if draw(st.booleans()):
        step = tol * draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        values = [i * step for i in draw(st.lists(st.integers(-4, 12), max_size=40))]
    else:
        values = draw(st.lists(st.floats(-1e3, 1e3), max_size=40))
    return np.array(values, dtype=float), tol


@settings(max_examples=300, deadline=None)
@given(case=_snap_cases())
@example(case=(np.array([], dtype=float), 0.25))
@example(case=(np.array([3.5]), 0.25))
@example(case=(np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5]), 0.25))
def test_cluster_snap_equals_the_loop(case):
    values, tol = case
    snapped = np.array(floorplan_module._cluster_snap(values.tolist(), tol), dtype=float)
    expected = _cluster_snap_by_loop(values, tol)
    assert snapped.dtype == expected.dtype
    assert snapped.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# pairwise summation

_PAIRWISE_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129, 256, 9000)


@st.composite
def _float_runs(draw):
    """Float lists of the lengths where the pairwise sum changes shape, or any
    length up to 400; the values mix magnitudes from 1e-300 to 1e300, signs
    and signed zeros, so the order of the additions shows in the bits."""
    n = draw(st.one_of(st.sampled_from(_PAIRWISE_LENGTHS), st.integers(0, 400)))
    scale = st.sampled_from([1e-300, 1e-12, 1.0, 3.0, 1e8, 1e16, 1e300])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    scales = [draw(scale) for _ in range(4)]
    values = [rng.choice((-1.0, 1.0)) * rng.random() * rng.choice(scales) for _ in range(n)]
    if n and draw(st.booleans()):
        values[rng.randrange(n)] = draw(st.sampled_from([0.0, -0.0, 1e300, -1e300]))
    return values


@settings(max_examples=300, deadline=None)
@given(values=_float_runs())
@example(values=[])
@example(values=[-0.0])
@example(values=[0.1] * 9000)
@example(values=[1e300, 1e300, -1e300] * 3)
def test_pairwise_sum_and_mean_equal_numpy_bit_for_bit(values):
    array = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        expected_sum = np.add.reduce(array)
        expected_mean = np.mean(array) if values else None
    got = floorplan_module.pairwise_sum(values)
    assert np.float64(got).tobytes() == expected_sum.tobytes()
    if values:
        assert np.float64(floorplan_module.mean(values)).tobytes() == expected_mean.tobytes()


@pytest.mark.parametrize("n", _PAIRWISE_LENGTHS)
def test_pairwise_sum_equals_numpy_at_each_block_boundary(n):
    rng = random.Random(n)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(n)]
    assert floorplan_module.pairwise_sum(values) == float(np.add.reduce(np.array(values, dtype=float)))
    if n:
        assert floorplan_module.mean(values) == float(np.mean(values))


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
