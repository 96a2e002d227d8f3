"""Floorplan and netlist model: parsing, validation, synthesis, serialization.

File dialects (Bookshelf-style):

  .blocks  ``name hardrectilinear 4 (x1,y1) (x2,y2) (x3,y3) (x4,y4)``
  .pl      ``name x y``
  .nets    ``NetDegree : t [name]`` followed by ``blockname B [: dx dy]`` lines

Comments start with ``#``; ``UCLA <format> <version>`` and ``NumXxx : n``
header lines are skipped, and any other line, such as one declaring a block
named ``UCLA``, is read.  Canonical serialization writes the same dialects
with 6-decimal fixed-point coordinates, so serialize -> parse -> serialize
is byte-stable.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import InvalidNetError, ParseError, ValidationError

# Fraction of the bounding-box diagonal used as the coordinate tolerance.
TOL_FRACTION = 1e-6


@dataclass(slots=True)
class Block:
    """Axis-aligned block with its lower-left corner at (x, y)."""

    id: int
    name: str
    x: float
    y: float
    width: float
    height: float
    placed: bool = False

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(slots=True)
class Pin:
    """Net terminal; absolute position is block center + offset, clamped.
    Its net is the `Net` that lists it."""

    block_id: int
    dx: float
    dy: float
    x: float
    y: float


@dataclass(slots=True)
class Net:
    """A net; its box and HPWL come from its pins (`net_box`, `compute_hpwl`)."""

    id: int
    name: str
    pins: list[Pin]

    @property
    def degree(self) -> int:
        return len(self.pins)


@dataclass
class Violation:
    kind: str  # overlap | coverage (a gap, sliver or unmatched corner) | crossing | outside
    message: str
    x: float
    y: float


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


@dataclass
class Floorplan:
    """Rectangle dissection into blocks plus the netlist over them.

    Not changed once in use: the facts derived from it (`validation`,
    `snapped`, `corners`, `instance_hash`) are cached properties, each
    computed on first read and kept on it.
    """

    origin: tuple[float, float]
    width: float
    height: float
    blocks: list[Block]
    nets: list[Net]

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def tol(self) -> float:
        return TOL_FRACTION * self.diagonal

    @cached_property
    def validation(self) -> ValidationReport:
        """The `validate_floorplan` report, passed or not."""
        return validate_floorplan(self)

    def require_valid(self) -> ValidationReport:
        """The validation report; raise if the floorplan is not a clean mosaic."""
        report = self.validation
        if not report.passed:
            msgs = "; ".join(v.message for v in report.violations[:5])
            raise ValidationError(f"invalid floorplan: {msgs}", report.violations)
        return report

    @cached_property
    def snapped(self):
        """Block rectangles (x1, y1, x2, y2 lists) with near-equal wall
        coordinates snapped to a shared value, plus the snapped bounding box.

        Downstream geometry (adjacency, junctions, segments) compares these
        snapped floats exactly, which keeps wall/junction matching tolerance-free.
        """
        n = len(self.blocks)
        (ox, oy), blocks = self.origin, self.blocks
        xs = _cluster_snap([b.x for b in blocks] + [b.x2 for b in blocks] + [ox, ox + self.width], self.tol)
        ys = _cluster_snap([b.y for b in blocks] + [b.y2 for b in blocks] + [oy, oy + self.height], self.tol)
        return xs[:n], ys[:n], xs[n:2 * n], ys[n:2 * n], (xs[2 * n], ys[2 * n], xs[-1], ys[-1])

    @cached_property
    def corners(self) -> Counter[tuple[float, float]]:
        """How many block corners sit at each snapped point."""
        return Counter(corner for x1, y1, x2, y2 in zip(*self.snapped[:4])
                       for corner in ((x1, y1), (x1, y2), (x2, y1), (x2, y2)))

    @cached_property
    def instance_hash(self) -> str:
        """The first 16 hex digits of the sha256 of the three serialized
        files, one after another.  hashlib, and with it OpenSSL, loads on the
        first read."""
        # OpenSSL costs about 3.5 MB of resident memory; only summarize (route, sweep) and the demos hash
        import hashlib
        return hashlib.sha256("".join(serialize_floorplan(self)).encode()).hexdigest()[:16]


def pairwise_sum(values: list[float]) -> float:
    """0.0 plus the pairwise float sum of the values: bit for bit the sum a
    float64 `add.reduce` gives.  A run of fewer than 8 values is added in
    sequence; a run of up to 128 goes into 8 interleaved accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and then its remainder
    in sequence; a longer run splits at half its length rounded down to a
    multiple of 8."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], start: int, n: int) -> float:
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)
    if n < 8:
        return sequential_sum(values[start:start + n])
    end = start + n - n % 8
    r = [sequential_sum(values[i + 8:end:8], values[i]) for i in range(start, start + 8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return sequential_sum(values[end:start + n], total)


def sequential_sum(values: Iterable[float], total: float = 0.0) -> float:
    """The total plus the values, added left to right: the float sum `sum`
    gives up to Python 3.11.  An explicit loop, as `sum` is compensated from
    Python 3.12 on, and the report bytes must not depend on the version."""
    for v in values:
        total += v
    return total


def mean(values: list[float]) -> float:
    """`pairwise_sum` over the count: bit for bit a float64 `mean`."""
    return pairwise_sum(values) / len(values)


def _cluster_snap(values: list[float], tol: float) -> list[float]:
    """Snap 1-D coordinates to their cluster mean (clusters split on gaps > tol)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    res = [0.0] * len(values)
    start = 0
    for end in range(1, len(order) + 1):
        if end == len(order) or values[order[end]] - values[order[end - 1]] > tol:
            cluster = order[start:end]
            centre = mean([values[i] for i in cluster])
            for i in cluster:
                res[i] = centre
            start = end
    return res


# ---------------------------------------------------------------------------
# parsing

_SKIP_RE = re.compile(r"^\s*(#|UCLA\s+[A-Za-z]\S*\s+\S+$|Num\w*\s*:)")
_COORD_RE = re.compile(r"\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # a skipped line starts with '#', 'U' or 'N'; most lines start otherwise
        if not line or (line[0] in "#UN" and _SKIP_RE.match(line)):
            continue
        yield lineno, line


def _numbers(texts: list[str], what: str, line: str, lineno: int) -> list[float]:
    """Parse a line's numeric fields; NaN and infinite values (including
    overflow, such as 1e999) are rejected."""
    try:
        values = [float(t) for t in texts]
    except ValueError as exc:
        raise ParseError(f"bad {what} in {line!r}", lineno) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite {what} in {line!r}", lineno)
    return values


def parse_blocks(text: str) -> list[Block]:
    """Parse a .blocks file into Blocks with dimensions; positions stay zeroed."""
    blocks: list[Block] = []
    seen: set[str] = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) >= 2 and tokens[1] == "terminal":
            continue  # boundary pads are out of scope
        if len(tokens) < 3 or tokens[1] != "hardrectilinear":
            raise ParseError(f"unrecognized block declaration: {line!r}", lineno)
        name = tokens[0]
        if name in seen:
            raise ParseError(f"duplicate block name {name!r}", lineno)
        coords = _COORD_RE.findall(line)
        if tokens[2] != "4" or len(coords) != 4:
            raise ParseError(f"expected 4 corner points for block {name!r}", lineno)
        xs = _numbers([cx for cx, _ in coords], "corner", line, lineno)
        ys = _numbers([cy for _, cy in coords], "corner", line, lineno)
        x1, y1, x2, y2 = min(xs), min(ys), max(xs), max(ys)
        w, h = x2 - x1, y2 - y1
        if w <= 0 or h <= 0:
            raise ParseError(f"block {name!r} has non-positive dimensions", lineno)
        if set(zip(xs, ys)) != {(x1, y1), (x1, y2), (x2, y1), (x2, y2)}:
            raise ParseError(f"the points of block {name!r} are not the 4 corners of a rectangle", lineno)
        seen.add(name)
        blocks.append(Block(id=len(blocks), name=name, x=0.0, y=0.0, width=w, height=h))
    return blocks


def parse_pl(text: str, blocks: list[Block]) -> list[Block]:
    """Apply a .pl placement to blocks; every block must receive a position."""
    index = {b.name: b for b in blocks}
    placed: set[str] = set()
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError(f"malformed placement line: {line!r}", lineno)
        name = tokens[0]
        block = index.get(name)
        if block is None:
            raise ParseError(f"placement for unknown block {name!r}", lineno)
        if name in placed:
            raise ParseError(f"duplicate placement for block {name!r}", lineno)
        block.x, block.y = _numbers(tokens[1:3], "coordinates", line, lineno)
        if not (math.isfinite(block.x2) and math.isfinite(block.y2)):
            raise ParseError(f"block {name!r} has its far corner beyond the float range in {line!r}", lineno)
        block.placed = True
        placed.add(name)
    missing = [b.name for b in blocks if b.name not in placed]
    if missing:
        raise ParseError(f"missing placement for blocks: {', '.join(missing[:8])}")
    return blocks


def parse_nets(text: str, blocks: list[Block]) -> list[Net]:
    """Parse a .nets file; pin positions resolve to block center + offset.

    Offsets are clamped into the owning block's rectangle. Blocks must be
    placed (run parse_pl first).
    """
    for b in blocks:
        if not b.placed:
            raise ParseError(f"block {b.name!r} is unplaced; parse the .pl file first")
    # per block name: its id, centre and bounds
    frames = {b.name: (b.id, b.x + b.width / 2.0, b.y + b.height / 2.0, b.x, b.y, b.x2, b.y2)
              for b in blocks}
    nets: list[Net] = []
    pins: list[Pin] = []
    degree = 0  # pins the open net declares; 0 while no net is open
    for lineno, line in _content_lines(text):
        if line.startswith("NetDegree"):
            if degree:
                raise ParseError(f"net {name!r} declares {degree} pins but has {len(pins)}", header)
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
            header = lineno
            pins = []
            continue
        if not degree:
            raise ParseError(f"expected NetDegree header, got {line!r}", lineno)
        tokens = line.replace(":", " ").split()
        if not tokens:
            raise ParseError(f"pin line names no block: {line!r}", lineno)
        frame = frames.get(tokens[0])
        if frame is None:
            raise ParseError(f"pin on unknown block {tokens[0]!r}", lineno)
        if len(tokens) == 3:
            raise ParseError(f"pin offset needs both dx and dy in {line!r}", lineno)
        dx = dy = 0.0
        if len(tokens) > 3:
            try:
                dx, dy = float(tokens[2].lstrip("%")), float(tokens[3].lstrip("%"))
            except ValueError:
                dx = math.nan
            if not (math.isfinite(dx) and math.isfinite(dy)):  # `_numbers` names the fault
                dx, dy = _numbers([t.lstrip("%") for t in tokens[2:4]], "pin offset", line, lineno)
        bid, cx, cy, x1, y1, x2, y2 = frame
        x, y = cx + dx, cy + dy
        pins.append(Pin(bid, dx, dy, x1 if x < x1 else x2 if x > x2 else x,
                        y1 if y < y1 else y2 if y > y2 else y))
        if len(pins) == degree:
            nets.append(Net(id=len(nets), name=name, pins=pins))
            degree = 0
    if degree:
        raise ParseError(f"net {name!r} declares {degree} pins but has {len(pins)}", header)
    return nets


def parse_floorplan(blocks_text: str, pl_text: str, nets_text: str) -> Floorplan:
    """Parse the three-file dialect into a Floorplan (bbox derived from blocks)."""
    blocks = parse_blocks(blocks_text)
    if not blocks:
        raise ParseError("the .blocks file declares no blocks")
    parse_pl(pl_text, blocks)
    nets = parse_nets(nets_text, blocks)
    x0 = min(b.x for b in blocks)
    y0 = min(b.y for b in blocks)
    w = max(b.x2 for b in blocks) - x0
    h = max(b.y2 for b in blocks) - y0
    if not (math.isfinite(w) and math.isfinite(h)):
        raise ParseError(f"the blocks span {w} x {h}, beyond the float range")
    return Floorplan(origin=(x0, y0), width=w, height=h, blocks=blocks, nets=nets)


def load_floorplan(blocks_path, pl_path, nets_path) -> Floorplan:
    return parse_floorplan(
        Path(blocks_path).read_text(),
        Path(pl_path).read_text(),
        Path(nets_path).read_text(),
    )


# ---------------------------------------------------------------------------
# serialization

def _f(v: float) -> str:
    return f"{v:.6f}"


def serialize_blocks(fp: Floorplan) -> str:
    out = [f"NumHardRectilinearBlocks : {len(fp.blocks)}", ""]
    for b in fp.blocks:
        w, h = _f(b.width), _f(b.height)
        z = _f(0.0)
        out.append(
            f"{b.name} hardrectilinear 4 ({z},{z}) ({z},{h}) ({w},{h}) ({w},{z})"
        )
    return "\n".join(out) + "\n"


def serialize_pl(fp: Floorplan) -> str:
    return "\n".join(f"{b.name} {_f(b.x)} {_f(b.y)}" for b in fp.blocks) + "\n"


def serialize_nets(fp: Floorplan) -> str:
    total_pins = sum(n.degree for n in fp.nets)
    out = [f"NumNets : {len(fp.nets)}", f"NumPins : {total_pins}", ""]
    by_id = {b.id: b for b in fp.blocks}
    for net in fp.nets:
        out.append(f"NetDegree : {net.degree} {net.name}")
        for pin in net.pins:
            out.append(f"{by_id[pin.block_id].name} B : {_f(pin.dx)} {_f(pin.dy)}")
    return "\n".join(out) + "\n"


def serialize_floorplan(fp: Floorplan) -> tuple[str, str, str]:
    return serialize_blocks(fp), serialize_pl(fp), serialize_nets(fp)


def save_floorplan(fp: Floorplan, out_dir, stem: str) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for ext, text in zip((".blocks", ".pl", ".nets"), serialize_floorplan(fp)):
        p = out / (stem + ext)
        p.write_text(text)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# validation and metrics

def net_box(net: Net) -> tuple[float, float, float, float]:
    """The bounding box (x1, y1, x2, y2) of the net's pins."""
    xs = [p.x for p in net.pins]
    ys = [p.y for p in net.pins]
    return (min(xs), min(ys), max(xs), max(ys))


def compute_hpwl(net: Net) -> float:
    """Half-perimeter of the net's pin bounding box."""
    if net.degree < 2:
        raise InvalidNetError(f"net {net.name!r} has {net.degree} pin(s); need >= 2")
    x1, y1, x2, y2 = net_box(net)
    return (x2 - x1) + (y2 - y1)


def _overlapping_pairs(x1, y1, x2, y2, tol: float) -> list[tuple[int, int]]:
    """Every pair i < j of rectangles whose overlap, min(x2) - max(x1) and
    min(y2) - max(y1), exceeds tol on both axes, sorted.

    An x-sweep: rectangles open in x1 order, and each one is a candidate
    pair with every rectangle still open.  An open rectangle closes (a heap on
    x2) once its x2 - x1 of the opening one is at most tol, as it then
    overlaps no later one by more than tol.  Every open rectangle thus
    reaches past the opening one's x1 + tol and starts no later, so their x
    overlap exceeds tol exactly when the opening one's own x2 - x1 does, and
    only the y overlap is left to check.  Float subtraction is monotone in
    each operand, so min(y2) - max(y1) is the least of the four differences
    y2 - y1 across the pair, and it exceeds tol exactly when all four do;
    the opening one's own is checked once.  Memory stays linear in n.
    """
    closing: list[tuple[float, int]] = []   # (x2, id) of the open rectangles
    open_: dict[int, None] = {}             # open ids, in opening order
    found: list[tuple[int, int]] = []
    for b in sorted(range(len(x1)), key=x1.__getitem__):
        start = x1[b]
        while closing and closing[0][0] - start <= tol:
            del open_[heapq.heappop(closing)[1]]
        lo, hi = y1[b], y2[b]
        if x2[b] - start > tol and hi - lo > tol:
            found.extend((a, b) if a < b else (b, a) for a in open_
                         if y2[a] - lo > tol and hi - y1[a] > tol and y2[a] - y1[a] > tol)
        open_[b] = None
        heapq.heappush(closing, (x2[b], b))
    found.sort()
    return found


def validate_floorplan(fp: Floorplan) -> ValidationReport:
    """Check the mosaic properties: containment, non-overlap, full coverage,
    and absence of four-block '+' crossings.  Violations are report entries,
    not exceptions.

    The one owner of the mosaic contract: besides the raw checks it checks
    the snapped rectangles every later stage reads, so a floorplan that
    passes builds.  Each block keeps a positive snapped width and height,
    each snapped point holding block corners holds two (a T-junction), and
    each corner of the snapped bounding rectangle holds one."""
    violations: list[Violation] = []
    tol = fp.tol
    blocks = fp.blocks
    if not blocks:
        return ValidationReport([])

    x1 = [b.x for b in blocks]
    y1 = [b.y for b in blocks]
    x2 = [b.x2 for b in blocks]
    y2 = [b.y2 for b in blocks]
    (ox, oy), w, h = fp.origin, fp.width, fp.height

    for b in blocks:
        if b.x < ox - tol or b.y < oy - tol or b.x2 > ox + w + tol or b.y2 > oy + h + tol:
            violations.append(Violation("outside", f"block {b.name} exceeds the bounding rectangle", b.x, b.y))

    for i, j in _overlapping_pairs(x1, y1, x2, y2, tol):
        bi, bj = blocks[i], blocks[j]
        cx = (max(bi.x, bj.x) + min(bi.x2, bj.x2)) / 2
        cy = (max(bi.y, bj.y) + min(bi.y2, bj.y2)) / 2
        violations.append(Violation("overlap", f"blocks {bi.name} and {bj.name} overlap", cx, cy))

    area = pairwise_sum([(b.x2 - b.x) * (b.y2 - b.y) for b in blocks])
    # an area that overflows to inf leaves a NaN difference, which fails too
    if not abs(area - w * h) <= tol * 2.0 * (w + h):
        violations.append(Violation(
            "coverage", f"block area {area:.6f} != bounding area {w * h:.6f}", ox, oy))

    # the snapped tiling every later stage reads
    sx1, sy1, sx2, sy2, (bx1, by1, bx2, by2) = fp.snapped
    for i, b in enumerate(blocks):
        if not (sx1[i] < sx2[i] and sy1[i] < sy2[i]):
            violations.append(Violation("coverage", f"block {b.name} is thinner than the tolerance", b.x, b.y))
    outer = {(bx1, by1), (bx1, by2), (bx2, by1), (bx2, by2)}
    counts = fp.corners
    for cx, cy in sorted(counts.keys() | outer):
        count, want = counts[cx, cy], 1 if (cx, cy) in outer else 2  # a missing corner counts 0
        if count >= 4:
            violations.append(Violation("crossing", f"four blocks meet at ({cx:.6f}, {cy:.6f})", cx, cy))
        elif count != want:
            violations.append(Violation(
                "coverage", f"{count} block corners at ({cx:.6f}, {cy:.6f}), not {want}", cx, cy))

    return ValidationReport(violations)


# ---------------------------------------------------------------------------
# synthesis

#: probability of extending a net beyond 2 pins; gives mean degree ~2.16
PIN_EXTEND_P = 0.138


def generate_random_floorplan(n: int, k: int, max_degree: int = 6, seed: int = 0) -> Floorplan:
    """Synthesize a guillotine mosaic floorplan with k random nets.

    Cuts are jittered away from existing cut lines so no two parallel walls
    share a coordinate, which rules out '+' crossings by construction.
    Deterministic for a fixed seed.
    """
    if n < 2 or k < 0 or max_degree < 2:
        raise ValueError("need n >= 2, k >= 0, max_degree >= 2")
    rng = random.Random(seed)
    side = float(round(100.0 * math.sqrt(n)))
    rects: list[tuple[float, float, float, float]] = [(0.0, 0.0, side, side)]
    used_x = {0.0, side}
    used_y = {0.0, side}

    while len(rects) < n:
        areas = [(x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in rects]
        idx = rng.choices(range(len(rects)), weights=areas)[0]
        x1, y1, x2, y2 = rects[idx]
        w, h = x2 - x1, y2 - y1
        vertical = w > h if abs(w - h) > 1e-9 else rng.random() < 0.5
        span = w if vertical else h
        lo = x1 if vertical else y1
        used = used_x if vertical else used_y
        gap = max(span * 1e-3, 1e-9 * side)
        cut = None
        for _ in range(200):
            c = lo + span * (0.35 + 0.3 * rng.random())
            if all(abs(c - u) > gap for u in used):
                cut = c
                break
        if cut is None:
            continue  # try another rectangle
        used.add(cut)
        if vertical:
            rects[idx] = (x1, y1, cut, y2)
            rects.append((cut, y1, x2, y2))
        else:
            rects[idx] = (x1, y1, x2, cut)
            rects.append((x1, cut, x2, y2))

    rects.sort(key=lambda r: (r[1], r[0]))
    blocks = [
        Block(id=i, name=f"bk{i}", x=x1, y=y1, width=x2 - x1, height=y2 - y1, placed=True)
        for i, (x1, y1, x2, y2) in enumerate(rects)
    ]

    nets: list[Net] = []
    for net_id in range(k):
        degree = 2
        while degree < max_degree and rng.random() < PIN_EXTEND_P:
            degree += 1
        degree = min(degree, n)
        pins = []
        for bid in rng.sample(range(n), degree):
            cx, cy = blocks[bid].center
            pins.append(Pin(block_id=bid, dx=0.0, dy=0.0, x=cx, y=cy))
        nets.append(Net(id=net_id, name=f"n{net_id}", pins=pins))

    return Floorplan(origin=(0.0, 0.0), width=side, height=side, blocks=blocks, nets=nets)
