"""Floorplan and netlist model: parsing, validation, synthesis, serialization.

File dialects (Bookshelf-style):

  .blocks  ``name hardrectilinear 4 (x1,y1) (x2,y2) (x3,y3) (x4,y4)``
  .pl      ``name x y``
  .nets    ``NetDegree : t [name]`` followed by ``blockname B [: dx dy]`` lines

Comments start with ``#``; ``UCLA ...`` and ``NumXxx : n`` header lines are
skipped.  Canonical serialization writes the same dialects with 6-decimal
fixed-point coordinates, so serialize -> parse -> serialize is byte-stable.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidNetError, ParseError, ValidationError

# Fraction of the bounding-box diagonal used as the coordinate tolerance.
TOL_FRACTION = 1e-6


@dataclass
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


@dataclass
class Pin:
    """Net terminal; absolute position is block center + offset, clamped."""

    net_id: int
    block_id: int
    dx: float
    dy: float
    x: float
    y: float


@dataclass
class Net:
    id: int
    name: str
    pins: list[Pin]
    hpwl: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.pins)


@dataclass
class Violation:
    kind: str  # overlap | coverage | crossing | outside
    message: str
    x: float
    y: float


@dataclass
class ValidationReport:
    passed: bool
    violations: list[Violation]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


@dataclass
class Floorplan:
    """Rectangle dissection into blocks plus the netlist over them."""

    origin: tuple[float, float]
    width: float
    height: float
    blocks: list[Block]
    nets: list[Net]

    def __post_init__(self):
        self._validation: ValidationReport | None = None
        self._snapped = None
        self._walls = None  # adjacency's wall pairs, found on first use

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def tol(self) -> float:
        return TOL_FRACTION * self.diagonal

    def require_valid(self) -> ValidationReport:
        """Validate once and cache; raise if the floorplan is not a clean mosaic."""
        if self._validation is None:
            self._validation = validate_floorplan(self)
        if not self._validation.passed:
            msgs = "; ".join(v.message for v in self._validation.violations[:5])
            raise ValidationError(f"invalid floorplan: {msgs}", self._validation.violations)
        return self._validation

    def snapped_rects(self):
        """Block rectangles (x1, y1, x2, y2 arrays) with near-equal wall
        coordinates snapped to a shared value, plus the snapped bounding box.

        Downstream geometry (adjacency, junctions, segments) compares these
        snapped floats exactly, which keeps wall/junction matching tolerance-free.
        """
        if self._snapped is None:
            n = len(self.blocks)
            x1 = np.array([b.x for b in self.blocks], dtype=float)
            y1 = np.array([b.y for b in self.blocks], dtype=float)
            x2 = np.array([b.x2 for b in self.blocks], dtype=float)
            y2 = np.array([b.y2 for b in self.blocks], dtype=float)
            bx = np.array([self.origin[0], self.origin[0] + self.width])
            by = np.array([self.origin[1], self.origin[1] + self.height])
            xs = _cluster_snap(np.concatenate([x1, x2, bx]), self.tol)
            ys = _cluster_snap(np.concatenate([y1, y2, by]), self.tol)
            self._snapped = (
                xs[:n], ys[:n], xs[n:2 * n], ys[n:2 * n],
                (float(xs[2 * n]), float(ys[2 * n]), float(xs[2 * n + 1]), float(ys[2 * n + 1])),
            )
        return self._snapped


def _cluster_snap(values: np.ndarray, tol: float) -> np.ndarray:
    """Snap 1-D coordinates to their cluster mean (clusters split on gaps > tol)."""
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


# ---------------------------------------------------------------------------
# parsing

_SKIP_RE = re.compile(r"^\s*(#|UCLA\b|Num\w*\s*:)")
_COORD_RE = re.compile(r"\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _SKIP_RE.match(line):
            continue
        yield lineno, line


def _numbers(texts: list[str], what: str, line: str, lineno: int) -> list[float]:
    """Parse a line's numeric fields; NaN and infinite values (including
    overflow, such as 1e999) are rejected."""
    try:
        values = [float(t) for t in texts]
    except ValueError as exc:
        raise ParseError(f"bad {what} in {line!r}", lineno) from exc
    if not all(math.isfinite(v) for v in values):
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
        w, h = max(xs) - min(xs), max(ys) - min(ys)
        if w <= 0 or h <= 0:
            raise ParseError(f"block {name!r} has non-positive dimensions", lineno)
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
    index = {b.name: b for b in blocks}
    for b in blocks:
        if not b.placed:
            raise ParseError(f"block {b.name!r} is unplaced; parse the .pl file first")
    nets: list[Net] = []
    lines = list(_content_lines(text))
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
        net_id = len(nets)
        pins: list[Pin] = []
        for j in range(degree):
            if i + 1 + j >= len(lines) or lines[i + 1 + j][1].startswith("NetDegree"):
                raise ParseError(f"net {name!r} declares {degree} pins but has {j}", lineno)
            pl_no, pin_line = lines[i + 1 + j]
            tokens = pin_line.replace(":", " ").split()
            bname = tokens[0]
            block = index.get(bname)
            if block is None:
                raise ParseError(f"pin on unknown block {bname!r}", pl_no)
            dx = dy = 0.0
            numeric = [t.lstrip("%") for t in tokens[2:]]
            if len(numeric) == 1:
                raise ParseError(f"pin offset needs both dx and dy in {pin_line!r}", pl_no)
            if len(numeric) >= 2:
                dx, dy = _numbers(numeric[:2], "pin offset", pin_line, pl_no)
            cx, cy = block.center
            px = min(max(cx + dx, block.x), block.x2)
            py = min(max(cy + dy, block.y), block.y2)
            pins.append(Pin(net_id=net_id, block_id=block.id, dx=dx, dy=dy, x=px, y=py))
        net = Net(id=net_id, name=name, pins=pins)
        net.hpwl = compute_hpwl(net)
        nets.append(net)
        i += 1 + degree
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


def instance_hash(fp: Floorplan) -> str:
    digest = hashlib.sha256()
    for text in serialize_floorplan(fp):
        digest.update(text.encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation and metrics

def compute_hpwl(net: Net) -> float:
    """Half-perimeter of the net's pin bounding box."""
    if net.degree < 2:
        raise InvalidNetError(f"net {net.name!r} has {net.degree} pin(s); need >= 2")
    xs = [p.x for p in net.pins]
    ys = [p.y for p in net.pins]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def corner_counts(fp: Floorplan) -> Counter[tuple[float, float]]:
    """How many block corners sit at each snapped point."""
    x1, y1, x2, y2, _ = fp.snapped_rects()
    return Counter(
        (float(cx), float(cy))
        for i in range(len(fp.blocks))
        for cx, cy in ((x1[i], y1[i]), (x1[i], y2[i]), (x2[i], y1[i]), (x2[i], y2[i]))
    )


#: candidate pairs the overlap sweep gathers before checking them with numpy
_OVERLAP_BATCH = 4096


def _overlapping_pairs(x1, y1, x2, y2, tol: float) -> list[tuple[int, int]]:
    """Every pair i < j of rectangles whose overlap, min(x2) - max(x1) and
    min(y2) - max(y1), exceeds tol on both axes, sorted.

    An x-sweep: rectangles open in x1 order, and each one is a candidate
    pair with every rectangle still open.  An open rectangle closes (a heap on
    x2) once its x2 - x1 of the opening one is at most tol, as it then
    overlaps no later one by more than tol.  The candidates are checked with
    the expressions above in numpy batches, so memory stays linear in n.
    """
    lx1, lx2 = x1.tolist(), x2.tolist()
    closing: list[tuple[float, int]] = []   # (x2, id) of the open rectangles
    open_: dict[int, None] = {}             # open ids, in opening order
    older: list[int] = []
    newer: list[int] = []
    found: list[tuple[int, int]] = []

    def check():
        a, b = np.array(older, dtype=np.intp), np.array(newer, dtype=np.intp)
        i, j = np.minimum(a, b), np.maximum(a, b)
        ovx = np.minimum(x2[i], x2[j]) - np.maximum(x1[i], x1[j])
        ovy = np.minimum(y2[i], y2[j]) - np.maximum(y1[i], y1[j])
        hit = (ovx > tol) & (ovy > tol)
        found.extend(zip(i[hit].tolist(), j[hit].tolist()))
        older.clear()
        newer.clear()

    for b in np.argsort(x1, kind="stable").tolist():
        start = lx1[b]
        while closing and closing[0][0] - start <= tol:
            del open_[heapq.heappop(closing)[1]]
        older.extend(open_)
        newer.extend(itertools.repeat(b, len(open_)))
        if len(older) >= _OVERLAP_BATCH:
            check()
        open_[b] = None
        heapq.heappush(closing, (lx2[b], b))
    check()
    found.sort()
    return found


def validate_floorplan(fp: Floorplan) -> ValidationReport:
    """Check the mosaic properties: containment, non-overlap, full coverage,
    and absence of four-block '+' crossings.  Violations are report entries,
    not exceptions."""
    violations: list[Violation] = []
    tol = fp.tol
    n = len(fp.blocks)
    if n == 0:
        return ValidationReport(True, [])

    x1 = np.array([b.x for b in fp.blocks])
    y1 = np.array([b.y for b in fp.blocks])
    x2 = np.array([b.x2 for b in fp.blocks])
    y2 = np.array([b.y2 for b in fp.blocks])
    (ox, oy), w, h = fp.origin, fp.width, fp.height

    outside = (x1 < ox - tol) | (y1 < oy - tol) | (x2 > ox + w + tol) | (y2 > oy + h + tol)
    for i in np.flatnonzero(outside):
        b = fp.blocks[i]
        violations.append(Violation("outside", f"block {b.name} exceeds the bounding rectangle", b.x, b.y))

    for i, j in _overlapping_pairs(x1, y1, x2, y2, tol):
        bi, bj = fp.blocks[i], fp.blocks[j]
        cx = (max(bi.x, bj.x) + min(bi.x2, bj.x2)) / 2
        cy = (max(bi.y, bj.y) + min(bi.y2, bj.y2)) / 2
        violations.append(Violation("overlap", f"blocks {bi.name} and {bj.name} overlap", cx, cy))

    area = float(np.sum((x2 - x1) * (y2 - y1)))
    if abs(area - w * h) > tol * 2.0 * (w + h):
        violations.append(Violation(
            "coverage", f"block area {area:.6f} != bounding area {w * h:.6f}", ox, oy))

    # '+' crossing: a point shared as a corner by four blocks
    for (cx, cy), count in sorted(corner_counts(fp).items()):
        if count >= 4:
            violations.append(Violation("crossing", f"four blocks meet at ({cx:.6f}, {cy:.6f})", cx, cy))

    return ValidationReport(passed=not violations, violations=violations)


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
            pins.append(Pin(net_id=net_id, block_id=bid, dx=0.0, dy=0.0, x=cx, y=cy))
        net = Net(id=net_id, name=f"n{net_id}", pins=pins)
        net.hpwl = compute_hpwl(net)
        nets.append(net)

    return Floorplan(origin=(0.0, 0.0), width=side, height=side, blocks=blocks, nets=nets)
