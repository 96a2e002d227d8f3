"""Seeded random mosaic instances, written as Bookshelf files.

The benchmark makes its own inputs instead of calling msroute's generator,
so a change to the program cannot change what the benchmark feeds it. The
shape follows the paper's instances: a guillotine dissection of a square of
side 100*sqrt(n) into n blocks, and k nets whose pins sit at the centres of
distinct random blocks, with degree 2 plus a geometric tail up to a maximum.

The instance also answers the output checks' questions from its own
coordinates (pin HPWL, border T-junction count), so no oracle is taken from
the code under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: chance that a net gains one more pin (mean degree about 2.16)
PIN_EXTEND_P = 0.138


def _fmt(v: float) -> str:
    return f"{v:.6f}"


@dataclass(frozen=True)
class Instance:
    name: str
    side: float
    rects: tuple[tuple[float, float, float, float], ...]  # exact x1, y1, x2, y2
    nets: tuple[tuple[int, ...], ...]                      # block ids per net

    @property
    def n(self) -> int:
        return len(self.rects)

    @property
    def k(self) -> int:
        return len(self.nets)

    @property
    def pins(self) -> int:
        return sum(len(net) for net in self.nets)

    def _written(self) -> list[tuple[str, str, str, str]]:
        """Per block: x, y, width, height exactly as the files state them."""
        return [(_fmt(x1), _fmt(y1), _fmt(x2 - x1), _fmt(y2 - y1)) for x1, y1, x2, y2 in self.rects]

    def texts(self) -> dict[str, str]:
        written = self._written()
        blocks = [f"NumHardRectilinearBlocks : {self.n}", ""]
        pl = []
        for i, (x, y, w, h) in enumerate(written):
            z = _fmt(0.0)
            blocks.append(f"bk{i} hardrectilinear 4 ({z},{z}) ({z},{h}) ({w},{h}) ({w},{z})")
            pl.append(f"bk{i} {x} {y}")
        nets = [f"NumNets : {self.k}", f"NumPins : {self.pins}", ""]
        for j, net in enumerate(self.nets):
            nets.append(f"NetDegree : {len(net)} n{j}")
            nets.extend(f"bk{b} B : {_fmt(0.0)} {_fmt(0.0)}" for b in net)
        return {
            "blocks": "\n".join(blocks) + "\n",
            "pl": "\n".join(pl) + "\n",
            "nets": "\n".join(nets) + "\n",
        }

    def write(self, out_dir: Path) -> dict[str, Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for ext, text in self.texts().items():
            path = out_dir / f"{self.name}.{ext}"
            path.write_text(text)
            paths[ext] = path
        return paths

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts().values():
            h.update(text.encode())
        return h.hexdigest()[:16]

    def hpwl(self) -> list[float]:
        """Per-net half-perimeter of the pins, which sit at the block centres
        computed from the written (rounded) placement and dimensions."""
        centres = [(float(x) + float(w) / 2.0, float(y) + float(h) / 2.0) for x, y, w, h in self._written()]
        out = []
        for net in self.nets:
            xs = [centres[b][0] for b in net]
            ys = [centres[b][1] for b in net]
            out.append((max(xs) - min(xs)) + (max(ys) - min(ys)))
        return out

    def border_tjunctions(self) -> int:
        """T-junctions on the outer boundary: distinct block corners lying on
        it, apart from the four corners of the square. Cut coordinates are
        shared exactly between the two blocks a cut creates."""
        s = self.side
        points = set()
        for x1, y1, x2, y2 in self.rects:
            for p in ((x1, y1), (x1, y2), (x2, y1), (x2, y2)):
                if p[0] in (0.0, s) or p[1] in (0.0, s):
                    points.add(p)
        return len(points) - 4


def generate(name: str, n: int, k: int, max_degree: int, seed: int) -> Instance:
    """Guillotine mosaic of n blocks with k nets, deterministic in seed.

    Each step splits an area-weighted random block across its longer side at
    35-65% of its span. A cut never lands within 0.1% of the span of an
    earlier parallel cut line, so no four blocks meet at a point.
    """
    if n < 2 or k < 0 or not 2 <= max_degree <= n:
        raise ValueError("need n >= 2, k >= 0 and 2 <= max_degree <= n")
    rng = random.Random(seed)
    side = float(round(100.0 * math.sqrt(n)))
    rects = [(0.0, 0.0, side, side)]
    cut_lines = ({0.0, side}, {0.0, side})  # x then y coordinates in use
    while len(rects) < n:
        i = rng.choices(range(len(rects)), weights=[(r[2] - r[0]) * (r[3] - r[1]) for r in rects])[0]
        x1, y1, x2, y2 = rects[i]
        w, h = x2 - x1, y2 - y1
        vertical = w > h if w != h else rng.random() < 0.5
        lo, span = (x1, w) if vertical else (y1, h)
        used = cut_lines[0 if vertical else 1]
        for _ in range(100):
            c = lo + span * (0.35 + 0.3 * rng.random())
            if all(abs(c - u) > span * 1e-3 for u in used):
                break
        else:
            continue
        used.add(c)
        if vertical:
            rects[i] = (x1, y1, c, y2)
            rects.append((c, y1, x2, y2))
        else:
            rects[i] = (x1, y1, x2, c)
            rects.append((x1, c, x2, y2))
    rects.sort(key=lambda r: (r[1], r[0]))

    nets = []
    for _ in range(k):
        degree = 2
        while degree < max_degree and rng.random() < PIN_EXTEND_P:
            degree += 1
        nets.append(tuple(rng.sample(range(n), degree)))
    return Instance(name=name, side=side, rects=tuple(rects), nets=tuple(nets))
