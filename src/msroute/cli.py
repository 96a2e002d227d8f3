"""Command line interface: route, gen, sweep, dump-graph.

Exit codes: 0 on success (routing failures are reported in the output, not
the exit code), 1 on bad input (parse or validation failure, or a path the
file system refuses), 2 when an internal invariant trips.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .adjacency import Orientation
from .errors import GeometryError, InternalError, MsRouteError, ParseError
from .floorplan import Floorplan, generate_random_floorplan, load_floorplan, save_floorplan
from .metrics import summarize, write_report
from .routegraph import LayerModel, RegionModel, junction_graph_csv
from .router import PRESETS, RoutingState, RunConfig, route_all, route_floorplan
from .staircase import BalanceMode, segments_csv, tree_text

_LAYER_MODELS = {"reserved-hv": LayerModel.RESERVED_HV, "unreserved": LayerModel.UNRESERVED}
_BALANCES = {"number": BalanceMode.NUMBER, "area": BalanceMode.AREA}


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--blocks", help="path to the .blocks file")
    p.add_argument("--pl", help="path to the .pl placement file")
    p.add_argument("--nets", help="path to the .nets file")
    p.add_argument("--n", type=int, help="generate an instance with this many blocks")
    p.add_argument("--k", type=int, help="generated net count")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", choices=sorted(PRESETS), default="FCN")
    p.add_argument("--layers", type=int, default=8, help="number of metal layers (M)")
    p.add_argument("--layer-model", choices=sorted(_LAYER_MODELS), default="reserved-hv")
    p.add_argument("--balance", choices=sorted(_BALANCES), default="number")


def _resolve_instance(args) -> Floorplan:
    if args.blocks or args.pl or args.nets:
        if not (args.blocks and args.pl and args.nets):
            raise ParseError("--blocks, --pl and --nets must be given together")
        return load_floorplan(args.blocks, args.pl, args.nets)
    if args.n is not None and args.k is not None:
        return generate_random_floorplan(args.n, args.k, args.max_degree, args.seed)
    raise ParseError("give either --blocks/--pl/--nets or --n/--k")


def _region(args) -> RegionModel:
    return RegionModel.build(_resolve_instance(args), balance=_BALANCES[args.balance])


def _make_config(args, name: str | None = None) -> RunConfig:
    return RunConfig.from_name(
        name or args.config,
        layers=args.layers,
        layer_model=_LAYER_MODELS[args.layer_model],
    )


def _print_summary(report) -> None:
    t = report.totals
    c = report.congestion
    print(
        f"[{report.config['name']}] routed {t['routed']}/{t['nets']} "
        f"({t['routed_pct']:.1f}%)  wl={t['wirelength']:.1f}  vias={t['vias']}  "
        f"wACE4max={c['wace4_max'] if c['wace4_max'] is not None else 'n/a'}  "
        f"runtime={t['runtime_seconds']:.3f}s"
    )


def _cmd_route(args) -> int:
    config = _make_config(args)
    report = summarize(route_floorplan(_resolve_instance(args), config, balance=_BALANCES[args.balance]))
    paths = write_report(report, args.out, config.name, args.report)
    _print_summary(report)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_gen(args) -> int:
    fp = generate_random_floorplan(args.n, args.k, args.max_degree, args.seed)
    fp.require_valid()
    stem = args.name or f"gen_n{args.n}_k{args.k}_s{args.seed}"
    for p in save_floorplan(fp, args.out, stem):
        print(f"wrote {p}")
    return 0


def _cmd_sweep(args) -> int:
    names = sorted(PRESETS) if args.all_configs or args.configs is None else [
        s.strip() for s in args.configs.split(",") if s.strip()
    ]
    if not names:
        raise ParseError(f"--configs {args.configs!r} names no configuration")
    configs = [_make_config(args, name) for name in names]  # an unknown name fails before any routing
    region = _region(args)
    rows = []
    for config in configs:
        report = summarize(route_all(RoutingState.prepare(region, config)))
        write_report(report, args.out, config.name, args.report)
        _print_summary(report)
        rows.append({
            "config": config.name,
            "routed_pct": report.totals["routed_pct"],
            "wirelength": report.totals["wirelength"],
            "vias": report.totals["vias"],
            "runtime_seconds": report.totals["runtime_seconds"],
            "wace4_max": report.congestion["wace4_max"],
        })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["config", "routed_pct", "wirelength", "vias", "runtime_seconds", "wace4_max"],
        lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    sweep_path = out / "sweep_summary.csv"
    sweep_path.write_text(buf.getvalue())
    print(f"wrote {sweep_path}")
    return 0


def _cmd_dump_graph(args) -> int:
    config = _make_config(args)
    region = _region(args)
    state = RoutingState.prepare(region, config)
    if args.route_first:
        route_all(state)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "bag_mis.dot": region.tree.bags[Orientation.MIS].as_dot(),
        "bag_mds.dot": region.tree.bags[Orientation.MDS].as_dot(),
        "msc_tree.txt": tree_text(region.tree),
        "segments.csv": segments_csv(region.segments),
        "junction_graph.csv": junction_graph_csv(region.graph, state.usage, config.profile.layers),
    }
    for name, text in artifacts.items():
        path = out / name
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msroute",
        description="Early global routing over monotone staircase regions of a floorplan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route one instance under one configuration")
    _add_instance_args(p_route)
    _add_config_args(p_route)
    p_route.add_argument("--out", default=".", help="output directory for reports")
    p_route.add_argument("--report", choices=["json", "csv", "both"], default="both")
    p_route.set_defaults(func=_cmd_route)

    p_gen = sub.add_parser("gen", help="generate a random mosaic instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--max-degree", type=int, default=6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".")
    p_gen.add_argument("--name", help="file stem (default gen_n{n}_k{k}_s{seed})")
    p_gen.set_defaults(func=_cmd_gen)

    p_sweep = sub.add_parser("sweep", help="run several configurations on one instance")
    _add_instance_args(p_sweep)
    _add_config_args(p_sweep)
    p_sweep.add_argument("--all-configs", action="store_true",
                         help="run FCN, FCH, FCL, BCN, BCH, BCL")
    p_sweep.add_argument("--configs", help="comma-separated configuration names")
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--report", choices=["json", "csv", "both"], default="both")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dump = sub.add_parser("dump-graph", help="dump BAG, MSC tree, segments and junction graph")
    _add_instance_args(p_dump)
    _add_config_args(p_dump)
    p_dump.add_argument("--route-first", action="store_true",
                        help="route before dumping so usage columns are filled")
    p_dump.add_argument("--out", default=".")
    p_dump.set_defaults(func=_cmd_dump_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InternalError, GeometryError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (MsRouteError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
