"""Command line interface: subcommands, artifacts, exit codes."""

import csv
import gc
import json
import os
import subprocess
import sys

import pytest

import msroute.floorplan
import msroute.routegraph
from msroute.cli import main
from msroute.errors import InternalError
from msroute.floorplan import generate_random_floorplan, load_floorplan, save_floorplan, validate_floorplan
from msroute.metrics import summarize
from msroute.routegraph import LayerModel, RegionModel, junction_graph_csv
from msroute.router import PRESETS, RoutingState, RunConfig, route_all, route_floorplan


def test_gen_writes_valid_instance(tmp_path):
    assert main(["gen", "--n", "8", "--k", "20", "--seed", "3", "--out", str(tmp_path)]) == 0
    stem = tmp_path / "gen_n8_k20_s3"
    triple = [stem.with_suffix(ext) for ext in (".blocks", ".pl", ".nets")]
    assert all(p.exists() for p in triple)
    fp = load_floorplan(*triple)
    assert len(fp.blocks) == 8 and len(fp.nets) == 20
    assert validate_floorplan(fp).passed


def test_route_from_files(tmp_path):
    main(["gen", "--n", "10", "--k", "25", "--seed", "1", "--out", str(tmp_path), "--name", "inst"])
    code = main([
        "route",
        "--blocks", str(tmp_path / "inst.blocks"),
        "--pl", str(tmp_path / "inst.pl"),
        "--nets", str(tmp_path / "inst.nets"),
        "--config", "FCN", "--layers", "8",
        "--out", str(tmp_path / "rep"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "rep" / "report_FCN.json").read_text())
    assert payload["schema"] == "msroute-report-v1"
    assert payload["config"]["name"] == "FCN"
    assert payload["config"]["layers"] == 8
    assert payload["totals"]["nets"] == 25
    assert (tmp_path / "rep" / "report_FCN_nets.csv").exists()
    assert (tmp_path / "rep" / "report_FCN_summary.csv").exists()


def test_route_generated_instance_json_only(tmp_path):
    code = main(["route", "--n", "8", "--k", "15", "--seed", "2",
                 "--out", str(tmp_path), "--report", "json"])
    assert code == 0
    assert (tmp_path / "report_FCN.json").exists()
    assert not (tmp_path / "report_FCN_nets.csv").exists()


def test_route_missing_file_exits_one(tmp_path):
    code = main(["route", "--blocks", str(tmp_path / "nope.blocks"),
                 "--pl", str(tmp_path / "nope.pl"), "--nets", str(tmp_path / "nope.nets"),
                 "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command", [
    lambda d: ["route", "--blocks", str(d), "--pl", str(d / "taken"), "--nets", str(d / "taken"),
               "--out", str(d / "out")],
    lambda d: ["route", "--n", "5", "--k", "10", "--out", str(d / "taken")],
    lambda d: ["gen", "--n", "5", "--k", "10", "--out", str(d / "taken")],
], ids=["route-blocks-is-a-directory", "route-out-is-a-file", "gen-out-is-a-file"])
def test_path_the_file_system_refuses_exits_one(tmp_path, capsys, command):
    (tmp_path / "taken").write_text("")
    assert main(command(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["route"], ["sweep", "--all-configs"], ["dump-graph"],
], ids=["route", "sweep", "dump-graph"])
def test_out_that_is_a_file_exits_one_before_any_region_build(tmp_path, capsys, monkeypatch, command):
    def refused(*args, **kwargs):
        raise AssertionError("a region was built for an unusable --out")

    monkeypatch.setattr(msroute.routegraph.RegionModel, "build", refused)
    (tmp_path / "taken").write_text("")
    assert main(command + ["--n", "30", "--k", "90", "--out", str(tmp_path / "taken")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_route_invalid_floorplan_exits_one(tmp_path):
    # two overlapping unit blocks
    (tmp_path / "bad.blocks").write_text(
        "a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\n"
        "b hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\n")
    (tmp_path / "bad.pl").write_text("a 0 0\nb 0.5 0\n")
    (tmp_path / "bad.nets").write_text("NetDegree : 2\na B\nb B\n")
    code = main(["route", "--blocks", str(tmp_path / "bad.blocks"),
                 "--pl", str(tmp_path / "bad.pl"), "--nets", str(tmp_path / "bad.nets"),
                 "--out", str(tmp_path)])
    assert code == 1


_TWO_BLOCKS = {
    "blocks": "a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\nb hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\n",
    "pl": "a 0 0\nb 1 0\n",
    "nets": "NetDegree : 2\na B : 0 0\nb B : 0 0\n",
}


def _route_files(tmp_path, command="route", **texts):
    files = {**_TWO_BLOCKS, **texts}
    args = [command]
    for ext, text in files.items():
        (tmp_path / f"in.{ext}").write_text(text)
        args += [f"--{ext}", str(tmp_path / f"in.{ext}")]
    return main(args + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("ext, text, lineno", [
    ("blocks", "a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\nb hardrectilinear 4 (0,0) (0,1) (1e999,1) (1e999,0)\n", 2),
    ("pl", "a 0 0\nb nan 0\n", 2),
    ("pl", "a 0 inf\nb 1 0\n", 1),
    ("nets", "NetDegree : 2\na B : 0 0\nb B : nan 0\n", 3),
    ("nets", "NetDegree : 2\na B : -inf 0\nb B : 0 0\n", 2),
], ids=["blocks-overflow", "pl-nan", "pl-inf", "nets-nan", "nets-minus-inf"])
def test_non_finite_number_exits_one_naming_the_line(tmp_path, capsys, ext, text, lineno):
    assert _route_files(tmp_path, **{ext: text}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {lineno}:" in err and "non-finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blocks", ["", "# no blocks\npad terminal\n"], ids=["empty", "terminals-only"])
def test_blocks_file_without_blocks_exits_one(tmp_path, capsys, blocks):
    assert _route_files(tmp_path, blocks=blocks, pl="", nets="") == 1
    assert "error: the .blocks file declares no blocks" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pl_placing_a_block_twice_exits_one_naming_the_line(tmp_path, capsys):
    assert _route_files(tmp_path, pl="a 0 0\nb 1 0\na 2 0\n") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: duplicate placement for block 'a'")
    assert not (tmp_path / "out").exists()


def test_blocks_line_whose_points_are_not_corners_exits_one_naming_the_line(tmp_path, capsys):
    blocks = "a hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\nb hardrectilinear 4 (0,0) (0,1) (1,0.5) (1,0)\n"
    assert _route_files(tmp_path, blocks=blocks) == 1
    assert capsys.readouterr().err.startswith("error: line 2: the points of block 'b' are not")
    assert not (tmp_path / "out").exists()


def _rect(name, w, h):
    return f"{name} hardrectilinear 4 (0,0) (0,{h}) ({w},{h}) ({w},0)\n"


# name: (.blocks, .pl, the start of the error); the unnamed case keeps its plain command id
_NOT_A_MOSAIC = {
    # two 1e200-wide squares with a 1e200 gap between them: both areas are inf
    "": (_rect("a", "1e200", "1e200") + _rect("b", "1e200", "1e200"), "a 0 0\nb 2e200 0\n",
         "block area inf != bounding area inf"),
    # a 1.5 tol gap in the wall: the area misfit is within its bound, and the
    # wall's corners do not meet
    "wall-gap": ("a hardrectilinear 4 (0,0) (0,100) (40,100) (40,0)\n" + _rect("b", 60, 100),
                 "a 0 0\nb 40.000212 0\n", "1 block corners at (40.000000, 0.000000), not 2"),
    # a block thinner than tol on the border snaps to no width
    "border-sliver": (_rect("a", "1e-9", 10) + _rect("b", "9.999999999", 10), "a 0 0\nb 0.000000001 0\n",
                      "block a is thinner than the tolerance"),
    # a sliver inside the wall between a and b: its corners pair up, its width is gone
    "wall-sliver": (_rect("a", 1, 10) + _rect("b", 1, 10) + _rect("s", "1e-9", 1), "a 0 0\nb 1 0\ns 1 3\n",
                    "block s is thinner than the tolerance"),
}


@pytest.mark.parametrize("command, blocks, pl, message", [
    pytest.param(command, *case, id="-".join(filter(None, (name, command))))
    for name, case in _NOT_A_MOSAIC.items() for command in ("route", "dump-graph")])
def test_coverage_gap_whose_areas_overflow_exits_one(tmp_path, capsys, command, blocks, pl, message):
    assert _route_files(tmp_path, command, blocks=blocks, pl=pl) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid floorplan: {message}")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["route", "dump-graph"])
@pytest.mark.parametrize("pl, message", [
    ("a 0 0\nb 1e308 0\n", "line 2: block 'b' has its far corner beyond the float range"),
    ("a -1e308 0\nb 0 0\n", "the blocks span inf x 1.0, beyond the float range"),
], ids=["block", "bounding-box"])
def test_far_corner_beyond_the_float_range_exits_one(tmp_path, capsys, command, pl, message):
    # b's x + width, or the bounding box's width, overflows to inf: no false
    # crossing at inf or NaN, and no traceback
    wide = "hardrectilinear 4 (0,0) (0,1) (1e308,1) (1e308,0)"
    assert _route_files(tmp_path, command, blocks=f"a {wide}\nb {wide}\n", pl=pl) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err and "crossing" not in err
    assert not (tmp_path / "out").exists()


def test_route_incomplete_file_triple_exits_one(tmp_path):
    code = main(["route", "--blocks", "x.blocks", "--out", str(tmp_path)])
    assert code == 1


def test_sweep_all_configs(tmp_path):
    code = main(["sweep", "--n", "8", "--k", "18", "--seed", "5",
                 "--all-configs", "--out", str(tmp_path)])
    assert code == 0
    names = ["BCH", "BCL", "BCN", "FCH", "FCL", "FCN"]
    hashes = set()
    for name in names:
        payload = json.loads((tmp_path / f"report_{name}.json").read_text())
        assert payload["config"]["name"] == name
        hashes.add(payload["instance"]["hash"])
    assert len(hashes) == 1
    with open(tmp_path / "sweep_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["config"] for r in rows] == names
    assert {"wirelength", "vias", "runtime_seconds", "wace4_max"} <= set(rows[0])


def test_sweep_selected_configs(tmp_path):
    code = main(["sweep", "--n", "6", "--k", "10", "--seed", "1",
                 "--configs", "FCN,BCH", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report_FCN.json").exists()
    assert (tmp_path / "report_BCH.json").exists()
    assert not (tmp_path / "report_FCL.json").exists()


def test_sweep_builds_one_region_and_matches_separate_routes(tmp_path, monkeypatch):
    calls = []
    build = msroute.routegraph.build_msc_tree

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(msroute.routegraph, "build_msc_tree", counted)
    assert main(["sweep", "--n", "12", "--k", "60", "--seed", "4", "--layers", "2",
                 "--all-configs", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    fp = generate_random_floorplan(12, 60, 6, seed=4)
    for name in PRESETS:
        payload = json.loads((tmp_path / f"report_{name}.json").read_text())
        del payload["totals"]["runtime_seconds"]
        swept = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        alone = summarize(route_floorplan(fp, RunConfig.from_name(name, layers=2)))
        assert swept == alone.to_json(include_timing=False)
    assert len(calls) == 1 + len(PRESETS)


def test_sweep_unknown_config_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--n", "6", "--k", "10", "--configs", "FCN,XYZ", "--out", str(out)])
    assert code == 1
    assert "'XYZ'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_has_no_config_option(tmp_path, capsys):
    # sweep runs --configs or every preset, so a --config would go unread
    out = tmp_path / "out"
    assert main(["sweep", "--config", "FCH", "--n", "12", "--k", "30", "--layers", "2", "--out", str(out)]) == 1
    assert "msroute: error: unrecognized arguments: --config FCH" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_all_configs_with_configs_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--all-configs", "--configs", "FCN", "--n", "6", "--k", "10", "--out", str(out)]) == 1
    assert "argument --configs: not allowed with argument --all-configs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("configs", [",", " , ", ""])
def test_sweep_configs_naming_nothing_exits_one_and_writes_nothing(tmp_path, capsys, configs):
    out = tmp_path / "out"
    code = main(["sweep", "--n", "6", "--k", "10", "--configs", configs, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --configs")
    assert not out.exists()


@pytest.mark.parametrize("configs", ["FCN,fcn", "FCN,FCN", "BCH,FCN,bch"])
def test_sweep_configs_naming_one_twice_exits_one_and_writes_nothing(tmp_path, capsys, configs):
    """A name repeated in any case is refused before the output directory
    is made, and so before any routing."""
    out = tmp_path / "out"
    code = main(["sweep", "--n", "6", "--k", "10", "--configs", configs, "--out", str(out)])
    assert code == 1
    assert "names a configuration twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["route", "sweep", "dump-graph"])
@pytest.mark.parametrize("layers", ["0", "-2"])
def test_fewer_than_one_layer_exits_one(tmp_path, capsys, command, layers):
    out = tmp_path / "out"
    code = main([command, "--n", "6", "--k", "10", "--layers", layers, "--out", str(out)])
    assert code == 1
    assert f"got {layers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["route", "dump-graph"])
@pytest.mark.parametrize("layers", ["65", "40000"])
def test_more_layers_than_the_bound_exits_one(tmp_path, capsys, command, layers):
    out = tmp_path / "out"
    code = main([command, "--n", "6", "--k", "10", "--layers", layers, "--out", str(out)])
    assert code == 1
    assert f"[1, 64], got {layers}" in capsys.readouterr().err
    assert not out.exists()


def test_dump_graph_artifacts(tmp_path):
    code = main(["dump-graph", "--n", "6", "--k", "8", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    dot = (tmp_path / "bag_mis.dot").read_text()
    assert dot.startswith("digraph")
    assert (tmp_path / "bag_mds.dot").exists()
    tree = (tmp_path / "msc_tree.txt").read_text()
    assert "cut 0 [MIS]" in tree
    seg_rows = (tmp_path / "segments.csv").read_text().splitlines()
    assert seg_rows[0] == "id,axis,fixed,lo,hi,r"
    assert len(seg_rows) == (3 * 6 + 1) + 1
    jg_rows = (tmp_path / "junction_graph.csv").read_text().splitlines()
    assert jg_rows[0].startswith("segment,j1,j2,length,r,u1")


def test_dump_graph_route_first_fills_usage(tmp_path):
    code = main(["dump-graph", "--n", "8", "--k", "30", "--seed", "2",
                 "--route-first", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "junction_graph.csv").read_text().splitlines()[1:]
    used = sum(int(v) for row in rows for v in row.split(",")[5:])
    assert used > 0


def test_unrouted_dump_computes_no_hpwl(tmp_path, monkeypatch):
    """Only routing reads a net's HPWL: ordering computes it once per net."""
    paths = save_floorplan(generate_random_floorplan(20, 90, 6, seed=6), tmp_path, "in")
    args = [f"--{ext}={path}" for ext, path in zip(("blocks", "pl", "nets"), paths)]
    calls = []
    compute_hpwl = msroute.floorplan.compute_hpwl
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "msroute"]:
        if hasattr(module, "compute_hpwl"):
            monkeypatch.setattr(module, "compute_hpwl", lambda net: calls.append(net) or compute_hpwl(net))
    assert main(["dump-graph", *args, "--out", str(tmp_path / "dump")]) == 0
    assert calls == []
    assert main(["dump-graph", *args, "--route-first", "--out", str(tmp_path / "routed")]) == 0
    assert len(calls) == 90
    # a routed run keeps its HPWL list for the report: still once per net
    assert main(["route", *args, "--out", str(tmp_path / "report")]) == 0
    assert len(calls) == 180


@pytest.mark.parametrize("layers", [2, 8])
@pytest.mark.parametrize("layer_model", ["reserved-hv", "unreserved"])
def test_unrouted_dump_equals_a_fresh_run_state(tmp_path, layers, layer_model):
    assert main(["dump-graph", "--n", "20", "--k", "90", "--seed", "6", "--layers", str(layers),
                 "--layer-model", layer_model, "--out", str(tmp_path)]) == 0
    # the oracle: the dump as written from a freshly prepared run state
    region = RegionModel.build(generate_random_floorplan(20, 90, 6, seed=6))
    model = LayerModel.RESERVED_HV if layer_model == "reserved-hv" else LayerModel.UNRESERVED
    state = RoutingState.prepare(region, RunConfig.from_name("FCN", layers=layers, layer_model=model))
    assert (tmp_path / "junction_graph.csv").read_text() == junction_graph_csv(region.graph, state.usage, layers)


def test_route_first_dump_equals_the_routed_run(tmp_path):
    assert main(["dump-graph", "--n", "20", "--k", "90", "--seed", "6", "--layers", "4", "--config", "BCH",
                 "--route-first", "--out", str(tmp_path)]) == 0
    region = RegionModel.build(generate_random_floorplan(20, 90, 6, seed=6))
    state = route_all(RoutingState.prepare(region, RunConfig.from_name("BCH", layers=4))).state
    assert (tmp_path / "junction_graph.csv").read_text() == junction_graph_csv(region.graph, state.usage, 4)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("layers, trip, code", [
    ("8", False, 0), ("0", False, 1), ("8", True, 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, enabled, layers, trip, code):
    def tripped(*args, **kwargs):
        raise InternalError("tripped")

    if trip:
        monkeypatch.setattr(msroute.routegraph.RegionModel, "build", tripped)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["dump-graph", "--n", "6", "--k", "10", "--layers", layers, "--out", str(tmp_path)]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_usage_error_restores_the_collector_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["dump-graph", "--layers", "many"]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_command_runs_no_cyclic_collection(tmp_path):
    collections = []

    def seen(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(seen)
    try:
        assert main(["route", "--n", "40", "--k", "218", "--seed", "2", "--out", str(tmp_path)]) == 0
    finally:
        gc.callbacks.remove(seen)
    assert collections == []


@pytest.mark.parametrize("command, hashes", [(["route", "--config", "FCN"], True), (["dump-graph"], False)],
                         ids=["route", "dump-graph"])
def test_command_imports_no_numpy(tmp_path, command, hashes):
    # a fresh process: a CLI command needs the standard library only, and
    # OpenSSL (`_hashlib`) only once a report hashes the instance
    script = ("import sys\n"
              "from msroute.cli import main\n"
              f"code = main({command + ['--n', '12', '--k', '40', '--seed', '3', '--out', str(tmp_path)]!r})\n"
              "print(code, 'numpy' in sys.modules, '_hashlib' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert done.stdout.split()[-3:] == ["0", "False", str(hashes)]


def test_gen_requires_counts(capsys):
    assert main(["gen", "--n", "5"]) == 1
    assert "msroute gen: error: the following arguments are required: --k" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["route", "--config", "XYZ"], "argument --config: invalid choice: 'XYZ'"),
    (["dump-graph", "--layers", "abc"], "argument --layers: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
], ids=["unknown-config", "layers-not-a-number", "no-command"])
def test_usage_error_exits_one(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: msroute") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["msroute", "sweep"])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: msroute")
