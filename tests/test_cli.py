"""Command line interface: subcommands, artifacts, exit codes."""

import csv
import json

import pytest

import msroute.routegraph
from msroute.cli import main
from msroute.floorplan import generate_random_floorplan, load_floorplan, validate_floorplan
from msroute.metrics import summarize
from msroute.router import PRESETS, RunConfig, route_floorplan


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


def _route_files(tmp_path, **texts):
    files = {**_TWO_BLOCKS, **texts}
    args = ["route"]
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


@pytest.mark.parametrize("configs", [",", " , ", ""])
def test_sweep_configs_naming_nothing_exits_one_and_writes_nothing(tmp_path, capsys, configs):
    out = tmp_path / "out"
    code = main(["sweep", "--n", "6", "--k", "10", "--configs", configs, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --configs")
    assert not out.exists()


@pytest.mark.parametrize("command", ["route", "sweep", "dump-graph"])
@pytest.mark.parametrize("layers", ["0", "-2"])
def test_fewer_than_one_layer_exits_one(tmp_path, capsys, command, layers):
    out = tmp_path / "out"
    code = main([command, "--n", "6", "--k", "10", "--layers", layers, "--out", str(out)])
    assert code == 1
    assert f"got {layers}" in capsys.readouterr().err
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


def test_gen_requires_counts():
    with pytest.raises(SystemExit):
        main(["gen", "--n", "5"])
