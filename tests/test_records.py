"""The per-instance record classes and the collector premise of the CLI.

`cli.main` pauses the cyclic garbage collector for a command.  That frees
nothing late only if the pipeline makes no reference cycles, which is
checked here; and the records are slotted, so none carries a `__dict__`.
"""

import gc
import types
from collections import Counter

import pytest

from msroute.adjacency import BagEdge, Orientation, Span
from msroute.floorplan import Block, Net, Pin, generate_random_floorplan, load_floorplan, save_floorplan
from msroute.metrics import summarize, write_report
from msroute.routegraph import PinAttachment, RegionModel, SegmentUsage, build_gsrg, junction_graph_csv
from msroute.router import PRESETS, NetResult, RoutePath, RoutingState, RunConfig, route_all
from msroute.staircase import BalanceMode, MsCut, Segment, segments_csv, tree_text


def _from_msroute(obj) -> bool:
    """Whether obj is an instance of an msroute class or an msroute function."""
    if isinstance(obj, types.FunctionType):
        return obj.__module__.startswith("msroute")
    return type(obj).__module__.startswith("msroute")


def _whole_pipeline(tmp_path) -> None:
    """Every stage and writer, over both balance modes and all six presets."""
    layers = 4
    paths = save_floorplan(generate_random_floorplan(30, 160, 6, seed=11), tmp_path, "inst")
    fp = load_floorplan(*paths)
    for balance in BalanceMode:
        region = RegionModel.build(fp, balance)
        for name in sorted(PRESETS):
            state = RoutingState.prepare(region, RunConfig.from_name(name, layers=layers))
            report = summarize(route_all(state))
            write_report(report, tmp_path / balance.value, name, "both")
            junction_graph_csv(region.graph, state.usage, layers)
        junction_graph_csv(region.graph, None, layers)
        tree_text(region.tree)
        segments_csv(region.graph.segments)
        for orientation in Orientation:
            region.tree.bags[orientation].as_dot()


def test_pipeline_leaves_no_msroute_object_to_the_cycle_collector(tmp_path):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _whole_pipeline(tmp_path)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        # the stdlib JSON encoder's closures form cycles of their own; those
        # hold no msroute object once the report is written
        leaked = [obj for obj in gc.garbage if _from_msroute(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not leaked, Counter(type(obj).__qualname__ for obj in leaked)


SLOTTED = [Span, BagEdge, Block, Pin, Net, SegmentUsage, PinAttachment,
           RoutePath, NetResult, MsCut, Segment]


@pytest.fixture(scope="module")
def instances():
    """One instance of each slotted class, as the pipeline makes it."""
    fp = generate_random_floorplan(12, 40, 4, seed=3)
    region = RegionModel.build(fp)
    state = RoutingState.prepare(region, RunConfig.from_name("FCN"))
    run = route_all(state)
    routed = next(r for r in run.results if r.paths)
    return {
        Span: region.tree.cuts[0].cut_edges[0].span,
        BagEdge: region.tree.cuts[0].cut_edges[0],
        Block: fp.blocks[0],
        Pin: fp.nets[0].pins[0],
        Net: fp.nets[0],
        SegmentUsage: state.usage[0],
        PinAttachment: build_gsrg(region.graph, fp.nets[0]).pins[0],
        RoutePath: routed.paths[0],
        NetResult: routed,
        MsCut: region.tree.cuts[0],
        Segment: region.graph.segments[0],
    }


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_record_class_is_slotted(cls, instances):
    obj = instances[cls]
    assert type(obj) is cls
    assert "__slots__" in vars(cls)
    assert not hasattr(obj, "__dict__")
