"""Early global routing over monotone staircase regions of a floorplan.

The pipeline: parse or generate a mosaic floorplan, derive its block
adjacency graph and T-junctions, bipartition it hierarchically into monotone
staircase regions (the MSC tree), turn the cut walls into capacity-carrying
segments, and route every net by congestion-aware shortest paths on the
junction graph across a configurable stack of metal layers.
"""

from .adjacency import Orientation, all_junctions, build_bag, enumerate_tjunctions
from .errors import InternalError, InvalidNetError, MsRouteError, ParseError, ValidationError
from .floorplan import (
    Block,
    Floorplan,
    compute_hpwl,
    generate_random_floorplan,
    load_floorplan,
    parse_floorplan,
    save_floorplan,
    serialize_floorplan,
    validate_floorplan,
)
from .metrics import snapshot, summarize, write_report
from .routegraph import (
    UNUSABLE,
    CapacityProfile,
    LayerModel,
    ProfileKind,
    RegionModel,
    build_gsrg,
    capacity_at,
    junction_graph_csv,
)
from .router import PRESETS, RoutingState, RunConfig, decompose_net, order_nets, route_all, route_floorplan
from .staircase import (
    BalanceMode,
    assign_capacities,
    build_msc_tree,
    extract_segments,
    segments_csv,
    tree_text,
)

__version__ = "0.1.0"
