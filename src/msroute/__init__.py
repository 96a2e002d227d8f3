"""Early global routing over monotone staircase regions of a floorplan.

The pipeline: parse or generate a mosaic floorplan, derive its block
adjacency graph and T-junctions, bipartition it hierarchically into monotone
staircase regions (the MSC tree), turn the cut walls into capacity-carrying
segments, and route every net by congestion-aware shortest paths on the
junction graph across a configurable stack of metal layers.
"""

from .adjacency import (
    Axis,
    Bag,
    BagEdge,
    Orientation,
    Relation,
    Span,
    TJunction,
    all_junctions,
    build_bag,
    corner_junctions,
    enumerate_tjunctions,
    topological_order,
)
from .errors import (
    GeometryError,
    InternalError,
    InvalidNetError,
    MetricError,
    MsRouteError,
    ParseError,
    PinHostError,
    ValidationError,
)
from .floorplan import (
    Block,
    Floorplan,
    Net,
    Pin,
    ValidationReport,
    compute_hpwl,
    generate_random_floorplan,
    instance_hash,
    load_floorplan,
    parse_blocks,
    parse_floorplan,
    parse_nets,
    parse_pl,
    save_floorplan,
    serialize_floorplan,
    validate_floorplan,
)
from .metrics import CongestionSnapshot, RouteReport, ace, snapshot, summarize, wace4, write_report
from .routegraph import (
    UNUSABLE,
    CapacityProfile,
    Gsrg,
    JunctionGraph,
    LayerModel,
    ProfileKind,
    advance_layer,
    build_gsrg,
    build_junction_graph,
    capacity_at,
    charge,
    edge_weight,
    effective_layer,
    init_layer_state,
)
from .router import (
    PRESETS,
    NetResult,
    RoutePath,
    RouteRun,
    RoutingState,
    RunConfig,
    SearchDir,
    Smst,
    count_vias,
    decompose_net,
    dijkstra_ssp,
    identify_source,
    identify_steiner_points,
    order_nets,
    route_all,
    route_floorplan,
    route_net,
)
from .staircase import (
    BalanceMode,
    MsCut,
    MscNode,
    MscTree,
    Segment,
    assign_capacities,
    bipartition,
    build_msc_tree,
    extract_segments,
    is_monotone_chain,
)

__version__ = "0.1.0"
