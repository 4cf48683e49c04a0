"""Analysis toolkit for sectorized hexagonal cellular networks under mixed
delay constraints: interference topology, cluster/silencing geometry, exact
multiplexing-gain region bounds, zero-forcing certification, and
dependency-checked cooperation schedules."""

from .lattice import (
    HEX_DIRS,
    NEIGHBOR_RULE,
    Network,
    build_network,
    cell_distance,
    interference_graph,
    tx_neighbors,
)
from .clustering import (
    FAST,
    MODE_MIXED,
    MODE_SLOW_ONLY,
    RX,
    SILENT,
    SLOW,
    TX,
    Cluster,
    ClusterPlan,
    UncutLatticeError,
    assign_messages,
    assignment_fractions,
    cluster_link_count,
    clusters,
    count_links,
    fast_pattern,
    master_grid,
    role_census,
    role_codes,
    silenced_sectors,
)
from .regions import (
    FAMILY_MIXED,
    FAMILY_NO_COOP,
    FAMILY_SLOW,
    MGPoint,
    PrelogRequirement,
    Region,
    SystemParams,
    boundary_samples,
    contains,
    convex_hull,
    inner_bound,
    is_subset,
    max_sum_mg,
    outer_bound,
    required_prelogs,
    scheme_point,
    sum_gain_cap,
)
from .precoding import (
    ChannelRealization,
    NullingReport,
    Precoder,
    RankDeficientError,
    SystemTemplate,
    TrialResult,
    ZFSystem,
    build_zf_system,
    certification_plan,
    run_trial,
    run_trials,
    sample_channels,
    solve_precoder,
    system_template,
    verify_nulling,
)
from .partitions import (
    BLUE,
    PINK,
    RED,
    WHITE,
    Partition,
    bound_arithmetic,
    cap_rule,
    census_fractions,
    fraction_limits,
    partition_four,
    partition_two,
)
from .schedules import (
    SchedulePlan,
    Step,
    ValidationReport,
    schedule_four_color,
    schedule_two_color,
    validate_schedule,
)

__version__ = "0.1.0"
