"""Analysis toolkit for sectorized hexagonal cellular networks under mixed
delay constraints: interference topology, cluster/silencing geometry, exact
multiplexing-gain region bounds, zero-forcing certification, and
dependency-checked cooperation schedules.

``import hexmg`` loads nothing but this file.  Each name below is read from
its defining module on first use (PEP 562), so ``from hexmg import
inner_bound`` loads the numpy-free ``regions`` and ``densities``, and
``from hexmg import clusters`` loads ``clustering`` and numpy with it.
"""

from importlib import import_module

#: The names the package re-exports, by defining module.
_EXPORTS = {
    "lattice": (
        "HEX_DIRS", "NEIGHBOR_RULE", "Network", "build_network", "cell_distance",
        "interference_graph", "tx_neighbors",
    ),
    "clustering": (
        "FAST", "RX", "SILENT", "SLOW", "TX", "Cluster", "ClusterPlan", "assign_messages",
        "assignment_fractions", "cluster_link_count", "clusters", "count_links",
        "fast_pattern", "master_grid", "role_census", "role_codes", "silenced_sectors",
    ),
    "schemes": ("MODE_MIXED", "MODE_SLOW_ONLY", "RankDeficientError", "UncutLatticeError"),
    "regions": (
        "FAMILY_MIXED", "FAMILY_NO_COOP", "FAMILY_SLOW", "MGPoint", "PrelogRequirement",
        "Region", "SystemParams", "boundary_samples", "contains", "convex_hull",
        "inner_bound", "is_subset", "max_sum_mg", "outer_bound", "required_prelogs",
        "scheme_point", "sum_gain_cap",
    ),
    "precoding": (
        "NullingReport", "Precoder", "SystemTemplate", "TrialResult", "ZFSystem",
        "build_zf_system", "certification_plan", "run_trial", "run_trials",
        "sample_channels", "solve_precoder", "system_template", "verify_nulling",
    ),
    "densities": ("BLUE", "PINK", "RED", "WHITE", "cap_rule", "fraction_limits"),
    "partitions": (
        "Partition", "bound_arithmetic", "census_fractions", "partition_four", "partition_two",
    ),
    "schedules": (
        "SchedulePlan", "Step", "ValidationReport", "schedule_four_color",
        "schedule_two_color", "validate_schedule",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
