"""The package's public surface: the names it exports, and the measure
names in the order the CLI offers them as ``--measure`` choices."""

import proxdeg

PUBLIC = [
    "__version__",
    "ProxdegError",
    "ParameterError",
    "DuplicatePointError",
    "DisconnectedGraphError",
    "TrialError",
    "TWO_PI",
    "ROT_HALF_DIAG",
    "UNIT_SQUARE",
    "ROTATED_SQUARE",
    "RECT_UNION",
    "Point",
    "PointSet",
    "Rect",
    "Region",
    "ConeSpec",
    "cone_index",
    "contains",
    "dist",
    "sqdist",
    "in_gabriel_disk",
    "in_lune",
    "Graph",
    "DiGraph",
    "gabriel",
    "gabriel_naive",
    "rng_graph",
    "rng_naive",
    "yao",
    "unit_disk_graph",
    "intersect",
    "undirected_view",
    "PearlSpec",
    "StaircaseSpec",
    "pearl_region_index",
    "is_tiara",
    "make_tiara",
    "is_staircase",
    "make_staircase",
    "jewel_scale",
    "staircase_scale",
    "find_jewels",
    "count_jewels",
    "find_staircases",
    "count_staircases",
    "count_maxima",
    "count_minima",
    "MEASURES",
    "GraphKind",
    "ExperimentConfig",
    "TrialResult",
    "TrialSummary",
    "MeasureStats",
    "trial_generator",
    "sample_uniform",
    "run_trials",
    "max_degree",
    "max_out_degree",
    "max_edge_length",
    "degree_histogram",
    "stretch_factor",
    "stretch_details",
    "theoretical_k",
    "chernoff_tail",
    "harmonic",
]

MEASURE_ORDER = (
    "max_degree",
    "max_out_degree",
    "edge_count",
    "max_edge_length",
    "degree_histogram",
    "stretch",
    "jewel_count",
    "staircase_count",
)


def test_all_names_exactly_the_public_names():
    assert proxdeg.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in proxdeg.__all__:
        assert hasattr(proxdeg, name), name


def test_measures_keep_their_order():
    assert proxdeg.MEASURES == MEASURE_ORDER

