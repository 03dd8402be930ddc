"""Workbench for linear exact repair of MDS array codes over small fields.

The package builds (n, n-r, l) MDS array codes over F_q from field
reduction of a normal rational curve, measures repair bandwidth and
repair I/O exactly, certifies the incidence-multiplicity lower bound by
brute force at desk scale, and replays repairs operationally so the
analytic counts can be reconciled against transcripts.
"""

__version__ = "0.1.0"

from .codes import (
    BoundsReport,
    CodeSkeleton,
    Realization,
    bounds_report,
    check_mds,
    realization_from_json,
    realization_to_json,
    realize,
)
from .errors import RepairToolError
from .gf import Field, FieldTower, build_tower
from .linalg import Matrix, gaussian_binomial, projective_point_count
from .nrc import (
    INF,
    Block,
    BlockPartition,
    NrcBundle,
    NrcParams,
    block_partition,
    build,
    norm_one_subgroup,
    repair_subspace,
    validate_params,
)
from .repair import (
    DualCover,
    IncidenceProfile,
    NodeMetrics,
    RepairScheme,
    bandwidth,
    bruteforce_column_hits,
    bruteforce_overlap,
    dual_cover,
    evaluate_scheme,
    hierarchy_check,
    incidence_profile,
    io_count,
    scheme_from_json,
    scheme_to_json,
)
from .simulate import CampaignReport, campaign

__all__ = [
    "__version__",
    "BoundsReport", "CodeSkeleton", "Realization", "bounds_report",
    "check_mds", "realization_from_json", "realization_to_json", "realize",
    "RepairToolError",
    "Field", "FieldTower", "build_tower",
    "Matrix", "gaussian_binomial", "projective_point_count",
    "INF", "Block", "BlockPartition", "NrcBundle", "NrcParams",
    "block_partition", "build", "norm_one_subgroup", "repair_subspace",
    "validate_params",
    "DualCover", "IncidenceProfile", "NodeMetrics", "RepairScheme",
    "bandwidth", "bruteforce_column_hits", "bruteforce_overlap",
    "dual_cover", "evaluate_scheme", "hierarchy_check", "incidence_profile",
    "io_count", "scheme_from_json", "scheme_to_json",
    "CampaignReport", "campaign",
]
