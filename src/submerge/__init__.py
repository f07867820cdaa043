"""Submodule-level merging of fine-tuned transformer checkpoints.

Decomposes a decoder-only transformer into submodule groups, measures how
linearly each group responds to parameter interpolation, solves per-group
merging weights in closed form from collected features, and produces merged
checkpoints alongside weight-average / task-arithmetic / DARE baselines.
"""

from .archive import (
    TensorArchive,
    archive_bytes,
    archive_digest,
    linear_combine,
    read_archive,
    task_vector,
    write_archive,
)
from .decompose import (
    DecompositionPlan,
    Granularity,
    SubmoduleGroup,
    head_slices,
    plan_decomposition,
)
from .errors import (
    BindError,
    CoeffError,
    CompatError,
    ConfigError,
    DataError,
    DegenerateError,
    FormatError,
    InputError,
    IoError,
    NumericError,
    ParamError,
    PlanError,
    SampleError,
    SubmergeError,
    TruncationError,
)
from .features import (
    DeltaStore,
    FeatureStore,
    apply_group,
    collect_base_features,
    compute_delta_outputs,
    group_parameters,
)
from .fixtures import Fixture, FixtureSpec, build_fixture, gen_fixture, read_dataset, write_dataset
from .linearity import (
    LinearityRecord,
    default_alpha_grid,
    interpolation_scores,
    merge_metrics,
    metric_sweep,
    non_linearity_score,
)
from .merge import (
    apply_merge_weights,
    merge_dare,
    merge_linear_solve,
    merge_task_arithmetic,
    merge_weight_average,
)
from .model import (
    BoundModel,
    ModelConfig,
    bind_weights,
    eval_cross_entropy,
    forward_pass,
    forward_taps,
)
from .solver import (
    GramTensor,
    GroupWeights,
    MergeWeights,
    assemble_system,
    compute_gram,
    solve_alpha,
    solve_plan,
)

__version__ = "0.1.0"

__all__ = [
    "TensorArchive",
    "archive_bytes",
    "archive_digest",
    "linear_combine",
    "read_archive",
    "task_vector",
    "write_archive",
    "ModelConfig",
    "BoundModel",
    "bind_weights",
    "forward_pass",
    "forward_taps",
    "eval_cross_entropy",
    "Granularity",
    "SubmoduleGroup",
    "DecompositionPlan",
    "plan_decomposition",
    "head_slices",
    "FeatureStore",
    "DeltaStore",
    "apply_group",
    "group_parameters",
    "collect_base_features",
    "compute_delta_outputs",
    "LinearityRecord",
    "interpolation_scores",
    "non_linearity_score",
    "merge_metrics",
    "default_alpha_grid",
    "metric_sweep",
    "GramTensor",
    "GroupWeights",
    "MergeWeights",
    "compute_gram",
    "assemble_system",
    "solve_alpha",
    "solve_plan",
    "merge_weight_average",
    "merge_task_arithmetic",
    "merge_dare",
    "apply_merge_weights",
    "merge_linear_solve",
    "FixtureSpec",
    "Fixture",
    "build_fixture",
    "gen_fixture",
    "write_dataset",
    "read_dataset",
    "SubmergeError",
    "FormatError",
    "TruncationError",
    "DataError",
    "CompatError",
    "CoeffError",
    "IoError",
    "BindError",
    "InputError",
    "PlanError",
    "SampleError",
    "DegenerateError",
    "NumericError",
    "ParamError",
    "ConfigError",
    "__version__",
]
