"""Checkpoint merging engines.

Weight average and task arithmetic apply one coefficient per model to whole
task vectors. DARE additionally drops task-vector entries at random and
rescales the survivors. The linear-solve engine decomposes the model into
submodule groups, solves each group's coefficients in closed form from
output deltas, and recombines parameters slice by slice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .archive import TensorArchive, combine, linear_combine, require_compatible, task_vector
from .decompose import DecompositionPlan, Granularity, plan_decomposition
from .errors import CoeffError, CompatError, ConfigError, InputError, ParamError
from .errors import require_integer, require_real
from .features import collect_base_features, compute_delta_outputs
from .model import ModelConfig, bind_weights
from .solver import MergeWeights, solve_plan


def _require_models(fine_tuned: Sequence[TensorArchive]) -> None:
    if not fine_tuned:
        raise InputError("need at least one fine-tuned checkpoint")


def config_for(archive: TensorArchive) -> ModelConfig:
    """The model config embedded in the archive's meta."""
    try:
        return ModelConfig.from_json(archive.meta["model_config"])
    except KeyError:
        raise ConfigError("archive meta carries no model_config") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"archive meta model_config is malformed: {exc}") from exc


def merge_weight_average(
    base: TensorArchive, fine_tuned: Sequence[TensorArchive]
) -> TensorArchive:
    """Elementwise mean of the fine-tuned checkpoints."""
    _require_models(fine_tuned)
    for t, ft in enumerate(fine_tuned):
        require_compatible(ft, base, f"weight average model {t}")
    tensors = {
        name: np.mean([ft.tensors[name].astype(np.float64) for ft in fine_tuned], axis=0)
        for name in base.tensors
    }
    return TensorArchive(tensors=tensors, meta=base.meta)


def merge_task_arithmetic(
    base: TensorArchive, fine_tuned: Sequence[TensorArchive], alpha: float
) -> TensorArchive:
    """base + alpha * sum of task vectors, one equal weight for all models."""
    require_real("alpha", alpha, ParamError)
    _require_models(fine_tuned)
    taus = [task_vector(ft, base) for ft in fine_tuned]
    return linear_combine(base, taus, [alpha] * len(taus))


def merge_dare(
    base: TensorArchive,
    fine_tuned: Sequence[TensorArchive],
    alpha: float,
    drop_p: float,
    seed: int,
) -> TensorArchive:
    """Task arithmetic over randomly dropped, rescaled task vectors.

    Each task vector gets its own random stream [seed, task]. Entries are
    kept with probability 1 - drop_p and divided by 1 - drop_p, which keeps
    the expected task vector unchanged. At drop_p = 0 every entry is kept and
    divided by 1, so the result is task arithmetic's, bit for bit.
    """
    require_real("alpha", alpha, ParamError)
    require_real("drop_p", drop_p, ParamError)
    if not 0.0 <= drop_p < 1.0:
        raise ParamError(f"drop_p must lie in [0, 1), got {drop_p}")
    require_integer("seed", seed, 0, ParamError)
    _require_models(fine_tuned)
    taus = []
    for task, ft in enumerate(fine_tuned):
        tau = task_vector(ft, base)
        rng = np.random.default_rng([seed, task])
        tensors = {}
        for name, arr in tau.tensors.items():
            keep = rng.random(arr.shape) >= drop_p
            tensors[name] = arr.astype(np.float64) * keep / (1.0 - drop_p)
        taus.append(TensorArchive(tensors=tensors, meta=tau.meta))
    return linear_combine(base, taus, [alpha] * len(taus))


def apply_merge_weights(
    base: TensorArchive,
    fine_tuned: Sequence[TensorArchive],
    plan: DecompositionPlan,
    weights: MergeWeights,
) -> TensorArchive:
    """Recombine parameters group by group with each group's coefficients.

    Every parameter slice is owned by exactly one group, so the merged
    tensor is assembled by writing base + sum_t alpha_t * tau_t into each
    owned slice. Non-owned reads (a head's shared norm) are never written.
    """
    _require_models(fine_tuned)
    if weights.level != plan.granularity.value:
        raise CoeffError(
            f"weights were solved at level {weights.level!r}, plan is "
            f"{plan.granularity.value!r}"
        )
    expected = plan.config.param_shapes()
    for archive in (base, *fine_tuned):
        if archive.shapes() != expected:
            raise CompatError("checkpoint does not match the plan's model config")
    merged = {name: arr.astype(np.float64) for name, arr in base.tensors.items()}
    # As in `linear_combine`: the archive rejects an overflowing sum by name.
    with np.errstate(over="ignore", invalid="ignore"):
        for group in plan.groups:
            alpha = weights.group(group.id).alpha
            if len(alpha) != len(fine_tuned):
                raise CoeffError(
                    f"group {group.id!r} has {len(alpha)} coefficients for "
                    f"{len(fine_tuned)} models"
                )
            for name, idx in group.params.items():
                owned = merged[name][idx]
                terms = [ft.tensors[name][idx] - owned for ft in fine_tuned]
                merged[name][idx] = combine(owned, terms, alpha)
    return TensorArchive(tensors=merged, meta=base.meta)


def merge_linear_solve(
    base: TensorArchive,
    fine_tuned: Sequence[TensorArchive],
    level: Granularity | str,
    datasets: Sequence[Sequence[Sequence[int]]],
    samples_per_task: int = 30,
    seed: int = 0,
    normalized: bool = True,
) -> tuple[TensorArchive, MergeWeights]:
    """Solve per-group coefficients from output deltas, then recombine.

    Datasets are per-task token sequences; dataset t drives the objective
    term that targets model t, so counts must match.
    """
    _require_models(fine_tuned)
    if len(datasets) != len(fine_tuned):
        raise InputError(
            f"{len(fine_tuned)} models need {len(fine_tuned)} datasets, "
            f"got {len(datasets)}"
        )
    config = config_for(base)
    granularity = level if isinstance(level, Granularity) else Granularity.parse(level)
    plan = plan_decomposition(config, granularity)
    model = bind_weights(base, config)
    store = collect_base_features(model, datasets, plan, samples_per_task, seed=seed)
    deltas = compute_delta_outputs(store, base, fine_tuned, plan)
    weights = solve_plan(plan, deltas, normalized=normalized)
    # The traced model, its features and the held deltas are not read again.
    del model, store, deltas
    merged = apply_merge_weights(base, fine_tuned, plan, weights)
    return merged, weights
