"""Linearity diagnostics for submodule groups.

Three measurements, all over token-position samples:

- interpolation score: walk parameters from the base to base+tau in N equal
  steps; an exactly linear group moves its outputs along a straight line, so
  pairwise output distances are proportional to |i-j|/N. The score is the
  summed squared deviation of the distance ratios from that line.
- merge cosine: cosine between the merged group's output delta and the
  alpha-weighted sum of per-model output deltas.
- projection distance: |1 - E[projection ratio]| of the merged delta onto
  the weighted delta sum; zero when combining parameters combines outputs.

Both merge metrics of an alpha come from one weighted sum (`merge_metrics`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .archive import TaskVector, TensorArchive, require_compatible
from .decompose import SubmoduleGroup
from .errors import DegenerateError, InputError
from .features import DeltaStore, FeatureStore, group_parameters, is_integer

NORM_FLOOR = 1e-12
METRICS = ("cosine_merge", "projection_distance")


@dataclass
class LinearityRecord:
    group_id: str
    metric: str
    value: float
    aux: dict = field(default_factory=dict)


def interpolation_scores(
    outputs: Sequence[np.ndarray],
) -> tuple[np.ndarray, int, np.ndarray]:
    """Per-sample deviation scores from the straight-line distance profile.

    `outputs` holds N+1 matrices [rows x width], one per interpolation step.
    Returns (per-sample scores, skipped sample count, mean ratio matrix).
    Samples whose endpoints coincide (no output movement) are skipped.
    """
    if len(outputs) < 3:
        raise InputError("need at least three interpolation points (N >= 2)")
    shape = np.shape(outputs[0])
    if len(shape) != 2 or any(np.shape(o) != shape for o in outputs):
        raise InputError(f"interpolation outputs must share one [rows, width] shape, got {shape}")
    steps = len(outputs)
    # One pair at a time, each difference taken in float64 from the steps as
    # given: a [steps, steps, rows, width] difference tensor, or a float64 copy
    # of every step, would set the analysis' peak memory. b - a is the exact
    # negation of a - b.
    distances = np.zeros((steps, steps, shape[0]))
    for i, j in itertools.combinations(range(steps), 2):
        diff = np.subtract(outputs[i], outputs[j], dtype=np.float64)
        distances[i, j] = distances[j, i] = np.linalg.norm(diff, axis=-1)
    endpoint = distances[0, -1]
    keep = endpoint >= NORM_FLOOR
    skipped = int(keep.size - keep.sum())
    if not keep.any():
        raise DegenerateError("all samples have coinciding interpolation endpoints")
    ratios = distances[:, :, keep] / endpoint[keep]
    grid = np.arange(steps, dtype=np.float64)
    target = np.abs(grid[:, None] - grid[None, :]) / (steps - 1)
    scores = ((ratios - target[:, :, None]) ** 2).sum(axis=(0, 1))
    return scores, skipped, ratios.mean(axis=2)


def non_linearity_score(
    store: FeatureStore,
    base: TensorArchive,
    tau: TaskVector,
    group: SubmoduleGroup,
    task: int = 0,
    n_points: int = 10,
) -> tuple[float, dict]:
    """Mean interpolation score for one group on one task's stored inputs, evaluated
    at base + (k / n_points) * tau for k = 0..n_points; no traced rows are read.
    The k = 0 step is `store.base_rows`, the group evaluated under the traced
    weights. `base` must be the model `store` traced, and `tau` must match its shapes."""
    store.require_traced_base(base)
    require_compatible(tau, base, "non_linearity_score task vector")
    if not (is_integer(n_points) and n_points >= 2):
        raise InputError(f"n_points must be >= 2 and an integer, got {n_points!r}")
    coeffs = [k / n_points for k in range(1, n_points + 1)]
    owned = _owned_tensors(group, tau)
    outputs = [store.base_rows(group, task)] + [
        store.rows(group, task, group_parameters(group, store.weights, taus=[owned], coeffs=[c]))
        for c in coeffs
    ]
    scores, skipped, ratio_matrix = interpolation_scores(outputs)
    aux = {
        "n": n_points,
        "samples": int(scores.size),
        "skipped": skipped,
        "ratio_matrix": ratio_matrix,
    }
    return float(scores.mean()), aux


def merge_metrics(
    task_deltas: Sequence[np.ndarray],
    alpha: Sequence[float],
    merged_deltas: np.ndarray,
) -> dict[str, tuple[float, dict]]:
    """Both merge metrics of one alpha, keyed by `METRICS`, from one weighted sum.

    One pass: the weighted sum is one BLAS product over the stacked task
    deltas, and the merged and summed squared norms and their dot products
    are one row-wise einsum each; the norms are their square roots.

    The cosine averages over rows where the merged delta and the weighted sum
    both have norm >= NORM_FLOOR; the projection over rows where the weighted
    sum's squared norm is >= NORM_FLOOR**2. Aux holds each metric's skipped row
    count and the projection's mean ratio.
    """
    if len(task_deltas) == 0 or len(task_deltas) != len(alpha):
        raise InputError("need at least one task delta, and alpha length must match their number")
    merged = np.asarray(merged_deltas, dtype=np.float64)
    # A task delta of another shape would broadcast into the weighted sum.
    if merged.ndim != 2 or any(np.shape(delta) != merged.shape for delta in task_deltas):
        raise InputError(f"deltas must share one [rows, width] shape, merged is {merged.shape}")
    deltas = np.asarray(task_deltas, dtype=np.float64)
    target = np.tensordot(np.asarray(alpha, dtype=np.float64), deltas, 1)
    target_sq = np.einsum("rw,rw->r", target, target)
    merged_norm = np.sqrt(np.einsum("rw,rw->r", merged, merged))
    target_norm = np.sqrt(target_sq)
    dots = np.einsum("rw,rw->r", merged, target)
    cos_keep = (merged_norm >= NORM_FLOOR) & (target_norm >= NORM_FLOOR)
    proj_keep = target_sq >= NORM_FLOOR**2
    if not cos_keep.any():
        raise DegenerateError("every sample has a zero-norm delta")
    if not proj_keep.any():
        raise DegenerateError("weighted delta sum is zero on every sample")
    cosines = dots[cos_keep] / (merged_norm[cos_keep] * target_norm[cos_keep])
    mean_ratio = float((dots[proj_keep] / target_sq[proj_keep]).mean())
    return {
        "cosine_merge": (float(cosines.mean()), {"skipped": int(cos_keep.size - cos_keep.sum())}),
        "projection_distance": (
            abs(1.0 - mean_ratio),
            {"skipped": int(proj_keep.size - proj_keep.sum()), "mean_ratio": mean_ratio},
        ),
    }


def default_alpha_grid(n_models: int) -> list[list[float]]:
    """Per-model coefficient grids used by the sweep reports."""
    if n_models <= 2:
        values = [0.2, 0.4, 0.6, 0.8, 1.0]
    else:
        values = [0.3, 0.5, 0.7]
    return [list(combo) for combo in itertools.product(values, repeat=n_models)]


def _owned_tensors(group: SubmoduleGroup, tau: TaskVector) -> dict[str, np.ndarray]:
    """The whole tensors of `tau` that `group` owns, each read (subtracted) once, so
    that every coefficient set of one call reuses them."""
    return {name: tau.tensors[name] for name in group.params}


def merged_group_deltas(
    store: FeatureStore,
    taus: Sequence[Mapping[str, np.ndarray]],
    group: SubmoduleGroup,
    alpha: Sequence[float],
) -> np.ndarray:
    """Float64 output delta of the group merged with `alpha` on the traced base, rows of
    all tasks. `taus` holds each task vector's tensors, the group's owned ones at least."""
    weights = group_parameters(group, store.weights, taus=taus, coeffs=alpha)
    rows = [
        store.rows(group, task, weights) - store.base_rows(group, task)
        for task in range(store.n_tasks)
    ]
    return np.concatenate(rows, dtype=np.float64)


def metric_sweep(
    store: FeatureStore,
    deltas: DeltaStore,
    base: TensorArchive,
    taus: Sequence[TaskVector],
    group: SubmoduleGroup,
    grid: Sequence[Sequence[float]] | None = None,
) -> list[LinearityRecord]:
    """Cosine and projection metrics for every alpha in the grid, plus means. `base` must
    be the model `store` traced, `taus` must match its shapes and `deltas` must read `store`."""
    store.require_traced_base(base)
    for t, tau in enumerate(taus):
        require_compatible(tau, base, f"metric_sweep task vector {t}")
    if deltas.features is not store:
        raise InputError("the deltas were not computed on this feature store")
    if grid is None:
        grid = default_alpha_grid(len(taus))
    if not grid:
        raise InputError("alpha grid must be non-empty")
    task_deltas = deltas.pooled(group.id)
    owned = [_owned_tensors(group, tau) for tau in taus]
    records: list[LinearityRecord] = []
    for alpha in grid:
        merged = merged_group_deltas(store, owned, group, alpha)
        try:
            results = merge_metrics(task_deltas, alpha, merged)
        except DegenerateError as exc:
            failed = (float("nan"), {"degenerate": True, "error": str(exc)})
            results = dict.fromkeys(METRICS, failed)
        # Freed before the next alpha's merged delta is built.
        del merged
        for metric in METRICS:
            value, aux = results[metric]
            records.append(LinearityRecord(group.id, metric, value, {"alpha": list(alpha), **aux}))
    for metric in METRICS:
        values = [r.value for r in records if r.metric == metric and np.isfinite(r.value)]
        aux = {"configs": len(grid), "valid": len(values)}
        if not values:
            aux["degenerate"] = True
        mean = float(np.mean(values)) if values else float("nan")
        records.append(LinearityRecord(group.id, f"{metric}_grid_mean", mean, aux))
    return records
