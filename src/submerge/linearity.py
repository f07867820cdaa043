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

Both merge metrics of an alpha are means over every data task's rows, taken
in one pass over the group's per-task f32 delta blocks (`merge_metrics`),
the blocks the solver reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .archive import TaskVector, TensorArchive, require_compatible
from .decompose import SubmoduleGroup
from .errors import CoeffError, DegenerateError, InputError, ParamError
from .errors import require_integer, require_real
from .features import DeltaStore, FeatureStore, group_parameters

NORM_FLOOR = 1e-12
# The most interpolation steps `non_linearity_score` takes: `interpolation_scores`
# holds a float64 [steps, steps, rows] distance tensor, 26 MB at 101 steps x 320 rows.
MAX_N_POINTS = 100
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


def require_n_points(n_points) -> int:
    """`n_points` as a Python int if it is an integer in 2..`MAX_N_POINTS`, else `InputError`."""
    return require_integer("n_points", n_points, 2, InputError, MAX_N_POINTS)


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
    require_n_points(n_points)
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
    task_blocks: Sequence[np.ndarray],
    alpha: Sequence[float],
    merged_deltas: Sequence[np.ndarray],
) -> dict[str, tuple[float, dict]]:
    """Both merge metrics of one alpha, keyed by `METRICS`, over every data task's rows.

    Per data task, one [n_models, rows, width] block of `task_blocks` and the
    merged group's [rows, width] delta: the block is upcast as it is read, the
    weighted sum is one BLAS product over its models, and the summed and merged
    squared norms and their dot products are one row-wise einsum each. Every
    task's per-row values are joined before the masks and means.

    The cosine averages over rows where the merged delta and the weighted sum
    both have norm >= NORM_FLOOR; the projection over rows where the weighted
    sum's squared norm is >= NORM_FLOOR**2. Aux holds each metric's skipped row
    count and the projection's mean ratio.
    """
    if len(task_blocks) == 0 or len(task_blocks) != len(merged_deltas):
        raise InputError("need at least one task block, and one merged delta per block")
    coeffs = np.asarray(alpha, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InputError("need at least one model, and alpha length must match their number")
    per_row = []
    for block, merged in zip(task_blocks, merged_deltas):
        # A block of another shape would broadcast into the weighted sum.
        shape = np.shape(merged)
        if len(shape) != 2 or np.shape(block) != (coeffs.size, *shape):
            raise InputError(f"block shape {np.shape(block)} != (alpha length, *{shape})")
        target = np.tensordot(coeffs, np.asarray(block, dtype=np.float64), 1)
        # Upcast after the product, so its float64 block is freed first.
        merged = np.asarray(merged, dtype=np.float64)
        pairs = ((target, target), (merged, merged), (merged, target))
        per_row.append([np.einsum("rw,rw->r", a, b) for a, b in pairs])
    target_sq, merged_sq, dots = (np.concatenate(values) for values in zip(*per_row))
    merged_norm, target_norm = np.sqrt(merged_sq), np.sqrt(target_sq)
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
) -> list[np.ndarray]:
    """Per data task, the f32 [rows, width] output delta of the group merged with `alpha`
    on the traced base. `taus` holds each task vector's tensors, the group's owned ones at least."""
    weights = group_parameters(group, store.weights, taus=taus, coeffs=alpha)
    return [store.rows(group, t, weights) - store.base_rows(group, t) for t in range(store.n_tasks)]


def _checked_grid(grid: Sequence[Sequence[float]], n_models: int) -> list[list]:
    """The grid's alphas as lists, each checked to hold `n_models` finite reals."""
    checked = []
    for alpha in grid:
        try:
            alpha = list(alpha)
        except TypeError:
            raise CoeffError(f"alpha {alpha!r} is not a sequence of coefficients") from None
        if len(alpha) != n_models:
            raise CoeffError(f"{len(alpha)} coefficients for {n_models} task vectors")
        for value in alpha:
            require_real("alpha coefficient", value, ParamError)
        checked.append(alpha)
    if not checked:
        raise InputError("alpha grid must be non-empty")
    return checked


def metric_sweep(
    store: FeatureStore,
    deltas: DeltaStore,
    base: TensorArchive,
    taus: Sequence[TaskVector],
    group: SubmoduleGroup,
    grid: Sequence[Sequence[float]] | None = None,
) -> list[LinearityRecord]:
    """Cosine and projection metrics for every alpha in the grid, plus means. `base` must
    be the model `store` traced, `taus` must match its shapes and `deltas` must read `store`.
    Every alpha is checked before the group's per-task f32 delta blocks are read."""
    store.require_traced_base(base)
    for t, tau in enumerate(taus):
        require_compatible(tau, base, f"metric_sweep task vector {t}")
    if deltas.features is not store:
        raise InputError("the deltas were not computed on this feature store")
    if len(taus) != deltas.n_models:
        raise InputError(f"{len(taus)} task vectors for {deltas.n_models} fine-tuned models")
    grid = _checked_grid(default_alpha_grid(len(taus)) if grid is None else grid, len(taus))
    task_blocks = deltas.grouped(group.id)
    owned = [_owned_tensors(group, tau) for tau in taus]
    records: list[LinearityRecord] = []
    for alpha in grid:
        merged = merged_group_deltas(store, owned, group, alpha)
        try:
            results = merge_metrics(task_blocks, alpha, merged)
        except DegenerateError as exc:
            failed = (float("nan"), {"degenerate": True, "error": str(exc)})
            results = dict.fromkeys(METRICS, failed)
        # Freed before the next alpha's merged deltas are built.
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
