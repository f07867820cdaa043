"""Closed-form per-group merge weights from output-delta Gram statistics.

For each group the merged output delta is modeled as sum_t alpha_t * delta_t.
Minimizing the summed mean squared error against each model's own delta over
its own data is a quadratic in alpha, so the optimum solves A alpha = b where
both sides are contractions of a per-data-task Gram tensor B.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.linalg

from .decompose import DecompositionPlan
from .errors import CoeffError, DegenerateError, InputError, NumericError
from .features import DeltaStore

ENERGY_FLOOR = 1e-12
COND_LIMIT = 1e12
# Ridge added when the system is too ill-conditioned: RIDGE_REL * trace(A) / n.
RIDGE_REL = 1e-8


@dataclass
class GramTensor:
    """B[a, b, c] = mean over task-a samples of <delta_b(x), delta_c(x)>."""

    B: np.ndarray
    samples: tuple[int, ...]
    skipped: tuple[int, ...]


@dataclass
class GroupWeights:
    group_id: str
    alpha: tuple[float, ...]
    fallback: bool
    residual: float
    condition: float = 0.0
    ridge: float = 0.0
    zero_signal: bool = False
    note: str = ""


@dataclass
class MergeWeights:
    level: str
    normalized: bool
    groups: tuple[GroupWeights, ...]

    def group(self, group_id: str) -> GroupWeights:
        for weights in self.groups:
            if weights.group_id == group_id:
                return weights
        raise CoeffError(f"no solved weights for group {group_id!r}")

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "normalized": self.normalized,
            "groups": [
                {
                    "id": g.group_id,
                    "alpha": [float(a) for a in g.alpha],
                    "fallback": bool(g.fallback),
                    "residual": float(g.residual),
                }
                for g in self.groups
            ],
        }


def compute_gram(
    task_blocks: Iterable[np.ndarray], normalized: bool = True, group_id: str = ""
) -> GramTensor:
    """Gram tensor over data tasks; blocks are [n_models, rows, width], read
    from any iterable in data-task order.

    Normalized mode divides each sample's contribution by the mean delta
    energy across models and skips samples where that energy underflows.
    Each block's shape is checked as it arrives and the block is upcast to
    float64 only while its own contribution is computed; it is dropped before
    the next is read, so a stream holds one task's block at a time. A task
    with no samples left raises `DegenerateError` once every block has passed
    its shape check.
    """
    terms, n_models = [], None
    for block in task_blocks:
        if n_models is None:
            shape = np.shape(block)
            n_models = shape[0] if shape else 0
        terms.append(_block_term(block, normalized, n_models))
        # Not held while the stream computes the next block.
        del block
    return _finish_gram(terms, normalized, group_id)


def _block_term(block: np.ndarray, normalized: bool, n_models: int) -> tuple:
    """One data task's (Gram term, retained samples, skipped samples) from its
    [n_models, rows, width] block; `InputError` on any other shape."""
    shape = np.shape(block)
    if len(shape) != 3 or shape[0] != n_models:
        raise InputError(
            f"blocks must be [n_models x rows x width] with n_models={n_models}, got {shape}"
        )
    B_a, retained = _task_gram(block, normalized)
    return B_a, retained, shape[1] - retained


def _finish_gram(terms: list[tuple], normalized: bool, group_id: str) -> GramTensor:
    """The Gram tensor of one group's `_block_term`s in data-task order:
    `DegenerateError` if a task kept no sample, `NumericError` on a non-finite entry."""
    if not terms:
        raise InputError("need at least one data task block")
    B, samples, skipped = zip(*terms)
    if 0 in samples:
        reason = "no samples with non-zero delta energy" if normalized else "no samples"
        raise DegenerateError(f"group {group_id!r}: data task {samples.index(0)} has {reason}")
    B = np.stack(B)
    if not np.isfinite(B).all():
        raise NumericError(f"group {group_id!r}: non-finite Gram entries")
    return GramTensor(B, samples, skipped)


def _task_gram(block: np.ndarray, normalized: bool) -> tuple[np.ndarray | None, int]:
    """One data task's Gram term and its number of retained samples; the term
    is None when no sample is retained."""
    block = np.asarray(block, dtype=np.float64)
    outer = np.einsum("brw,crw->rbc", block, block)
    n_models = len(block)
    # The upcast is dropped before the normalization temporaries are made.
    del block
    if not normalized:
        return (outer.mean(axis=0) if len(outer) else None), len(outer)
    energy = np.einsum("rtt->r", outer) / n_models
    keep = energy >= ENERGY_FLOOR
    retained = int(keep.sum())
    if retained == 0:
        return None, 0
    return (outer[keep] / energy[keep, None, None]).mean(axis=0), retained


def assemble_system(gram: GramTensor) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations: A[j,k] = sum_t B[t,j,k], b[j] = sum_t B[t,j,t]."""
    A = gram.B.sum(axis=0)
    b = np.einsum("tjt->j", gram.B)
    return A, b


def solve_alpha(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve A alpha = b with ridge and zero-signal fallbacks.

    Returns (alpha, diagnostics) where diagnostics carries the condition
    estimate, any ridge used, the residual against the original system,
    fallback/zero-signal flags, and a note naming the fallback ("" if none).
    Zero signal is a trace below `ENERGY_FLOOR`; a ridged solve is the other fallback.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NumericError("normal equations contain non-finite entries")
    if not np.allclose(A, A.T, atol=1e-10 * (1 + np.abs(A).max())):
        raise InputError("system matrix must be symmetric")
    n = A.shape[0]
    trace = float(np.trace(A))
    zero_signal = trace < ENERGY_FLOOR
    ridge = 0.0
    if zero_signal:
        alpha, condition, note = np.full(n, 1.0 / n), float("inf"), "zero signal: uniform weights"
    else:
        condition = float(np.linalg.cond(A))
        alpha, note = None, ""
        if condition <= COND_LIMIT:
            with contextlib.suppress(scipy.linalg.LinAlgError):
                alpha = scipy.linalg.solve(A, b, assume_a="sym")
        if alpha is None or not np.isfinite(alpha).all():
            ridge = RIDGE_REL * trace / n
            reason = "condition above limit" if condition > COND_LIMIT else "direct solve failed"
            note = f"{reason}: solved with a ridge"
            alpha = scipy.linalg.solve(A + ridge * np.eye(n), b, assume_a="pos")
    return alpha, {
        "condition": condition,
        "ridge": ridge,
        "residual": float(np.linalg.norm(A @ alpha - b)),
        "fallback": zero_signal or ridge > 0,
        "zero_signal": zero_signal,
        "note": note,
    }


def solve_plan(
    plan: DecompositionPlan, deltas: DeltaStore, normalized: bool = True
) -> MergeWeights:
    """Solve one alpha vector per group; failures fall back to uniform.

    The Gram tensor is a sum over data tasks, so the solve is task-major: per
    task, each group's `deltas.block` is folded into that group's term before
    the next is read, then `deltas.release_task` drops the task, so its traced
    inputs and a layer's head contexts are held for one task. Each group's
    terms are then checked and solved as `compute_gram` would.
    """
    n = deltas.n_models
    terms = {group_id: [] for group_id in plan.group_ids()}
    for task in range(deltas.n_tasks):
        for group_id, group_terms in terms.items():
            group_terms.append(_block_term(deltas.block(group_id, task), normalized, n))
        deltas.release_task(task)
    results = []
    for group_id, group_terms in terms.items():
        try:
            gram = _finish_gram(group_terms, normalized, group_id)
            alpha, diag = solve_alpha(*assemble_system(gram))
        except (DegenerateError, NumericError) as exc:
            alpha = np.full(n, 1.0 / n)
            diag = dict(condition=np.inf, ridge=0.0, residual=0.0, fallback=True,
                        zero_signal=isinstance(exc, DegenerateError), note=str(exc))
        results.append(GroupWeights(group_id, tuple(float(a) for a in alpha), **diag))
    return MergeWeights(plan.granularity.value, normalized, tuple(results))
