"""Linearity metrics: interpolation score, merge cosine, projection distance."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from submerge import (
    CoeffError, CompatError, DegenerateError, InputError, ParamError, PlanError, TensorArchive,
    task_vector,
)
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import DeltaStore, collect_base_features, compute_delta_outputs
from submerge.fixtures import FixtureSpec, build_fixture
from submerge.linearity import (
    MAX_N_POINTS,
    METRICS,
    NORM_FLOOR,
    default_alpha_grid,
    interpolation_scores,
    merge_metrics,
    merged_group_deltas,
    metric_sweep,
    non_linearity_score,
    require_n_points,
)
from submerge.model import ModelConfig, bind_weights
from submerge.solver import solve_plan

from conftest import bad_scalars, random_checkpoint
from test_features import perturbed


@pytest.fixture(scope="module")
def pipeline(tiny_config, tiny_checkpoint):
    rng = np.random.default_rng(10)
    datasets = [
        [rng.integers(0, 11, size=6).tolist() for _ in range(4)],
        [rng.integers(0, 11, size=6).tolist() for _ in range(4)],
    ]
    fine_tuned = [perturbed(tiny_checkpoint, seed=s, scale=0.1) for s in (21, 22)]
    model = bind_weights(tiny_checkpoint, tiny_config)
    plan = plan_decomposition(tiny_config, Granularity.LAYER)
    store = collect_base_features(model, datasets, plan, sample_n=3, seed=0)
    taus = [task_vector(ft, tiny_checkpoint) for ft in fine_tuned]
    deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
    return plan, store, taus, deltas


class TestInterpolationScore:
    def test_quadratic_toy_hand_value(self):
        # f(theta) = theta^2 interpolated from 0 to 1 in two steps: outputs
        # 0, 1/4, 1. Off-diagonal deviations are (1/4 - 1/2)^2 four times.
        outputs = [np.array([[(k / 2) ** 2]]) for k in range(3)]
        scores, skipped, _ = interpolation_scores(outputs)
        assert skipped == 0
        assert scores.shape == (1,)
        assert scores[0] == pytest.approx(0.25, abs=1e-12)

    def test_exactly_linear_outputs_score_zero(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=(5, 3))
        outputs = [k / 4 * direction for k in range(5)]
        scores, skipped, ratios = interpolation_scores(outputs)
        assert skipped == 0
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)
        np.testing.assert_allclose(ratios[0, -1], 1.0, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        outputs = [rng.normal(size=(4, 6)) for _ in range(4)]
        base, _, _ = interpolation_scores(outputs)
        scaled, _, _ = interpolation_scores([7.5 * o for o in outputs])
        np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_degenerate_rows_skipped(self):
        moving = np.array([[1.0, 0.0], [0.0, 0.0]])
        outputs = [k * moving for k in range(3)]  # row 1 never moves
        scores, skipped, _ = interpolation_scores(outputs)
        assert skipped == 1
        assert scores.shape == (1,)

    def test_peak_holds_no_float64_stack(self):
        # Each pair of float32 steps is upcast as it is differenced, so the peak
        # stays below one [steps, rows, width] float64 stack, and the distances
        # are those of the upcast steps.
        rng = np.random.default_rng(1)
        outputs = [rng.normal(size=(500, 64)).astype(np.float32) for _ in range(11)]
        interpolation_scores(outputs)
        tracemalloc.start()
        try:
            scores, skipped, ratios = interpolation_scores(outputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 500 * 64 * 8
        upcast = interpolation_scores([o.astype(np.float64) for o in outputs])
        assert np.array_equal(scores, upcast[0])
        assert skipped == upcast[1]
        assert np.array_equal(ratios, upcast[2])

    @pytest.mark.parametrize(
        "shapes", [[(2, 2), (2, 2), (1, 2)], [(2,), (2,), (2,)]], ids=["mixed", "one_dim"]
    )
    def test_steps_of_another_shape_rejected(self, shapes):
        with pytest.raises(InputError, match="one \\[rows, width\\] shape"):
            interpolation_scores([np.ones(shape) for shape in shapes])

    def test_two_points_rejected(self):
        with pytest.raises(InputError, match="at least three interpolation points"):
            interpolation_scores([np.zeros((2, 2)), np.ones((2, 2))])

    def test_all_degenerate_raises(self):
        outputs = [np.zeros((2, 2)) for _ in range(3)]
        with pytest.raises(DegenerateError):
            interpolation_scores(outputs)

    def test_pairwise_distances_match_broadcast_formula(self):
        rng = np.random.default_rng(7)
        outputs = [rng.normal(size=(6, 9)) for _ in range(11)]
        outputs[-1][2] = outputs[0][2]  # sample 2's endpoints coincide
        stacked = np.stack(outputs)
        distances = np.linalg.norm(stacked[:, None] - stacked[None, :], axis=-1)
        keep = distances[0, -1] >= 1e-12
        ratios = distances[:, :, keep] / distances[0, -1][keep]
        grid = np.arange(11, dtype=np.float64)
        target = np.abs(grid[:, None] - grid[None, :]) / 10
        expected = ((ratios - target[:, :, None]) ** 2).sum(axis=(0, 1))
        scores, skipped, ratio_matrix = interpolation_scores(outputs)
        assert skipped == 1
        assert np.array_equal(scores, expected)
        assert np.array_equal(ratio_matrix, ratios.mean(axis=2))

    def test_embed_group_is_exactly_linear(self, tiny_config, tiny_checkpoint, pipeline):
        plan, store, taus, _ = pipeline
        value, aux = non_linearity_score(
            store, tiny_checkpoint, taus[0], plan.group("embed"), task=0, n_points=10
        )
        assert value <= 1e-10
        assert aux["samples"] > 0

    def test_transformer_layer_scores_positive(self, tiny_config, tiny_checkpoint, pipeline):
        plan, store, taus, _ = pipeline
        value, aux = non_linearity_score(
            store, tiny_checkpoint, taus[0], plan.group("layer.0"), task=0, n_points=6
        )
        assert np.isfinite(value) and value >= 0
        assert aux["ratio_matrix"].shape == (7, 7)


def mismatched_task_vector(tau: TensorArchive, kind: str) -> TensorArchive:
    """A task vector that does not fit the tiny model, in one of three ways."""
    if kind == "norm_of_one":  # would broadcast over the norm silently
        return TensorArchive(dict(tau.tensors, **{"layers.0.norm2": np.ones(1)}), dict(tau.meta))
    if kind == "wider_model":
        return random_checkpoint(ModelConfig(16, 2, 2, 16, 11, 16), seed=5)
    return TensorArchive({n: a for n, a in tau.tensors.items() if n != "layers.0.mlp.up_proj"}, {})


MISMATCHES = {
    "norm_of_one": "'layers.0.norm2' shapes differ",
    "wider_model": "shapes differ",
    "missing_tensor": "tensor names differ",
}


class TestInputsAreChecked:
    @pytest.mark.parametrize("kind", MISMATCHES)
    def test_non_linearity_score_rejects_mismatched_task_vector(self, tiny_checkpoint, pipeline, kind):
        plan, store, taus, _ = pipeline
        tau = mismatched_task_vector(taus[0], kind)
        with pytest.raises(CompatError, match=MISMATCHES[kind]):
            non_linearity_score(store, tiny_checkpoint, tau, plan.group("layer.0"), n_points=2)

    @pytest.mark.parametrize("kind", MISMATCHES)
    def test_metric_sweep_rejects_mismatched_task_vector(self, tiny_checkpoint, pipeline, kind):
        plan, store, taus, deltas = pipeline
        bad = [taus[0], mismatched_task_vector(taus[1], kind)]
        with pytest.raises(CompatError, match=f"task vector 1: .*{MISMATCHES[kind]}"):
            metric_sweep(store, deltas, tiny_checkpoint, bad, plan.group("layer.0"), grid=[[0.5, 0.5]])

    @pytest.mark.parametrize("kind", ["other_plan", "same_id"])
    def test_non_linearity_score_rejects_a_group_of_another_plan(
        self, tiny_config, tiny_checkpoint, pipeline, kind
    ):
        plan, store, taus, _ = pipeline
        if kind == "other_plan":
            group = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("attn.0")
        else:
            group = dataclasses.replace(plan.group("layer.0"), input_tap="attn_in.1")
        with pytest.raises(PlanError, match="'(attn|layer).0'"):
            non_linearity_score(store, tiny_checkpoint, taus[0], group, n_points=2)

    # The step count is an integer of at least 2, and a bool is not one. Above
    # MAX_N_POINTS the step list and the distance tensor of `interpolation_scores`
    # would grow without bound.
    @pytest.mark.parametrize(
        "n_points",
        [
            1, 2.5, True,
            pytest.param(MAX_N_POINTS + 1, id="above_max"),
            pytest.param(np.int64(10**9), id="numpy_above_max"),
            pytest.param(10**400, id="past_float_range"),
            *(pytest.param(case.values[1], id=case.id)
              for case in bad_scalars(["n_points"], "integer", "minimum")),
        ],
    )
    def test_n_points_must_be_an_integer_of_at_least_two(self, tiny_checkpoint, pipeline, n_points):
        plan, store, taus, _ = pipeline
        with pytest.raises(InputError, match=f"n_points must be an integer >= 2 and <= {MAX_N_POINTS}"):
            non_linearity_score(store, tiny_checkpoint, taus[0], plan.group("layer.0"), n_points=n_points)

    def test_n_points_at_the_bound_is_scored(self, tiny_checkpoint, pipeline):
        plan, store, taus, _ = pipeline
        assert require_n_points(np.int64(MAX_N_POINTS)) == MAX_N_POINTS
        _, aux = non_linearity_score(
            store, tiny_checkpoint, taus[0], plan.group("layer.0"), n_points=MAX_N_POINTS
        )
        assert aux["n"] == MAX_N_POINTS and aux["ratio_matrix"].shape == (MAX_N_POINTS + 1,) * 2

    def test_non_linearity_score_base_must_be_the_traced_model(self, tiny_checkpoint, pipeline):
        # Interpolating from another base would score a different path silently.
        plan, store, taus, _ = pipeline
        other = perturbed(tiny_checkpoint, seed=21, scale=0.1)
        with pytest.raises(CompatError, match="traced base"):
            non_linearity_score(store, other, taus[0], plan.group("layer.0"), n_points=2)


def reference_weighted_sum(task_deltas, alpha):
    target = np.zeros_like(np.asarray(task_deltas[0], dtype=np.float64))
    for weight, delta in zip(alpha, task_deltas):
        target += float(weight) * np.asarray(delta, dtype=np.float64)
    return target


def reference_cosine(task_deltas, alpha, merged_deltas):
    # The separate cosine formula merge_metrics replaced, kept as its reference.
    merged = np.asarray(merged_deltas, dtype=np.float64)
    target = reference_weighted_sum(task_deltas, alpha)
    merged_norm = np.linalg.norm(merged, axis=1)
    target_norm = np.linalg.norm(target, axis=1)
    keep = (merged_norm >= NORM_FLOOR) & (target_norm >= NORM_FLOOR)
    dots = np.einsum("rw,rw->r", merged[keep], target[keep])
    per_sample = dots / (merged_norm[keep] * target_norm[keep])
    return float(per_sample.mean()), int(keep.size - keep.sum())


def reference_projection(task_deltas, alpha, merged_deltas):
    merged = np.asarray(merged_deltas, dtype=np.float64)
    target = reference_weighted_sum(task_deltas, alpha)
    target_sq = np.einsum("rw,rw->r", target, target)
    keep = target_sq >= NORM_FLOOR**2
    ratios = np.einsum("rw,rw->r", merged[keep], target[keep]) / target_sq[keep]
    mean_ratio = float(ratios.mean())
    return abs(1.0 - mean_ratio), int(keep.size - keep.sum()), mean_ratio


def one_block(task_deltas, alpha, merged):
    """`merge_metrics` on one data task: the per-model deltas as its one block."""
    return merge_metrics([np.array(task_deltas)], alpha, [merged])


def cosine(task_deltas, alpha, merged):
    return one_block(task_deltas, alpha, merged)["cosine_merge"]


def projection(task_deltas, alpha, merged):
    return one_block(task_deltas, alpha, merged)["projection_distance"]


class TestCosineMerge:
    def test_single_task_full_weight_is_one(self):
        rng = np.random.default_rng(1)
        delta = rng.normal(size=(6, 4))
        value, aux = cosine([delta], [1.0], delta.copy())
        assert aux == {"skipped": 0}
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_scaled_merged_delta_still_one(self):
        rng = np.random.default_rng(2)
        deltas = [rng.normal(size=(5, 3)) for _ in range(2)]
        target = 0.3 * deltas[0] + 0.7 * deltas[1]
        value, _ = cosine(deltas, [0.3, 0.7], 2.0 * target)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        deltas = [np.array([[1.0, 0.0]] * 4)]
        merged = np.array([[0.0, 1.0]] * 4)
        value, _ = cosine(deltas, [1.0], merged)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_zero_rows_skipped_and_counted(self):
        deltas = [np.array([[1.0, 0.0], [0.0, 0.0]])]
        merged = np.array([[1.0, 0.0], [0.0, 0.0]])
        value, aux = cosine(deltas, [1.0], merged)
        assert aux["skipped"] == 1 and value == 1.0

    def test_all_rows_degenerate(self):
        with pytest.raises(DegenerateError, match="zero-norm delta"):
            cosine([np.zeros((3, 2))], [1.0], np.zeros((3, 2)))


class TestProjectionDistance:
    def test_single_task_full_weight_is_zero(self):
        rng = np.random.default_rng(6)
        delta = rng.normal(size=(7, 3))
        value, aux = projection([delta], [1.0], delta.copy())
        assert value == pytest.approx(0.0, abs=1e-12)
        assert aux["skipped"] == 0 and aux["mean_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_double_length_merged_is_one(self):
        rng = np.random.default_rng(7)
        deltas = [rng.normal(size=(5, 3))]
        value, _ = projection(deltas, [1.0], 2.0 * deltas[0])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_all_targets_zero(self):
        # The merged delta is non-zero, so the cosine's mask keeps no row either.
        with pytest.raises(DegenerateError, match="zero-norm delta"):
            projection([np.zeros((3, 2))], [1.0], np.ones((3, 2)))

    def test_task_permutation_symmetry(self):
        rng = np.random.default_rng(8)
        deltas = [rng.normal(size=(6, 4)) for _ in range(2)]
        merged = rng.normal(size=(6, 4))
        forward, _ = projection(deltas, [0.2, 0.9], merged)
        swapped, _ = projection(deltas[::-1], [0.9, 0.2], merged)
        assert forward == pytest.approx(swapped, abs=1e-12)


class TestMergeMetrics:
    def test_keyed_by_metric_names(self):
        rng = np.random.default_rng(3)
        deltas = [rng.normal(size=(4, 3)) for _ in range(2)]
        results = one_block(deltas, [0.5, 0.5], rng.normal(size=(4, 3)))
        assert tuple(results) == METRICS
        assert set(results["projection_distance"][1]) == {"skipped", "mean_ratio"}

    def test_matches_the_separate_formulas(self):
        # One BLAS weighted sum and square-rooted einsums round differently from
        # the per-task loop and np.linalg.norm: values agree to 1e-12 relative
        # (near-zero means to 1e-13 absolute); the skipped counts are exact.
        rng = np.random.default_rng(11)
        dropped_by = {"cosine": 0, "projection": 0}
        for _ in range(300):
            n_tasks, rows, width = rng.integers(1, 5), rng.integers(4, 40), rng.integers(1, 20)
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            deltas = rng.normal(size=(n_tasks, rows, width)).astype(dtype)
            alpha = rng.uniform(-1.0, 1.5, size=n_tasks).tolist()
            merged = rng.normal(size=(rows, width))
            # Zero target rows fall out of both masks, zero merged rows only
            # out of the cosine's; row 0 is of the first kind, row 1 of the second.
            zero_target, zero_merged = rng.random(rows) < 0.2, rng.random(rows) < 0.2
            zero_target[:2], zero_merged[1] = (True, False), True
            deltas[:, zero_target], merged[zero_merged] = 0.0, 0.0
            cos_value, cos_skipped = reference_cosine(deltas, alpha, merged)
            proj_value, proj_skipped, mean_ratio = reference_projection(deltas, alpha, merged)
            for given in (deltas, deltas.astype(np.float64), list(deltas)):
                results = one_block(given, alpha, merged)
                value, aux = results["cosine_merge"]
                assert math.isclose(value, cos_value, rel_tol=1e-12, abs_tol=1e-13)
                assert aux == {"skipped": cos_skipped}
                value, aux = results["projection_distance"]
                assert math.isclose(value, proj_value, rel_tol=1e-12, abs_tol=1e-13)
                assert math.isclose(aux.pop("mean_ratio"), mean_ratio, rel_tol=1e-12, abs_tol=1e-13)
                assert aux == {"skipped": proj_skipped}
            dropped_by["cosine"] += cos_skipped > proj_skipped
            dropped_by["projection"] += proj_skipped > 0
        assert dropped_by == {"cosine": 300, "projection": 300}

    def test_ragged_task_splits_match_one_block(self):
        # Per-row values do not depend on the split; only the weighted sum's
        # BLAS product may round a few tail elements at a task boundary
        # differently, depending on the CPU's kernels. So the split agrees with
        # the one block to 1e-12 relative, and the skipped counts agree exactly.
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_models, rows, width = rng.integers(1, 5), rng.integers(2, 60), rng.integers(1, 20)
            block = rng.normal(size=(n_models, rows, width)).astype(np.float32)
            alpha = rng.uniform(-1.0, 1.5, size=n_models).tolist()
            merged = np.tensordot(alpha, block, 1) + 0.5 * rng.normal(size=(rows, width))
            merged = merged.astype(np.float32)
            block[:, rng.random(rows) < 0.1] = 0.0
            whole = merge_metrics([block], alpha, [merged])
            cuts = rng.integers(0, min(rows, 5))
            ends = np.sort(rng.choice(np.arange(1, rows), size=cuts, replace=False))
            split = merge_metrics(np.split(block, ends, axis=1), alpha, np.split(merged, ends))
            for metric in METRICS:
                (value, aux), (want, want_aux) = split[metric], whole[metric]
                assert math.isclose(value, want, rel_tol=1e-12), (metric, ends)
                assert aux.pop("skipped") == want_aux.pop("skipped")
                for key, got in aux.items():
                    assert math.isclose(got, want_aux[key], rel_tol=1e-12), (metric, key, ends)

    @pytest.mark.parametrize("n_deltas, alpha", [(2, [1.0]), (1, [1.0, 1.0]), (0, [])])
    def test_alpha_of_the_wrong_length(self, n_deltas, alpha):
        with pytest.raises(InputError, match="alpha length"):
            one_block([np.ones((3, 2))] * n_deltas, alpha, np.ones((3, 2)))

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3), (3,), (3, 2, 1)])
    def test_merged_deltas_of_another_shape(self, shape):
        with pytest.raises(InputError, match="shape"):
            one_block([np.ones((3, 2))], [1.0], np.ones(shape))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 1), (4, 2)])
    def test_task_delta_of_another_shape(self, shape):
        # A block whose model deltas have another shape; (1, 2) and (3, 1)
        # would broadcast into the weighted sum.
        with pytest.raises(InputError, match="shape"):
            merge_metrics([np.ones((2, *shape))], [0.5, 0.5], [np.ones((3, 2))])

    def test_block_without_a_model_axis(self):
        # A [rows, width] delta given as a block of one model.
        with pytest.raises(InputError, match="shape"):
            merge_metrics([np.ones((3, 2))], [1.0], [np.ones((3, 2))])

    def test_no_task_blocks(self):
        with pytest.raises(InputError, match="at least one task block"):
            merge_metrics([], [1.0], [])

    def test_block_and_merged_counts_differ(self):
        block = np.ones((1, 3, 2))
        with pytest.raises(InputError, match="one merged delta per block"):
            merge_metrics([block, block], [1.0], [np.ones((3, 2))])

    def test_cosine_degenerate_reported_first(self):
        # Both masks are empty; the cosine's error is the one raised.
        with pytest.raises(DegenerateError, match="zero-norm delta"):
            one_block([np.zeros((3, 2))], [1.0], np.zeros((3, 2)))


class TestSweep:
    def test_grid_sizes(self):
        assert len(default_alpha_grid(2)) == 25
        assert len(default_alpha_grid(3)) == 27
        assert len(default_alpha_grid(1)) == 5

    def test_sweep_record_counts(self, tiny_config, tiny_checkpoint, pipeline):
        plan, store, taus, deltas = pipeline
        records = metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("layer.0"))
        cos = [r for r in records if r.metric == "cosine_merge"]
        proj = [r for r in records if r.metric == "projection_distance"]
        assert len(cos) == 25 and len(proj) == 25
        means = [r for r in records if r.metric.endswith("grid_mean")]
        assert len(means) == 2
        assert all(np.isfinite(r.value) for r in means)

    def test_grid_means_are_means_of_the_sweep(self, tiny_checkpoint, pipeline):
        plan, store, taus, deltas = pipeline
        records = metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("layer.0"))
        for metric in ("cosine_merge", "projection_distance"):
            values = [r.value for r in records if r.metric == metric]
            (mean,) = [r.value for r in records if r.metric == f"{metric}_grid_mean"]
            assert len(values) == 25 and np.isfinite(values).all()
            # The sweep is not symmetric, so a median would differ from the mean.
            assert np.median(values) != pytest.approx(np.mean(values), rel=1e-3)
            assert mean == pytest.approx(np.mean(values), rel=1e-12)

    def test_exactly_linear_group_ideal_for_every_alpha(
        self, tiny_config, tiny_checkpoint, pipeline
    ):
        plan, store, taus, deltas = pipeline
        records = metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("embed"))
        for record in records:
            if record.metric == "cosine_merge":
                assert record.value >= 1 - 1e-6
            elif record.metric == "projection_distance":
                assert record.value <= 1e-6

    def test_degenerate_alpha_is_surfaced_in_aux(self, tiny_config, tiny_checkpoint, pipeline):
        plan, store, taus, deltas = pipeline
        records = metric_sweep(
            store, deltas, tiny_checkpoint, taus, plan.group("embed"), grid=[[0.0, 0.0]]
        )
        flagged = [r for r in records if r.aux.get("degenerate")]
        assert flagged and all(np.isnan(r.value) for r in flagged)

    @pytest.mark.parametrize("alpha", [[0.5], [0.5, 0.5, 0.5]])
    def test_alpha_of_the_wrong_length(self, tiny_checkpoint, pipeline, alpha):
        plan, store, taus, deltas = pipeline
        with pytest.raises(CoeffError, match="for 2 task vectors"):
            metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("layer.0"), grid=[alpha])

    @pytest.mark.parametrize(
        "entry, error, match",
        [
            (["a", 0.5], ParamError, "real number"),
            ([float("nan"), 0.5], ParamError, "finite"),
            ([float("inf"), 0.5], ParamError, "finite"),
            ([True, 0.5], ParamError, "real number"),
            ([0.5], CoeffError, "1 coefficients for 2 task vectors"),
            (0.5, CoeffError, "not a sequence"),
        ],
    )
    def test_bad_grid_entry_raises_before_any_block(
        self, tiny_checkpoint, pipeline, monkeypatch, entry, error, match
    ):
        # The bad entry comes after a good one; every entry is checked first.
        plan, store, taus, deltas = pipeline
        computed = []
        monkeypatch.setattr(DeltaStore, "_block", lambda *args: computed.append(args))
        grid = [[0.5, 0.5], entry]
        with pytest.raises(error, match=match):
            metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("layer.0"), grid=grid)
        assert computed == []

    def test_one_task_vector_per_model(self, tiny_checkpoint, pipeline, monkeypatch):
        plan, store, taus, deltas = pipeline
        computed = []
        monkeypatch.setattr(DeltaStore, "_block", lambda *args: computed.append(args))
        with pytest.raises(InputError, match="1 task vectors for 2 fine-tuned models"):
            metric_sweep(store, deltas, tiny_checkpoint, taus[:1], plan.group("embed"), grid=[[1.0]])
        assert computed == []

    def test_empty_grid_rejected(self, tiny_checkpoint, pipeline):
        plan, store, taus, deltas = pipeline
        with pytest.raises(InputError, match="alpha grid must be non-empty"):
            metric_sweep(store, deltas, tiny_checkpoint, taus, plan.group("layer.0"), grid=[])

    def test_base_must_be_the_traced_model(self, tiny_checkpoint, pipeline):
        # Merged rows built on another base would be compared with base rows
        # of the traced model.
        plan, store, taus, deltas = pipeline
        other = perturbed(tiny_checkpoint, seed=21, scale=0.1)
        with pytest.raises(CompatError, match="traced base"):
            metric_sweep(store, deltas, other, taus, plan.group("layer.0"), grid=[[0.5, 0.5]])

    def test_deltas_must_read_the_same_store(self, tiny_config, tiny_checkpoint, pipeline):
        plan, store, taus, deltas = pipeline
        model = bind_weights(tiny_checkpoint, tiny_config)
        datasets = [[[(3 * i + j + t) % 11 for j in range(6)] for i in range(4)] for t in range(2)]
        other = collect_base_features(model, datasets, plan, sample_n=3, seed=7)
        foreign = compute_delta_outputs(other, tiny_checkpoint, deltas.fine_tuned, plan)
        with pytest.raises(InputError, match="feature store"):
            metric_sweep(store, foreign, tiny_checkpoint, taus, plan.group("layer.0"), grid=[[0.5, 0.5]])


@pytest.mark.parametrize("n_tasks", [2, 3])
def test_plain_gram_alpha_minimizes_the_realized_objective(n_tasks):
    """The plain-Gram solve minimizes J(alpha) = sum_t mean over task t's rows of
    |merged_group_deltas(alpha) - delta_t|^2 on each merged group's own output, not
    only on the linear surrogate: J at the solved alpha is at most J at uniform alpha
    and at alpha = 1. The normalized Gram, the default, divides each row's term by its
    mean delta energy, so it minimizes another objective and the claim does not hold for
    it: here, with two tasks, `attn.0` reads 1.65e-5 at its solved alpha against 1.50e-5
    at alpha = 1."""
    config = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, vocab_size=32, max_seq=16)
    fixture = build_fixture(FixtureSpec(config, n_tasks=n_tasks, tau_scale=0.5))
    plan = plan_decomposition(config, Granularity.ATTN_MLP)
    store = collect_base_features(bind_weights(fixture.base, config), fixture.datasets, plan, 8)
    deltas = compute_delta_outputs(store, fixture.base, fixture.models, plan)
    weights = solve_plan(plan, deltas, normalized=False)
    taus = [task_vector(model, fixture.base).tensors for model in fixture.models]
    for group in plan.groups:
        # Task t's own delta on its data task's rows.
        own = [blocks[t].astype(np.float64) for t, blocks in enumerate(deltas.grouped(group.id))]

        def objective(alpha):
            merged = merged_group_deltas(store, taus, group, alpha)
            return sum(np.mean(np.sum((m - d) ** 2, axis=1)) for m, d in zip(merged, own))

        solved = objective(weights.group(group.id).alpha)
        for alpha in ([1 / n_tasks] * n_tasks, [1.0] * n_tasks):
            assert solved <= objective(alpha) * (1 + 1e-9), (group.id, alpha)
