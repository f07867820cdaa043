"""Closed-form merge-weight solver: Gram tensor, normal equations, fallbacks."""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from submerge import DegenerateError, InputError, NumericError, task_vector
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import collect_base_features, compute_delta_outputs
from submerge.model import ModelConfig, bind_weights
from submerge.solver import (
    GramTensor,
    GroupWeights,
    MergeWeights,
    assemble_system,
    compute_gram,
    solve_alpha,
    solve_plan,
)

from conftest import random_checkpoint
from test_features import perturbed


def surrogate_objective(task_blocks, alpha, normalized=False):
    """Independent objective: sum over data tasks of the per-sample mean of
    ||sum_t alpha_t * delta_t(x) - delta_a(x)||^2, optionally divided by the
    mean delta energy of the sample. Written with explicit loops on purpose.
    """
    total = 0.0
    for a, block in enumerate(task_blocks):
        n_models, rows, _ = block.shape
        contributions = []
        for r in range(rows):
            combo = np.zeros(block.shape[2])
            for t in range(n_models):
                combo = combo + float(alpha[t]) * np.asarray(block[t, r], dtype=np.float64)
            diff = combo - np.asarray(block[a, r], dtype=np.float64)
            value = float(diff @ diff)
            if normalized:
                denom = 0.0
                for t in range(n_models):
                    row = np.asarray(block[t, r], dtype=np.float64)
                    denom += float(row @ row)
                denom /= n_models
                if denom < 1e-12:
                    continue
                value /= denom
            contributions.append(value)
        if contributions:
            total += sum(contributions) / len(contributions)
    return total


def random_blocks(rng, n_tasks=2, rows=8, width=8):
    return [
        rng.normal(size=(n_tasks, rows, width)) * rng.uniform(0.5, 2.0)
        for _ in range(n_tasks)
    ]


class TestComputeGram:
    def test_single_task_constant_delta(self):
        g = np.array([3.0, 4.0])
        block = np.stack([np.tile(g, (5, 1))])
        gram = compute_gram([block], normalized=False)
        assert gram.B.shape == (1, 1, 1)
        assert gram.B[0, 0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_single_task_normalized_is_one(self):
        rng = np.random.default_rng(1)
        block = np.stack([rng.normal(size=(6, 4))])
        gram = compute_gram([block], normalized=True)
        assert gram.B[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_deltas_zero_cross_terms(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        e2 = np.zeros(4)
        e2[1] = 1.0
        block = np.stack([np.tile(e1, (3, 1)), np.tile(e2, (3, 1))])
        gram = compute_gram([block, block.copy()], normalized=False)
        for a in range(2):
            assert gram.B[a, 0, 1] == pytest.approx(0.0, abs=1e-15)
            assert gram.B[a, 1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_slices_symmetric_psd(self):
        rng = np.random.default_rng(2)
        gram = compute_gram(random_blocks(rng, n_tasks=3, rows=10, width=5))
        for a in range(3):
            np.testing.assert_allclose(gram.B[a], gram.B[a].T, atol=1e-12)
            eigvals = np.linalg.eigvalsh(gram.B[a])
            assert eigvals.min() >= -1e-10

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        blocks = random_blocks(rng, n_tasks=2, rows=4, width=3)
        gram = compute_gram(blocks, normalized=False)
        for a, block in enumerate(blocks):
            for b in range(2):
                for c in range(2):
                    expected = np.mean(
                        [float(block[b, r] @ block[c, r]) for r in range(block.shape[1])]
                    )
                    assert gram.B[a, b, c] == pytest.approx(expected, rel=1e-12)

    def test_normalized_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        blocks = random_blocks(rng, n_tasks=2, rows=4, width=3)
        gram = compute_gram(blocks, normalized=True)
        for a, block in enumerate(blocks):
            for b in range(2):
                for c in range(2):
                    terms = []
                    for r in range(block.shape[1]):
                        denom = (
                            float(block[0, r] @ block[0, r]) + float(block[1, r] @ block[1, r])
                        ) / 2
                        terms.append(float(block[b, r] @ block[c, r]) / denom)
                    assert gram.B[a, b, c] == pytest.approx(np.mean(terms), rel=1e-12)

    def test_normalized_equals_plain_under_constant_energy(self):
        # Rows built so every sample's mean delta energy is exactly 1.
        rng = np.random.default_rng(5)
        blocks = []
        for _ in range(2):
            block = rng.normal(size=(2, 6, 4))
            energy = np.sqrt((np.linalg.norm(block, axis=2) ** 2).mean(axis=0))
            blocks.append(block / energy[None, :, None])
        plain = compute_gram(blocks, normalized=False)
        normed = compute_gram(blocks, normalized=True)
        np.testing.assert_allclose(plain.B, normed.B, atol=1e-8)

    def test_normalized_skips_dead_samples(self):
        block = np.zeros((1, 3, 2))
        block[0, 0] = [1.0, 0.0]
        block[0, 2] = [0.0, 2.0]
        gram = compute_gram([block], normalized=True)
        assert gram.skipped == (1,)
        assert gram.samples == (2,)
        assert gram.B[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_dead_samples_degenerate(self):
        with pytest.raises(DegenerateError):
            compute_gram([np.zeros((2, 4, 3))], normalized=True)

    def test_empty_rows_degenerate(self):
        with pytest.raises(DegenerateError):
            compute_gram([np.zeros((2, 0, 3))], normalized=False)

    def test_no_blocks_rejected(self):
        with pytest.raises(InputError, match="at least one data task block"):
            compute_gram([])

    def test_mismatched_model_counts_rejected(self):
        with pytest.raises(InputError):
            compute_gram([np.zeros((2, 3, 4)), np.zeros((3, 3, 4))])

    @pytest.mark.parametrize(
        "shapes",
        [[(2, 3, 4), (2, 3, 4), (2, 3)], [(), (2, 3, 4)]],
        ids=["two_dim_last", "scalar_first"],
    )
    def test_wrong_shape_block_rejected(self, shapes):
        with pytest.raises(InputError, match="n_models x rows x width"):
            compute_gram([np.zeros(shape, dtype=np.float32) for shape in shapes])

    @pytest.mark.parametrize("normalized", [True, False])
    def test_a_stream_gives_the_bytes_of_a_list(self, normalized):
        rng = np.random.default_rng(4)
        blocks = [block.astype(np.float32) for block in random_blocks(rng, n_tasks=3, rows=7)]
        blocks[1][:, 2] = 0.0
        listed = compute_gram(blocks, normalized)
        streamed = compute_gram(iter(blocks), normalized)
        assert streamed.B.tobytes() == listed.B.tobytes()
        assert (streamed.samples, streamed.skipped) == (listed.samples, listed.skipped)
        assert listed.skipped == ((0, 1, 0) if normalized else (0, 0, 0))

    @pytest.mark.parametrize("normalized", [True, False])
    def test_a_bad_shape_after_a_degenerate_block_is_an_input_error(self, normalized):
        # Every block's shape is checked before a degenerate task is reported.
        blocks = [np.zeros((2, 0, 3)), np.ones((2, 4, 3)), np.ones((3, 4, 3))]
        with pytest.raises(InputError, match="n_models x rows x width"):
            compute_gram(iter(blocks), normalized)
        with pytest.raises(DegenerateError, match="'g': data task 0 has no samples"):
            compute_gram(iter(blocks[:2]), normalized, group_id="g")

    def test_an_empty_stream_is_rejected(self):
        with pytest.raises(InputError, match="at least one data task block"):
            compute_gram(iter([]))

    def test_peak_upcasts_one_block_at_a_time(self):
        # Each float32 block is upcast only while its own contribution is
        # computed, so the peak stays below two float64 blocks; upcasting all
        # three first would hold three.
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(3, 2000, 64)).astype(np.float32) for _ in range(3)]
        compute_gram(blocks)
        tracemalloc.start()
        try:
            gram = compute_gram(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 * blocks[0].nbytes
        upcast = compute_gram([block.astype(np.float64) for block in blocks])
        assert np.array_equal(gram.B, upcast.B)


class TestAssembleSystem:
    def test_single_task_collapse(self):
        gram = GramTensor(np.array([[[2.5]]]), (4,), (0,))
        A, b = assemble_system(gram)
        np.testing.assert_allclose(A, [[2.5]])
        np.testing.assert_allclose(b, [2.5])

    def test_orthonormal_deltas_give_identity_system(self):
        # Unit-norm, mutually orthogonal deltas on both datasets. By hand:
        # A[j,k] = sum_t E_t<df_j, df_k> = 2*delta_jk, and
        # b[j] = sum_t E_t<df_j, df_t> = <e_j, e_1> + <e_j, e_2> = 1.
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        blocks = [np.stack([np.tile(e1, (4, 1)), np.tile(e2, (4, 1))])] * 2
        A, b = assemble_system(compute_gram(blocks, normalized=False))
        np.testing.assert_allclose(A, 2 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(b, [1.0, 1.0], atol=1e-12)
        # The implied alpha [0.5, 0.5] really is the objective minimum:
        # J = (a1-1)^2 + a2^2 + a1^2 + (a2-1)^2 has its minimum 1.0 there.
        alpha, _ = solve_alpha(A, b)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-12)
        assert surrogate_objective(blocks, alpha) == pytest.approx(1.0, abs=1e-12)
        assert surrogate_objective(blocks, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_identical_unit_deltas_give_singular_system(self):
        g = np.array([1.0, 0.0, 0.0])
        block = np.stack([np.tile(g, (3, 1)), np.tile(g, (3, 1))])
        A, b = assemble_system(compute_gram([block, block.copy()], normalized=False))
        np.testing.assert_allclose(A, 2 * np.ones((2, 2)), atol=1e-12)
        np.testing.assert_allclose(b, [2.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n_tasks", [1, 3])
    def test_one_data_task_per_model_required(self, n_tasks):
        # Model t is fine-tuned on data task t; any other count is refused
        # before the b[j] = sum_t B[t, j, t] contraction.
        gram = GramTensor(np.ones((n_tasks, 2, 2)), (1,) * n_tasks, (0,) * n_tasks)
        with pytest.raises(InputError, match=f"2 fine-tuned models need 2 data tasks, got {n_tasks}"):
            assemble_system(gram)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(6)
        gram = compute_gram(random_blocks(rng, n_tasks=3, rows=5, width=4))
        A, b = assemble_system(gram)
        for j in range(3):
            assert b[j] == pytest.approx(sum(gram.B[t, j, t] for t in range(3)), rel=1e-12)
            for k in range(3):
                assert A[j, k] == pytest.approx(
                    sum(gram.B[t, j, k] for t in range(3)), rel=1e-12
                )


class TestSolveAlpha:
    def test_single_task_alpha_is_one(self):
        alpha, diag = solve_alpha(np.array([[3.7]]), np.array([3.7]))
        assert alpha[0] == pytest.approx(1.0, abs=1e-8)
        assert not diag["fallback"]

    def test_diagonal_system(self):
        alpha, diag = solve_alpha(2 * np.eye(2), np.array([2.0, 2.0]))
        np.testing.assert_allclose(alpha, [1.0, 1.0], atol=1e-12)
        assert not diag["fallback"]
        assert diag["residual"] <= 1e-8 * (1 + np.linalg.norm([2.0, 2.0]))

    def test_singular_system_ridge_fallback(self):
        A = 2 * np.ones((2, 2))
        b = np.array([2.0, 2.0])
        alpha, diag = solve_alpha(A, b)
        assert diag["fallback"]
        assert diag["ridge"] > 0.0
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-4)
        # Objective alpha'A alpha - 2 b'alpha + c is zero at the solution
        # (c = 2 for identical unit deltas).
        objective = alpha @ A @ alpha - 2 * b @ alpha + 2.0
        assert abs(objective) <= 1e-8

    def test_zero_signal_uniform(self):
        alpha, diag = solve_alpha(np.zeros((3, 3)), np.zeros(3))
        np.testing.assert_allclose(alpha, [1 / 3] * 3, atol=1e-12)
        assert diag["fallback"]
        assert diag["zero_signal"]

    def test_fallbacks_carry_a_note(self):
        _, ridge = solve_alpha(2 * np.ones((2, 2)), np.array([2.0, 2.0]))
        assert ridge["note"] == "condition above limit: solved with a ridge"
        _, zero = solve_alpha(np.zeros((2, 2)), np.zeros(2))
        assert zero["note"].startswith("zero signal")
        _, plain = solve_alpha(2 * np.eye(2), np.array([2.0, 2.0]))
        assert plain["note"] == ""

    def test_condition_near_1e6_is_solved_directly(self):
        # Well inside COND_LIMIT: no ridge, the plain solve of the system.
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        A = q @ np.diag([1.0, 1e-3, 1e-6]) @ q.T
        A = (A + A.T) / 2
        b = np.array([0.3, -0.2, 0.5])
        alpha, diag = solve_alpha(A, b)
        assert 5e5 < diag["condition"] < 2e6
        assert not diag["fallback"] and diag["ridge"] == 0.0
        np.testing.assert_allclose(alpha, scipy.linalg.solve(A, b), rtol=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            solve_alpha(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(NumericError):
            solve_alpha(np.eye(2), np.array([1.0, np.inf]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            solve_alpha(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_residual_bound_on_random_pd_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            A = m @ m.T + 0.1 * np.eye(4)
            b = rng.normal(size=4)
            alpha, diag = solve_alpha(A, b)
            assert not diag["fallback"]
            assert np.linalg.norm(A @ alpha - b) <= 1e-8 * (1 + np.linalg.norm(b))
            assert diag["residual"] <= 1e-8 * (1 + np.linalg.norm(b))


class TestOptimality:
    """Closed-form solution against an independent brute-force grid search."""

    def test_beats_grid_on_random_instances(self):
        rng = np.random.default_rng(8)
        grid_axis = np.arange(-2.0, 2.0001, 0.1)
        grid = np.array(list(itertools.product(grid_axis, grid_axis)))
        for _ in range(5):
            blocks = random_blocks(rng, n_tasks=2, rows=8, width=8)
            gram = compute_gram(blocks, normalized=False)
            alpha, _ = solve_alpha(*assemble_system(gram))
            closed = surrogate_objective(blocks, alpha)
            best = np.zeros(len(grid))
            for a, block in enumerate(blocks):
                combos = np.einsum("gt,trw->grw", grid, block)
                diffs = combos - block[a][None]
                best += np.einsum("grw,grw->g", diffs, diffs) / block.shape[1]
            assert closed <= best.min() + 1e-6

    def test_normalized_solution_optimal_for_normalized_objective(self):
        rng = np.random.default_rng(9)
        blocks = random_blocks(rng, n_tasks=2, rows=6, width=5)
        alpha, _ = solve_alpha(*assemble_system(compute_gram(blocks, normalized=True)))
        center = surrogate_objective(blocks, alpha, normalized=True)
        for t in range(2):
            for eps in (-0.01, 0.01):
                bumped = list(alpha)
                bumped[t] += eps
                assert surrogate_objective(blocks, bumped, normalized=True) >= center - 1e-8

    def test_identical_deltas_split_evenly(self):
        rng = np.random.default_rng(10)
        shared = rng.normal(size=(7, 4))
        block = np.stack([shared, shared])
        alpha, diag = solve_alpha(*assemble_system(compute_gram([block, block.copy()])))
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-4)
        assert surrogate_objective([block, block.copy()], alpha) <= 1e-8

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        blocks = random_blocks(rng, n_tasks=3, rows=5, width=6)
        alpha, _ = solve_alpha(*assemble_system(compute_gram(blocks)))
        perm = [2, 0, 1]
        permuted = [blocks[a][perm] for a in perm]
        alpha_p, _ = solve_alpha(*assemble_system(compute_gram(permuted)))
        np.testing.assert_allclose(alpha_p, [alpha[t] for t in perm], atol=1e-8)

    def test_delta_scaling_leaves_alpha_unchanged(self):
        rng = np.random.default_rng(12)
        blocks = random_blocks(rng, n_tasks=2, rows=6, width=4)
        alpha, _ = solve_alpha(*assemble_system(compute_gram(blocks, normalized=False)))
        scaled, _ = solve_alpha(
            *assemble_system(compute_gram([3.0 * b for b in blocks], normalized=False))
        )
        np.testing.assert_allclose(scaled, alpha, atol=1e-8)


@pytest.fixture(scope="module")
def pipeline(tiny_config, tiny_checkpoint):
    rng = np.random.default_rng(20)
    datasets = [
        [rng.integers(0, 11, size=6).tolist() for _ in range(4)],
        [rng.integers(0, 11, size=6).tolist() for _ in range(4)],
    ]
    fine_tuned = [perturbed(tiny_checkpoint, seed=s, scale=0.1) for s in (31, 32)]
    model = bind_weights(tiny_checkpoint, tiny_config)
    plan = plan_decomposition(tiny_config, Granularity.LAYER)
    store = collect_base_features(model, datasets, plan, sample_n=3, seed=0)
    deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
    return plan, store, deltas


class TestSolvePlan:
    def test_layer_plan_group_count(self, pipeline):
        plan, _, deltas = pipeline
        weights = solve_plan(plan, deltas)
        assert len(weights.groups) == 4  # embed + 2 layers + lm_head
        assert [g.group_id for g in weights.groups] == list(plan.group_ids())
        for g in weights.groups:
            assert len(g.alpha) == 2
            assert all(np.isfinite(g.alpha))
            assert np.isfinite(g.residual)

    def test_identical_models_zero_signal(self, tiny_config, tiny_checkpoint):
        datasets = [[[1, 2, 3, 4]], [[5, 6, 7, 8]]]
        model = bind_weights(tiny_checkpoint, tiny_config)
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=1, seed=0)
        deltas = compute_delta_outputs(
            store, tiny_checkpoint, [tiny_checkpoint, tiny_checkpoint], plan
        )
        weights = solve_plan(plan, deltas)
        for g in weights.groups:
            assert g.fallback
            np.testing.assert_allclose(g.alpha, [0.5, 0.5], atol=1e-12)

    def test_one_data_task_for_two_models_is_an_input_error(self, tiny_config, tiny_checkpoint):
        model = bind_weights(tiny_checkpoint, tiny_config)
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, [[[1, 2, 3, 4], [5, 6, 7]]], plan, sample_n=2)
        fine_tuned = [perturbed(tiny_checkpoint, seed=s, scale=0.1) for s in (31, 32)]
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        with pytest.raises(InputError, match="2 fine-tuned models need 2 data tasks, got 1"):
            solve_plan(plan, deltas)

    def test_non_finite_gram_is_not_zero_signal(self, tiny_config):
        class NonFiniteDeltas:
            n_models, n_tasks = 2, 1

            def block(self, group_id, task):
                return np.full((2, 3, 4), np.nan)

            def release_task(self, task):
                pass

        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        weights = solve_plan(plan, NonFiniteDeltas(), normalized=False)
        for g in weights.groups:
            assert g.fallback
            assert not g.zero_signal
            assert "non-finite Gram" in g.note
            assert g.alpha == (0.5, 0.5)
            assert (g.residual, g.condition, g.ridge) == (0.0, np.inf, 0.0)

    def test_degenerate_group_is_zero_signal(self, tiny_config):
        class ZeroDeltas:
            n_models, n_tasks = 2, 1

            def block(self, group_id, task):
                return np.zeros((2, 3, 4))

            def release_task(self, task):
                pass

        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        for g in solve_plan(plan, ZeroDeltas()).groups:
            assert g.fallback
            assert g.zero_signal
            assert "non-zero delta energy" in g.note
            assert g.alpha == (0.5, 0.5)
            assert (g.residual, g.condition, g.ridge) == (0.0, np.inf, 0.0)

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("level", [Granularity.HEAD_MLP, Granularity.ATTN_MLP])
    def test_task_major_solve_equals_group_by_group(self, level, normalized):
        # The solve reads blocks task by task; every record equals the one
        # solved from each group's whole `grouped` deltas through `compute_gram`.
        config = ModelConfig(d_model=16, n_heads=4, n_layers=2, d_ff=32, vocab_size=11, max_seq=16)
        base = random_checkpoint(config, 3)
        fine_tuned = [perturbed(base, seed=s) for s in (4, 5, 6)]
        lengths = [[5, 3, 8, 3], [4, 6, 7], [8, 3, 5, 6]]
        datasets = [
            [[(k * i + j) % 11 for j in range(n)] for i, n in enumerate(task)]
            for k, task in enumerate(lengths, 3)
        ]
        plan = plan_decomposition(config, level)
        store = collect_base_features(bind_weights(base, config), datasets, plan, sample_n=3)
        deltas = compute_delta_outputs(store, base, fine_tuned, plan)
        weights = solve_plan(plan, deltas, normalized=normalized)
        expected = []
        for group_id in plan.group_ids():
            gram = compute_gram(deltas.grouped(group_id), normalized, group_id=group_id)
            alpha, diag = solve_alpha(*assemble_system(gram))
            expected.append(GroupWeights(group_id, tuple(float(a) for a in alpha), **diag))
        assert not any(g.fallback for g in expected)
        assert weights.groups == tuple(expected)
        reference = MergeWeights(level.value, normalized, tuple(expected))
        assert weights.to_json_dict() == reference.to_json_dict()

    def test_first_order_optimality_on_pipeline(self, pipeline):
        plan, _, deltas = pipeline
        weights = solve_plan(plan, deltas, normalized=True)
        for group_weights in weights.groups:
            if group_weights.fallback:
                continue
            blocks = deltas.grouped(group_weights.group_id)
            center = surrogate_objective(blocks, group_weights.alpha, normalized=True)
            for t in range(2):
                for eps in (-0.01, 0.01):
                    bumped = list(group_weights.alpha)
                    bumped[t] += eps
                    moved = surrogate_objective(blocks, bumped, normalized=True)
                    assert moved >= center - 1e-8

    def test_deterministic(self, pipeline):
        plan, _, deltas = pipeline
        first = solve_plan(plan, deltas)
        second = solve_plan(plan, deltas)
        assert first.to_json_dict() == second.to_json_dict()

    def test_plain_flag_recorded(self, pipeline):
        plan, _, deltas = pipeline
        weights = solve_plan(plan, deltas, normalized=False)
        assert weights.normalized is False
        assert weights.level == "layer"


class TestWeightsJson:
    def test_shape_and_round_trip(self, pipeline):
        plan, _, deltas = pipeline
        weights = solve_plan(plan, deltas)
        payload = weights.to_json_dict()
        assert set(payload) == {"level", "normalized", "groups"}
        assert payload["level"] == "layer"
        assert payload["normalized"] is True
        for entry in payload["groups"]:
            assert set(entry) == {"id", "alpha", "fallback", "residual"}
            assert isinstance(entry["alpha"], list)
        restored = json.loads(json.dumps(payload))
        assert [g["id"] for g in restored["groups"]] == [g.group_id for g in weights.groups]
        for entry, group in zip(restored["groups"], weights.groups):
            assert tuple(entry["alpha"]) == group.alpha

    def test_group_lookup(self, pipeline):
        plan, _, deltas = pipeline
        weights = solve_plan(plan, deltas)
        assert weights.group("embed").group_id == "embed"
        with pytest.raises(Exception):
            weights.group("missing")
