"""Merge engines: weight average, task arithmetic, DARE, per-group solve."""

from __future__ import annotations

import numpy as np
import pytest

from submerge import (
    CoeffError,
    CompatError,
    ConfigError,
    DataError,
    ParamError,
    TensorArchive,
    archive_digest,
    task_vector,
)
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import collect_base_features
from submerge.merge import (
    apply_merge_weights,
    config_for,
    merge_dare,
    merge_linear_solve,
    merge_task_arithmetic,
    merge_weight_average,
)
from submerge.solver import GroupWeights, MergeWeights

from submerge.model import ModelConfig, bind_weights

from conftest import random_checkpoint
from test_features import perturbed


def same_weights(plan, alpha):
    """The coefficients `alpha` for every group of the plan."""
    groups = tuple(GroupWeights(gid, tuple(alpha), False, 0.0) for gid in plan.group_ids())
    return MergeWeights(plan.granularity.value, True, groups)


def tiny_archive(values, meta=None):
    return TensorArchive(
        tensors={"w": np.asarray(values, dtype=np.float32)}, meta=meta or {}
    )


@pytest.fixture(scope="module")
def merge_setup(tiny_config, tiny_checkpoint):
    rng = np.random.default_rng(40)
    datasets = [
        [rng.integers(0, 11, size=6).tolist() for _ in range(4)],
        [rng.integers(0, 11, size=5).tolist() for _ in range(4)],
    ]
    fine_tuned = [perturbed(tiny_checkpoint, seed=s, scale=0.1) for s in (51, 52)]
    return datasets, fine_tuned


class TestWeightAverage:
    def test_single_model_returns_it(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        merged = merge_weight_average(tiny_checkpoint, [fine_tuned[0]])
        assert merged == fine_tuned[0]

    def test_two_scalars(self):
        base = tiny_archive([0.0])
        merged = merge_weight_average(base, [tiny_archive([0.0]), tiny_archive([2.0])])
        np.testing.assert_array_equal(merged.tensors["w"], [1.0])

    def test_equals_uniform_task_arithmetic(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        wa = merge_weight_average(tiny_checkpoint, fine_tuned)
        ta = merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=0.5)
        for name in wa.tensors:
            np.testing.assert_allclose(
                wa.tensors[name], ta.tensors[name], atol=1e-7
            )

    def test_empty_list_rejected(self, tiny_checkpoint):
        with pytest.raises(Exception):
            merge_weight_average(tiny_checkpoint, [])

    def test_shape_mismatch_rejected(self, tiny_checkpoint):
        with pytest.raises(CompatError):
            merge_weight_average(tiny_checkpoint, [tiny_archive([1.0])])

    def test_shape_mismatch_names_the_tensor(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        tensors = dict(fine_tuned[1].tensors, **{"layers.1.norm2": np.ones(3, dtype=np.float32)})
        odd = TensorArchive(tensors=tensors, meta=dict(tiny_checkpoint.meta))
        with pytest.raises(CompatError, match=r"model 1: tensor 'layers\.1\.norm2' shapes differ"):
            merge_weight_average(tiny_checkpoint, [fine_tuned[0], odd])


class TestTaskArithmetic:
    def test_alpha_zero_is_base(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        merged = merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=0.0)
        assert merged == tiny_checkpoint

    def test_single_model_alpha_one(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        merged = merge_task_arithmetic(tiny_checkpoint, [fine_tuned[0]], alpha=1.0)
        for name in merged.tensors:
            np.testing.assert_allclose(
                merged.tensors[name], fine_tuned[0].tensors[name], atol=1e-6
            )

    def test_matches_direct_formula(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        alpha = 0.3
        merged = merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=alpha)
        for name in merged.tensors:
            expected = tiny_checkpoint.tensors[name].astype(np.float64)
            for ft in fine_tuned:
                tau = ft.tensors[name].astype(np.float64) - tiny_checkpoint.tensors[
                    name
                ].astype(np.float64)
                expected = expected + alpha * tau
            np.testing.assert_allclose(merged.tensors[name], expected, atol=1e-6)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, tiny_checkpoint, merge_setup, alpha):
        _, fine_tuned = merge_setup
        with pytest.raises(ParamError, match="alpha must be finite"):
            merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=alpha)


class TestDare:
    def test_drop_zero_bitwise_equals_task_arithmetic(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        dare = merge_dare(tiny_checkpoint, fine_tuned, alpha=0.4, drop_p=0.0, seed=7)
        ta = merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=0.4)
        assert archive_digest(dare) == archive_digest(ta)

    def test_deterministic_and_seed_sensitive(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        a = merge_dare(tiny_checkpoint, fine_tuned, alpha=0.4, drop_p=0.8, seed=3)
        b = merge_dare(tiny_checkpoint, fine_tuned, alpha=0.4, drop_p=0.8, seed=3)
        c = merge_dare(tiny_checkpoint, fine_tuned, alpha=0.4, drop_p=0.8, seed=4)
        assert archive_digest(a) == archive_digest(b)
        assert archive_digest(a) != archive_digest(c)

    def test_bad_drop_rate_rejected(self, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        for p in (1.0, 1.5, -0.1):
            with pytest.raises(ParamError):
                merge_dare(tiny_checkpoint, fine_tuned, alpha=0.4, drop_p=p, seed=0)

    @pytest.mark.parametrize("drop_p", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, tiny_checkpoint, merge_setup, alpha, drop_p):
        _, fine_tuned = merge_setup
        with pytest.raises(ParamError, match="alpha must be finite"):
            merge_dare(tiny_checkpoint, fine_tuned, alpha=alpha, drop_p=drop_p, seed=0)

    def test_rescaled_entry_overflowing_float32_raises(self):
        # 3e38 / (1 - 0.5) leaves the float32 range in the dropped task vector;
        # the rounding must raise, not warn.
        base, ft = tiny_archive(np.full(8, -1.5e38)), tiny_archive(np.full(8, 1.5e38))
        with pytest.raises(DataError, match="tensor 'w' overflows float32"):
            merge_dare(base, [ft], alpha=0.1, drop_p=0.5, seed=0)

    def test_tasks_use_independent_masks(self, tiny_checkpoint, merge_setup):
        # Two copies of the same model: if both task vectors shared one mask,
        # doubling the single-model result would reproduce the pair merge.
        _, fine_tuned = merge_setup
        pair = merge_dare(
            tiny_checkpoint, [fine_tuned[0], fine_tuned[0]], alpha=1.0, drop_p=0.5, seed=5
        )
        solo = merge_dare(tiny_checkpoint, [fine_tuned[0]], alpha=2.0, drop_p=0.5, seed=5)
        assert archive_digest(pair) != archive_digest(solo)

    def test_unbiased_over_seeds(self):
        base = tiny_archive(np.zeros(16))
        tau = np.linspace(-2.0, 2.0, 16).astype(np.float32)
        ft = tiny_archive(tau)
        drop_p = 0.7
        runs = np.stack(
            [
                merge_dare(base, [ft], alpha=1.0, drop_p=drop_p, seed=s).tensors["w"]
                for s in range(200)
            ]
        ).astype(np.float64)
        mean = runs.mean(axis=0)
        se = np.abs(tau) * np.sqrt(drop_p / (1 - drop_p) / 200)
        assert np.all(np.abs(mean - tau.astype(np.float64)) <= 3 * se + 1e-12)


class TestApplyMergeWeights:
    def test_uniform_equals_weight_average_at_every_level(
        self, tiny_config, tiny_checkpoint, merge_setup
    ):
        _, fine_tuned = merge_setup
        wa = merge_weight_average(tiny_checkpoint, fine_tuned)
        for level in Granularity:
            plan = plan_decomposition(tiny_config, level)
            weights = same_weights(plan, (0.5, 0.5))
            merged = apply_merge_weights(tiny_checkpoint, fine_tuned, plan, weights)
            for name in merged.tensors:
                np.testing.assert_allclose(
                    merged.tensors[name], wa.tensors[name], atol=1e-6
                )

    def test_constant_alpha_equals_task_arithmetic(
        self, tiny_config, tiny_checkpoint, merge_setup
    ):
        _, fine_tuned = merge_setup
        alpha = 0.7
        ta = merge_task_arithmetic(tiny_checkpoint, fine_tuned, alpha=alpha)
        for level in Granularity:
            plan = plan_decomposition(tiny_config, level)
            weights = same_weights(plan, (alpha, alpha))
            merged = apply_merge_weights(tiny_checkpoint, fine_tuned, plan, weights)
            for name in merged.tensors:
                np.testing.assert_allclose(
                    merged.tensors[name], ta.tensors[name], atol=1e-6
                )

    def test_alpha_overflowing_float32_raises(self, tiny_config, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        with pytest.raises(DataError, match="overflows float32"):
            apply_merge_weights(tiny_checkpoint, fine_tuned, plan, same_weights(plan, (1e300, 0.0)))

    def test_weights_solved_at_another_level(self, tiny_config, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        layer = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(CoeffError, match="solved at level 'layer', plan is 'attn_mlp'"):
            apply_merge_weights(tiny_checkpoint, fine_tuned, plan, same_weights(layer, (0.5, 0.5)))

    def test_checkpoint_of_another_config(self, tiny_config, tiny_checkpoint):
        config = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ff=16, vocab_size=11, max_seq=16)
        wide = random_checkpoint(config, seed=3)
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        with pytest.raises(CompatError, match="does not match the plan's model config"):
            apply_merge_weights(tiny_checkpoint, [wide], plan, same_weights(plan, (1.0,)))

    def test_group_with_the_wrong_coefficient_count(self, tiny_config, tiny_checkpoint, merge_setup):
        _, fine_tuned = merge_setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        with pytest.raises(CoeffError, match="'embed' has 1 coefficients for 2 models"):
            apply_merge_weights(tiny_checkpoint, fine_tuned, plan, same_weights(plan, (1.0,)))

    def test_head_level_slices_get_their_own_alpha(
        self, tiny_config, tiny_checkpoint, merge_setup
    ):
        _, fine_tuned = merge_setup
        ft = fine_tuned[0]
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        per_group = {gid: 0.0 for gid in plan.group_ids()}
        per_group["head.0.0"] = 2.0
        per_group["head.0.1"] = 3.0
        groups = tuple(
            GroupWeights(gid, (per_group[gid],), False, 0.0)
            for gid in plan.group_ids()
        )
        weights = MergeWeights("head_mlp", True, groups)
        merged = apply_merge_weights(tiny_checkpoint, [ft], plan, weights)

        half = tiny_config.d_model // 2
        for name in ("layers.0.attn.q_proj", "layers.0.attn.k_proj", "layers.0.attn.v_proj"):
            b = tiny_checkpoint.tensors[name].astype(np.float64)
            t = ft.tensors[name].astype(np.float64) - b
            np.testing.assert_allclose(
                merged.tensors[name][:half], b[:half] + 2.0 * t[:half], atol=1e-6
            )
            np.testing.assert_allclose(
                merged.tensors[name][half:], b[half:] + 3.0 * t[half:], atol=1e-6
            )
        b = tiny_checkpoint.tensors["layers.0.attn.o_proj"].astype(np.float64)
        t = ft.tensors["layers.0.attn.o_proj"].astype(np.float64) - b
        np.testing.assert_allclose(
            merged.tensors["layers.0.attn.o_proj"][:, :half],
            b[:, :half] + 2.0 * t[:, :half],
            atol=1e-6,
        )
        np.testing.assert_allclose(
            merged.tensors["layers.0.attn.o_proj"][:, half:],
            b[:, half:] + 3.0 * t[:, half:],
            atol=1e-6,
        )
        # Head 0 owns the pre-attention norm of its layer.
        b = tiny_checkpoint.tensors["layers.0.norm1"].astype(np.float64)
        t = ft.tensors["layers.0.norm1"].astype(np.float64) - b
        np.testing.assert_allclose(merged.tensors["layers.0.norm1"], b + 2.0 * t, atol=1e-6)
        # Groups with alpha 0 stay at the base parameters.
        for name in ("embed", "lm_head", "layers.0.mlp.gate_proj", "layers.1.attn.q_proj"):
            np.testing.assert_array_equal(
                merged.tensors[name], tiny_checkpoint.tensors[name]
            )

    def test_attn_mlp_matches_layer_when_alphas_agree(
        self, tiny_config, tiny_checkpoint, merge_setup
    ):
        _, fine_tuned = merge_setup
        layer_alpha = {"embed": (0.2, 0.9), "layer.0": (0.5, 0.1), "layer.1": (0.8, 0.4), "lm_head": (0.3, 0.6)}
        layer_plan = plan_decomposition(tiny_config, Granularity.LAYER)
        layer_weights = MergeWeights(
            "layer",
            True,
            tuple(
                GroupWeights(gid, layer_alpha[gid], False, 0.0)
                for gid in layer_plan.group_ids()
            ),
        )
        split_alpha = {
            "embed": layer_alpha["embed"],
            "attn.0": layer_alpha["layer.0"],
            "mlp.0": layer_alpha["layer.0"],
            "attn.1": layer_alpha["layer.1"],
            "mlp.1": layer_alpha["layer.1"],
            "lm_head": layer_alpha["lm_head"],
        }
        split_plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        split_weights = MergeWeights(
            "attn_mlp",
            True,
            tuple(
                GroupWeights(gid, split_alpha[gid], False, 0.0)
                for gid in split_plan.group_ids()
            ),
        )
        a = apply_merge_weights(tiny_checkpoint, fine_tuned, layer_plan, layer_weights)
        b = apply_merge_weights(tiny_checkpoint, fine_tuned, split_plan, split_weights)
        assert archive_digest(a) == archive_digest(b)


class TestLinearSolveMerge:
    def test_identical_models_return_base(self, tiny_config, tiny_checkpoint):
        datasets = [[[1, 2, 3, 4]], [[5, 6, 7, 8]]]
        merged, weights = merge_linear_solve(
            tiny_checkpoint,
            [tiny_checkpoint, tiny_checkpoint],
            level=Granularity.LAYER,
            datasets=datasets,
            samples_per_task=1,
            seed=0,
        )
        assert merged == tiny_checkpoint
        assert all(g.fallback for g in weights.groups)

    def test_single_model_recovered(self, tiny_checkpoint, merge_setup):
        datasets, fine_tuned = merge_setup
        merged, weights = merge_linear_solve(
            tiny_checkpoint,
            [fine_tuned[0]],
            level="layer",
            datasets=datasets[:1],
            samples_per_task=3,
            seed=0,
        )
        for g in weights.groups:
            assert g.alpha[0] == pytest.approx(1.0, abs=1e-8)
        for name in merged.tensors:
            np.testing.assert_allclose(
                merged.tensors[name], fine_tuned[0].tensors[name], atol=1e-5
            )

    def test_end_to_end_shape_and_determinism(
        self, tiny_config, tiny_checkpoint, merge_setup
    ):
        datasets, fine_tuned = merge_setup
        merged, weights = merge_linear_solve(
            tiny_checkpoint,
            fine_tuned,
            level=Granularity.LAYER,
            datasets=datasets,
            samples_per_task=3,
            seed=0,
        )
        assert weights.level == "layer"
        assert len(weights.groups) == 4
        assert merged.shapes() == tiny_checkpoint.shapes()
        again, _ = merge_linear_solve(
            tiny_checkpoint,
            fine_tuned,
            level=Granularity.LAYER,
            datasets=datasets,
            samples_per_task=3,
            seed=0,
        )
        assert archive_digest(merged) == archive_digest(again)

    def test_dataset_count_must_match_models(self, tiny_checkpoint, merge_setup):
        datasets, fine_tuned = merge_setup
        with pytest.raises(Exception):
            merge_linear_solve(
                tiny_checkpoint,
                fine_tuned,
                level="layer",
                datasets=datasets[:1],
                samples_per_task=3,
                seed=0,
            )

    def test_weights_reflect_normalized_flag(self, tiny_checkpoint, merge_setup):
        datasets, fine_tuned = merge_setup
        _, weights = merge_linear_solve(
            tiny_checkpoint,
            fine_tuned,
            level="attn_mlp",
            datasets=datasets,
            samples_per_task=3,
            seed=0,
            normalized=False,
        )
        assert weights.normalized is False
        assert weights.level == "attn_mlp"


def test_config_for_needs_a_model_config():
    with pytest.raises(ConfigError, match="carries no model_config"):
        config_for(tiny_archive([1.0]))


def _sampled(base, fine_tuned, datasets, seed):
    config = config_for(base)
    plan = plan_decomposition(config, Granularity.LAYER)
    return collect_base_features(bind_weights(base, config), datasets, plan, 2, seed=seed).sampled


# Each library function that seeds a random stream, and what it returns for a seed.
SEEDED = {
    "collect_base_features": _sampled,
    "merge_dare": lambda base, fine_tuned, datasets, seed: archive_digest(
        merge_dare(base, fine_tuned, 0.5, 0.3, seed)
    ),
    "merge_linear_solve": lambda base, fine_tuned, datasets, seed: archive_digest(
        merge_linear_solve(base, fine_tuned, "layer", datasets, samples_per_task=2, seed=seed)[0]
    ),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
@pytest.mark.parametrize("call", SEEDED)
def test_a_seed_not_an_integer_at_least_0_is_a_param_error(tiny_checkpoint, merge_setup, call, seed):
    # NumPy would raise its own ValueError or TypeError for the first two and
    # read True and "3" as the seeds 1 and 3.
    datasets, fine_tuned = merge_setup
    with pytest.raises(ParamError, match=r"seed must be an integer >= 0"):
        SEEDED[call](tiny_checkpoint, fine_tuned, datasets, seed)


@pytest.mark.parametrize("call", SEEDED)
def test_a_numpy_integer_seed_is_that_seed(tiny_checkpoint, merge_setup, call):
    datasets, fine_tuned = merge_setup
    got = SEEDED[call](tiny_checkpoint, fine_tuned, datasets, np.int64(2))
    assert got == SEEDED[call](tiny_checkpoint, fine_tuned, datasets, 2)


# Each library merge and its call with one coefficient replaced.
COEFFICIENTS = {
    "task_arithmetic alpha": lambda base, fine_tuned, value: merge_task_arithmetic(
        base, fine_tuned, alpha=value
    ),
    "dare alpha": lambda base, fine_tuned, value: merge_dare(
        base, fine_tuned, alpha=value, drop_p=0.3, seed=0
    ),
    "dare drop_p": lambda base, fine_tuned, value: merge_dare(
        base, fine_tuned, alpha=0.5, drop_p=value, seed=0
    ),
}


@pytest.mark.parametrize(
    "value, match",
    [
        ("0.5", "must be a real number"),
        (None, "must be a real number"),
        ([1.0], "must be a real number"),
        (True, "must be a real number"),
        (False, "must be a real number"),
        (np.bool_(True), "must be a real number"),
        (10**400, "must be finite"),
        (-(10**400), "must be finite"),
    ],
    ids=["str", "None", "list", "True", "False", "numpy bool", "10**400", "-10**400"],
)
@pytest.mark.parametrize("call", COEFFICIENTS)
def test_a_coefficient_not_a_finite_real_is_a_param_error(
    tiny_checkpoint, merge_setup, call, value, match
):
    # Without the check, Python raises its own TypeError or OverflowError for
    # the strings, None, lists and huge ints, and reads bools as 1 and 0.
    _, fine_tuned = merge_setup
    name = call.split()[1]
    with pytest.raises(ParamError, match=f"{name} {match}"):
        COEFFICIENTS[call](tiny_checkpoint, fine_tuned, value)


@pytest.mark.parametrize("call", COEFFICIENTS)
def test_a_numpy_real_coefficient_is_that_number(tiny_checkpoint, merge_setup, call):
    _, fine_tuned = merge_setup
    for value in (np.float64(0.5), np.int64(0)):
        got = COEFFICIENTS[call](tiny_checkpoint, fine_tuned, value)
        assert archive_digest(got) == archive_digest(
            COEFFICIENTS[call](tiny_checkpoint, fine_tuned, value.item())
        )
    if call != "dare drop_p":
        got = COEFFICIENTS[call](tiny_checkpoint, fine_tuned, np.int64(1))
        assert archive_digest(got) == archive_digest(COEFFICIENTS[call](tiny_checkpoint, fine_tuned, 1))
