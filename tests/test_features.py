"""Feature collection: base-input discipline, group application, deltas."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import submerge.features
from submerge import CoeffError, CompatError, InputError, PlanError, SampleError, TensorArchive, task_vector
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import (
    apply_group,
    collect_base_features,
    compute_delta_outputs,
    group_parameters,
)
from submerge.linearity import metric_sweep
from submerge.model import ModelConfig, bind_weights, forward_pass
from submerge.solver import solve_plan

from conftest import random_checkpoint


def perturbed(checkpoint: TensorArchive, seed: int, scale: float = 0.05) -> TensorArchive:
    rng = np.random.default_rng(seed)
    tensors = {
        name: (arr + scale * rng.normal(size=arr.shape)).astype(np.float32)
        for name, arr in checkpoint.tensors.items()
    }
    return TensorArchive(tensors=tensors, meta=dict(checkpoint.meta))


def traced_model():
    """A 4-layer model, 8 sequences of 32 tokens, and the bytes of their
    float64 trace, each distinct array counted once."""
    config = ModelConfig(d_model=32, n_heads=4, n_layers=4, d_ff=128, vocab_size=64, max_seq=32)
    model = bind_weights(random_checkpoint(config, 7), config)
    rng = np.random.default_rng(0)
    dataset = [rng.integers(0, 64, size=32).tolist() for _ in range(8)]
    trace = forward_pass(config, model.weights, np.array(dataset))
    return model, dataset, sum({id(arr): arr.nbytes for arr in trace.values()}.values())


@pytest.fixture(scope="module")
def setup(tiny_config, tiny_checkpoint):
    rng = np.random.default_rng(0)
    datasets = [
        [rng.integers(0, 11, size=6).tolist() for _ in range(5)],
        [rng.integers(0, 11, size=4).tolist() for _ in range(5)],
    ]
    fine_tuned = [perturbed(tiny_checkpoint, seed=s) for s in (1, 2)]
    model = bind_weights(tiny_checkpoint, tiny_config)
    return model, datasets, fine_tuned


class TestCollect:
    def test_layer_plan_bookkeeping(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, [datasets[0]], plan, sample_n=1, seed=0)
        for gid, tap in [("layer.0", "layer_in.0"), ("layer.1", "layer_in.1")]:
            assert len(store.inputs[(gid, 0)]) == 1
        assert store.inputs[("embed", 0)][0].dtype.kind == "i"
        assert store.inputs[("lm_head", 0)][0].shape[1] == tiny_config.d_model

    def test_sample_count_and_determinism(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        a = collect_base_features(model, datasets, plan, sample_n=3, seed=7)
        b = collect_base_features(model, datasets, plan, sample_n=3, seed=7)
        assert a.sampled == b.sampled
        assert all(len(a.inputs[key]) == 3 for key in a.inputs)
        for key in a.inputs:
            for left, right in zip(a.inputs[key], b.inputs[key]):
                assert np.array_equal(left, right)
        c = collect_base_features(model, datasets, plan, sample_n=3, seed=8)
        assert a.sampled != c.sampled

    def test_each_task_draws_its_own_indices(self, tiny_config, setup):
        # At seed 0 the two tasks' draws from one 5-sequence dataset differ.
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, [datasets[0]] * 2, plan, sample_n=2, seed=0)
        for task in range(2):
            rng = np.random.default_rng([0, task])
            assert store.sampled[task] == sorted(rng.choice(5, 2, replace=False).tolist())
        assert store.sampled[0] != store.sampled[1]

    def test_no_base_outputs_are_held_after_collect(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=0)
        assert store.base_outputs == {}
        assert len(store.inputs) == len(plan.groups) * len(datasets)

    def test_peak_holds_one_trace_at_a_time(self):
        # Three equal tasks may add to the one-task peak only the two extra
        # tasks' stored inputs; a trace kept alive into the next task's
        # forward pass would add a whole float64 trace on top.
        model, dataset, trace_bytes = traced_model()
        plan = plan_decomposition(model.config, Granularity.LAYER)

        def peak_and_inputs(n_tasks):
            tracemalloc.start()
            try:
                store = collect_base_features(model, [dataset] * n_tasks, plan, sample_n=8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = {}
            for (_, task), rows in store.inputs.items():
                for arr in rows:
                    owner = arr.base if arr.base is not None else arr
                    arrays[id(owner)] = (task, owner.nbytes)
            per_task = sum(nbytes for task, nbytes in arrays.values() if task == 0)
            return peak, per_task

        one_peak, one_task_inputs = peak_and_inputs(1)
        three_peak, _ = peak_and_inputs(3)
        slack = 64 * 1024
        assert slack < trace_bytes / 4
        assert three_peak - one_peak <= 2 * one_task_inputs + slack

    def test_peak_holds_no_full_trace(self):
        # Each tap the plan reads is rounded to f32 as it is traced and every
        # other tap is dropped as soon as the next layer no longer reads it, so
        # the peak above the stored inputs stays well below one batch's float64
        # trace; holding the whole trace, as `forward_pass` does, would add all of it.
        model, dataset, trace_bytes = traced_model()
        plan = plan_decomposition(model.config, Granularity.LAYER)
        collect_base_features(model, [dataset], plan, sample_n=8)
        tracemalloc.start()
        try:
            store = collect_base_features(model, [dataset], plan, sample_n=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = {id(arr.base): arr.base.nbytes for rows in store.inputs.values() for arr in rows}
        assert peak - sum(stored.values()) < trace_bytes / 2

    def test_model_group_rows_hold_no_full_trace(self):
        # The model group reads only the logits of its forward pass.
        model, dataset, trace_bytes = traced_model()
        plan = plan_decomposition(model.config, Granularity.MODEL)
        store = collect_base_features(model, [dataset], plan, sample_n=8)
        group = plan.groups[0]
        weights = group_parameters(group, model.weights)
        store.rows(group, 0, weights)
        tracemalloc.start()
        try:
            rows = store.rows(group, 0, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes < trace_bytes / 2

    @pytest.mark.parametrize(
        "traced, planned, level",
        [
            ((2, 2), (4, 2), Granularity.HEAD_MLP),
            ((4, 2), (4, 3), Granularity.LAYER),
            ((4, 2), (2, 2), Granularity.HEAD_MLP),
        ],
        ids=["more_heads", "more_layers", "fewer_heads"],
    )
    def test_plan_for_another_model_config(self, traced, planned, level):
        # Each once failed later (a reshape error, a KeyError) or mislabelled head groups.
        def config(n_heads, n_layers):
            return ModelConfig(32, n_heads, n_layers, d_ff=64, vocab_size=64, max_seq=16)

        model = bind_weights(random_checkpoint(config(*traced), 3), config(*traced))
        plan = plan_decomposition(config(*planned), level)
        with pytest.raises(PlanError, match="another model config"):
            collect_base_features(model, [[[1, 2, 3, 4], [5, 6, 7]]], plan, sample_n=2)

    def test_too_small_dataset(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(SampleError):
            collect_base_features(model, datasets, plan, sample_n=9, seed=0)

    @pytest.mark.parametrize("sample_n", [0, -1])
    def test_non_positive_sample_count(self, tiny_config, setup, sample_n):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(SampleError, match=">= 1"):
            collect_base_features(model, datasets, plan, sample_n=sample_n, seed=0)

    def test_row_counts_flatten_tokens(self, tiny_config, setup):
        model, _, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        dataset = [[1, 2, 3], [4, 5, 6, 7, 8]]
        store = collect_base_features(model, [dataset], plan, sample_n=2, seed=0)
        deltas = compute_delta_outputs(
            store, random_checkpoint(tiny_config, 42), fine_tuned[:1], plan
        )
        assert deltas.grouped("layer.0")[0].shape[1] == 8


class TestApplyGroup:
    @pytest.mark.parametrize("level", list(Granularity))
    def test_base_params_reproduce_base_outputs(self, tiny_config, setup, level):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=3)
        for group in plan.groups:
            for task in range(2):
                outs = apply_group(
                    group, model.weights, store.inputs[(group.id, task)], tiny_config
                )
                assert np.array_equal(outs, store.base_rows(group, task)), (group.id, task)

    @pytest.mark.parametrize("level", list(Granularity))
    def test_ragged_inputs_match_per_sequence_evaluation(self, tiny_config, setup, level):
        model, _, fine_tuned = setup
        lengths = [5, 3, 7, 3, 1, 5, 7]
        dataset = [[(3 * i + j) % 11 for j in range(n)] for i, n in enumerate(lengths)]
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, [dataset], plan, sample_n=len(dataset), seed=0)
        params = {k: v.astype(np.float64) for k, v in fine_tuned[0].tensors.items()}
        for group in plan.groups:
            inputs = store.inputs[(group.id, 0)]
            assert [len(arr) for arr in inputs] == lengths
            if group.input_tap != "tokens":
                for arr, tokens in zip(inputs, dataset):
                    trace = forward_pass(tiny_config, model.weights, np.array(tokens))
                    assert np.array_equal(arr, trace[group.input_tap].astype(np.float32))
            batched = apply_group(group, params, inputs, tiny_config)
            assert batched.dtype == np.float32
            assert len(batched) == sum(lengths)
            expected = np.concatenate(
                [apply_group(group, params, [arr], tiny_config) for arr in inputs]
            )
            assert batched.shape == expected.shape
            assert np.array_equal(batched, expected), group.id

    @pytest.mark.parametrize("level", list(Granularity))
    def test_whole_tensors_match_group_weights(self, tiny_config, setup, level):
        # apply_group takes whole tensors; the store evaluates the group's own
        # weights. Both run the same block on the same slices.
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=2)
        whole = fine_tuned[0].tensors
        for group in plan.groups:
            weights = group_parameters(group, whole)
            for task in range(2):
                outs = apply_group(group, whole, store.inputs[(group.id, task)], tiny_config)
                assert np.array_equal(outs, store.rows(group, task, weights)), (group.id, task)

    def test_head_outputs_sum_to_attention_branch(self, tiny_config, setup):
        model, datasets, _ = setup
        heads = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        attn = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store_h = collect_base_features(model, datasets, heads, sample_n=2, seed=3)
        store_a = collect_base_features(model, datasets, attn, sample_n=2, seed=3)
        for layer in range(tiny_config.n_layers):
            for task in range(2):
                total = None
                for h in range(tiny_config.n_heads):
                    outs = store_h.base_rows(heads.group(f"head.{layer}.{h}"), task)
                    total = outs if total is None else total + outs
                branch = store_a.base_rows(attn.group(f"attn.{layer}"), task)
                np.testing.assert_allclose(total, branch, atol=1e-5)

    def test_zero_down_proj_zeroes_mlp_branch(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=3)
        group = plan.group("mlp.0")
        weights = group_parameters(group, model.weights)
        weights["layers.0.mlp.down_proj"] = np.zeros_like(weights["layers.0.mlp.down_proj"])
        outs = store.rows(group, 0, weights)
        assert outs.shape == (sum(len(a) for a in store.inputs[("mlp.0", 0)]), tiny_config.d_model)
        assert not outs.any()


    def test_inputs_of_the_wrong_width(self, tiny_config, setup):
        model, _, _ = setup
        group = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("mlp.0")
        with pytest.raises(InputError, match=r"expects \[seq x 8\] inputs, got \(3, 5\)"):
            apply_group(group, model.weights, [np.zeros((3, 5))], tiny_config)

    def test_no_inputs(self, tiny_config, setup):
        model, _, _ = setup
        group = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("mlp.0")
        with pytest.raises(InputError, match="needs at least one input"):
            apply_group(group, model.weights, [], tiny_config)

    def test_unknown_output_kind(self, tiny_config, setup):
        model, _, _ = setup
        mlp = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("mlp.0")
        group = dataclasses.replace(mlp, output_kind="bogus")
        with pytest.raises(InputError, match="unknown output kind 'bogus'"):
            apply_group(group, model.weights, [np.zeros((3, 8))], tiny_config)


class TestDeltas:
    def test_identical_model_gives_zero_deltas(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, [tiny_checkpoint], plan)
        for group in plan.groups:
            for block in deltas.grouped(group.id):
                assert block.shape[0] == 1
                assert not block.any()

    def test_shape_mismatch_names_the_tensor(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        tensors = dict(fine_tuned[1].tensors, **{"layers.0.attn.q_proj": np.ones((4, 8), dtype=np.float32)})
        odd = TensorArchive(tensors=tensors, meta=dict(tiny_checkpoint.meta))
        with pytest.raises(CompatError, match=r"archive 1: tensor 'layers\.0\.attn\.q_proj' shapes differ"):
            compute_delta_outputs(store, tiny_checkpoint, [fine_tuned[0], odd], plan)

    def test_plan_must_be_the_stores(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        store = collect_base_features(
            model, datasets, plan_decomposition(tiny_config, Granularity.ATTN_MLP), sample_n=2
        )
        layer_plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(PlanError, match="plan"):
            compute_delta_outputs(store, tiny_checkpoint, fine_tuned, layer_plan)
        same = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        assert compute_delta_outputs(store, tiny_checkpoint, fine_tuned, same).n_models == 2

    def test_no_fine_tuned_model(self, tiny_config, tiny_checkpoint, setup):
        # Without the check, solve_plan and metric_sweep would fail later on
        # an empty np.stack.
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        with pytest.raises(InputError, match="at least one fine-tuned model"):
            compute_delta_outputs(store, tiny_checkpoint, [], plan)

    def test_base_must_be_the_traced_model(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        for other in (
            perturbed(tiny_checkpoint, seed=9),
            TensorArchive(
                tensors={k: v for k, v in tiny_checkpoint.tensors.items() if k != "lm_head"},
                meta=dict(tiny_checkpoint.meta),
            ),
        ):
            with pytest.raises(CompatError, match="traced base"):
                compute_delta_outputs(store, other, fine_tuned, plan)

    def test_traced_base_check_compares_values(self, tiny_config, tiny_checkpoint, setup, monkeypatch):
        # The archive last found equal is not compared again; any other archive is.
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        equal = TensorArchive(dict(tiny_checkpoint.tensors), tiny_checkpoint.meta)
        name = "layers.1.mlp.up_proj"
        changed = tiny_checkpoint.tensors[name].copy()
        changed[2, 3] += 1.0
        one_off = TensorArchive({**tiny_checkpoint.tensors, name: changed}, tiny_checkpoint.meta)
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        store.require_traced_base(tiny_checkpoint)
        once = len(compared)
        assert once == len(store.weights)
        store.require_traced_base(tiny_checkpoint)
        assert len(compared) == once
        store.require_traced_base(equal)
        assert len(compared) == 2 * once
        for _ in range(2):
            with pytest.raises(CompatError, match="traced base"):
                store.require_traced_base(one_off)
        store.require_traced_base(equal)
        store.require_traced_base(tiny_checkpoint)

    def test_widths_and_row_alignment(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        for group in plan.groups:
            width = tiny_config.vocab_size if group.id == "lm_head" else tiny_config.d_model
            for task, block in enumerate(deltas.grouped(group.id)):
                rows = sum(len(arr) for arr in store.inputs[(group.id, task)])
                assert block.shape == (2, rows, width)

    @pytest.mark.parametrize("level", list(Granularity))
    def test_ragged_deltas_match_direct_evaluation(self, tiny_config, tiny_checkpoint, setup, level):
        model, _, fine_tuned = setup
        datasets = [
            [[(3 * i + j) % 11 for j in range(n)] for i, n in enumerate([5, 3, 7, 3])],
            [[(5 * i + j) % 11 for j in range(n)] for i, n in enumerate([2, 6, 2])],
        ]
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=0)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        # Reverse order so every group is loaded after a different one was held.
        for group in reversed(plan.groups):
            for t, archive in enumerate(fine_tuned):
                weights = group_parameters(group, tiny_checkpoint.tensors, source=archive.tensors)
                for task in range(2):
                    expected = store.rows(group, task, weights) - store.base_rows(group, task)
                    got = deltas.grouped(group.id)[task][t]
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected), (group.id, task, t)

    def test_store_holds_one_group_after_solve_and_sweep(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        assert not deltas.deltas
        def assert_one_group():
            assert len(deltas.deltas) == store.n_tasks
            assert len({key[0] for key in deltas.deltas}) == 1
            assert all(block.shape[0] == len(fine_tuned) for block in deltas.deltas.values())
            assert set(store.base_outputs) == {(deltas.held, t) for t in range(store.n_tasks)}

        solve_plan(plan, deltas)
        assert_one_group()
        taus = [task_vector(ft, tiny_checkpoint) for ft in fine_tuned]
        for group in plan.groups:
            metric_sweep(store, deltas, tiny_checkpoint, taus, group, grid=[[0.5, 0.5]])
            assert_one_group()
            assert deltas.held == group.id

    def test_group_parameters_built_once_per_group_and_model(
        self, tiny_config, tiny_checkpoint, setup, monkeypatch
    ):
        # Head groups above 0 read their deltas off the layer's attention
        # contexts, built from one weight set per (layer, model); every other
        # group builds its parameters once per (group, model). Calls without a
        # source build base weights for the base rows and are not counted.
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        calls: dict[tuple[str, int], int] = {}
        layer_calls: dict[tuple[int, int], int] = {}
        original = submerge.features.group_parameters
        original_weights = submerge.features._attention_weights

        def model_index(source):
            return next(t for t, ft in enumerate(fine_tuned) if ft.tensors is source)

        def counting(group, base, source=None, **kwargs):
            if source is not None:
                key = (group.id, model_index(source))
                calls[key] = calls.get(key, 0) + 1
            return original(group, base, source=source, **kwargs)

        def counting_weights(layer, base, source):
            key = (layer, model_index(source))
            layer_calls[key] = layer_calls.get(key, 0) + 1
            return original_weights(layer, base, source)

        monkeypatch.setattr(submerge.features, "group_parameters", counting)
        monkeypatch.setattr(submerge.features, "_attention_weights", counting_weights)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        solve_plan(plan, deltas)
        alone = [g for g in plan.groups if g.output_kind != "head_branch" or g.head_index == 0]
        assert len(alone) < len(plan.groups)
        assert set(calls) == {(g.id, t) for g in alone for t in range(len(fine_tuned))}
        assert set(calls.values()) == {1}
        layers = range(tiny_config.n_layers)
        assert set(layer_calls) == {(layer, t) for layer in layers for t in range(len(fine_tuned))}
        assert set(layer_calls.values()) == {1}
        # Reading the held group again computes nothing.
        pooled = deltas.pooled(plan.groups[-1].id)
        blocks = deltas.grouped(plan.groups[-1].id)
        assert set(calls.values()) == {1}
        assert np.array_equal(pooled, np.concatenate(blocks, axis=1))
        assert blocks[1] is deltas.grouped(plan.groups[-1].id)[1]

    def test_head_groups_out_of_plan_order_match_plan_order(self):
        config = ModelConfig(d_model=16, n_heads=4, n_layers=2, d_ff=32, vocab_size=11, max_seq=16)
        base = random_checkpoint(config, 3)
        fine_tuned = [perturbed(base, seed=s) for s in (4, 5, 6)]
        datasets = [
            [[(3 * i + j) % 11 for j in range(n)] for i, n in enumerate([5, 3, 7, 3])],
            [[(5 * i + j) % 11 for j in range(n)] for i, n in enumerate([2, 6, 2])],
        ]
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        store = collect_base_features(bind_weights(base, config), datasets, plan, sample_n=3)
        in_order = compute_delta_outputs(store, base, fine_tuned, plan)
        expected = {g.id: [block.copy() for block in in_order.grouped(g.id)] for g in plan.groups}
        # Per-head evaluation agrees up to float64 rounding in the o_proj products.
        for group in plan.groups:
            for t, archive in enumerate(fine_tuned):
                params = group_parameters(group, base.tensors, source=archive.tensors)
                for task in range(2):
                    direct = store.delta_rows(group, task, params)
                    np.testing.assert_allclose(expected[group.id][task][t], direct, rtol=0, atol=1e-6)
        order = [
            "head.1.2", "head.0.3", "head.1.1", "head.1.3", "mlp.0", "head.1.2",
            "head.0.0", "head.0.2", "lm_head", "head.1.0", "head.0.1", "head.1.3",
        ]
        shuffled = compute_delta_outputs(store, base, fine_tuned, plan)
        for group_id in order:
            for got, want in zip(shuffled.grouped(group_id), expected[group_id]):
                assert np.array_equal(got, want), group_id

    def test_no_contexts_held_with_a_non_head_group(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        for group in plan.groups:
            deltas.grouped(group.id)
            # Base rows are held for the held group only, and a head group
            # above 0 reads none.
            held = {key[0] for key in store.base_outputs}
            assert held == (set() if group.head_index else {group.id}), group.id
            if group.output_kind != "head_branch":
                assert deltas.contexts == [] and deltas.context_layer is None, group.id
            elif group.head_index > 0:
                assert deltas.context_layer == group.layer
                assert len(deltas.contexts) == len(fine_tuned) + 1
                for o_proj, contexts in deltas.contexts:
                    assert o_proj.shape == (tiny_config.d_model, tiny_config.d_model)
                    rows = [sum(map(len, store.inputs[(group.id, t)])) for t in range(2)]
                    assert [c.shape for c in contexts] == [(n, tiny_config.d_model) for n in rows]
                    assert all(c.dtype == np.float64 for c in contexts)
        assert deltas.held == "lm_head" and deltas.contexts == []

    def test_embed_delta_is_exact_row_gather(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        diff = (
            fine_tuned[0].tensors["embed"].astype(np.float64)
            - tiny_checkpoint.tensors["embed"].astype(np.float64)
        )
        tokens = np.concatenate(store.inputs[("embed", 0)])
        np.testing.assert_allclose(
            deltas.grouped("embed")[0][0], diff[tokens].astype(np.float32), atol=1e-7
        )


class TestGroupParameters:
    @pytest.mark.parametrize("level", list(Granularity))
    def test_exactly_the_owned_slices_and_the_read_only_params(
        self, tiny_config, tiny_checkpoint, setup, level
    ):
        _, _, fine_tuned = setup
        base = tiny_checkpoint.tensors
        tau = task_vector(fine_tuned[0], tiny_checkpoint)
        for group in plan_decomposition(tiny_config, level).groups:
            for weights in (
                group_parameters(group, base),
                group_parameters(group, base, source=fine_tuned[1].tensors),
                group_parameters(group, base, taus=[tau.tensors], coeffs=[0.5]),
            ):
                assert set(weights) == set(group.params) | set(group.extra_params), group.id
                assert all(w.dtype == np.float64 for w in weights.values())
                for name, index in group.params.items():
                    assert weights[name].shape == base[name][index].shape
                for name in group.extra_params:
                    np.testing.assert_array_equal(weights[name], base[name].astype(np.float64))

    def test_bad_arguments(self, tiny_config, tiny_checkpoint, setup):
        _, _, fine_tuned = setup
        group = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("mlp.0")
        base, taus = tiny_checkpoint.tensors, [ft.tensors for ft in fine_tuned]
        with pytest.raises(CoeffError, match="1 coefficients for 2 task vectors"):
            group_parameters(group, base, taus=taus, coeffs=[0.5])
        with pytest.raises(InputError, match="not both"):
            group_parameters(group, base, source=taus[0], taus=taus[1:], coeffs=[0.5])


class TestInterpolation:
    @staticmethod
    def steps(store, group, base, tau, coeffs, task):
        return [
            store.rows(group, task, group_parameters(group, base.tensors, taus=[tau.tensors], coeffs=[c]))
            for c in coeffs
        ]

    def test_endpoints(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=5)
        tau = task_vector(fine_tuned[0], tiny_checkpoint)
        group = plan.group("attn.1")
        lo, hi = self.steps(store, group, tiny_checkpoint, tau, [0.0, 1.0], task=0)
        np.testing.assert_array_equal(lo, store.base_rows(group, 0))
        # c=1 reproduces the fine-tuned branch up to f32 rounding of tau
        ft_weights = group_parameters(group, tiny_checkpoint.tensors, source=fine_tuned[0].tensors)
        np.testing.assert_allclose(hi, store.rows(group, 0, ft_weights), atol=1e-5)

    def test_base_rows_are_the_zero_step(self, tiny_config, tiny_checkpoint, setup):
        # non_linearity_score takes its k = 0 step (base + 0 * tau) from the base rows.
        model, datasets, fine_tuned = setup
        tau = task_vector(fine_tuned[0], tiny_checkpoint)
        kinds = set()
        for level in Granularity:
            plan = plan_decomposition(tiny_config, level)
            store = collect_base_features(model, datasets, plan, sample_n=2, seed=5)
            for group in plan.groups:
                kinds.add(group.output_kind)
                for task in range(2):
                    weights = group_parameters(group, store.weights, taus=[tau.tensors], coeffs=[0.0])
                    zero_step = store.rows(group, task, weights)
                    assert np.array_equal(zero_step, store.base_rows(group, task)), (group.id, task)
        assert kinds == {
            "model_logits", "embed_rows", "logits", "layer_out",
            "attn_branch", "mlp_branch", "head_branch",
        }

    def test_linear_group_midpoint(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=5)
        tau = task_vector(fine_tuned[1], tiny_checkpoint)
        group = plan.group("embed")
        lo, mid, hi = self.steps(store, group, tiny_checkpoint, tau, [0.0, 0.5, 1.0], task=1)
        np.testing.assert_allclose(mid, (lo.astype(np.float64) + hi) / 2, atol=1e-6)

    def test_non_owned_params_stay_at_base(self, tiny_config, tiny_checkpoint, setup):
        # A head group above index 0 reads norm1 whole but must not perturb it.
        _, _, fine_tuned = setup
        base = tiny_checkpoint.tensors
        group = plan_decomposition(tiny_config, Granularity.HEAD_MLP).group("head.0.1")
        tau = task_vector(fine_tuned[0], tiny_checkpoint)
        weights = group_parameters(group, base, taus=[tau.tensors], coeffs=[1.0])
        d, hd = tiny_config.d_model, tiny_config.head_dim
        assert weights["layers.0.attn.o_proj"].shape == (d, hd)
        assert weights["layers.0.attn.q_proj"].shape == (hd, d)
        np.testing.assert_array_equal(weights["layers.0.norm1"], base["layers.0.norm1"].astype(np.float64))
        q_base = base["layers.0.attn.q_proj"][hd : 2 * hd].astype(np.float64)
        q_tau = tau.tensors["layers.0.attn.q_proj"][hd : 2 * hd].astype(np.float64)
        np.testing.assert_array_equal(weights["layers.0.attn.q_proj"], q_base + q_tau)
        assert not np.array_equal(weights["layers.0.attn.q_proj"], q_base)
        exact = group_parameters(group, base, source=fine_tuned[0].tensors)
        np.testing.assert_array_equal(
            exact["layers.0.attn.o_proj"],
            fine_tuned[0].tensors["layers.0.attn.o_proj"][:, hd : 2 * hd].astype(np.float64),
        )
