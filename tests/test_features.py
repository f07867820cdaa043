"""Feature collection: base-input discipline, group application, deltas."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import submerge.features
import submerge.model
from submerge import CoeffError, CompatError, InputError, PlanError, SampleError, TensorArchive, task_vector
from submerge.decompose import Granularity, context_slices, plan_decomposition
from submerge.features import (
    apply_group,
    collect_base_features,
    compute_delta_outputs,
    group_parameters,
)
from submerge.linearity import metric_sweep, non_linearity_score
from submerge.merge import merge_linear_solve
from submerge.model import ModelConfig, bind_weights, eval_cross_entropy, forward_pass, length_buckets
from submerge.solver import compute_gram, solve_plan

from conftest import bad_scalars, random_checkpoint


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


def stored_bytes(store) -> int:
    """The bytes of the store's held inputs; the views of one array count it once."""
    owners = {}
    for rows in store.inputs.values():
        for arr in rows:
            owner = arr if arr.base is None else arr.base
            owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def three_task_deltas(level: Granularity):
    """A 2-layer, 4-head model, three fine-tuned models and three data tasks of
    mixed lengths: the plan at `level` and its feature and delta stores."""
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
    return plan, store, compute_delta_outputs(store, base, fine_tuned, plan)


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
        # Every (group, task) pair, each later task traced on its first read.
        for group in plan.groups:
            for task in range(len(datasets)):
                left, right = a.group_inputs(group, task), b.group_inputs(group, task)
                assert len(left) == len(right) == 3
                assert all(np.array_equal(x, y) for x, y in zip(left, right, strict=True))
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
        # Only the first data task is traced; a later one is traced when first read.
        assert set(store.inputs) == {(group.id, 0) for group in plan.groups}

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

    def test_merge_peak_holds_one_tasks_inputs(self):
        # The solve traces a data task when it first reads it and drops it once
        # done, so three equal tasks add to the one-task peak less than one
        # task's stored inputs; holding every task's, as a whole trace up front
        # does, would add two tasks' inputs.
        config = ModelConfig(d_model=32, n_heads=4, n_layers=4, d_ff=64, vocab_size=16, max_seq=32)
        base = random_checkpoint(config, 7)
        models = [perturbed(base, seed=s) for s in (1, 2, 3)]
        rng = np.random.default_rng(0)
        dataset = [rng.integers(0, 16, size=32).tolist() for _ in range(16)]
        plan = plan_decomposition(config, Granularity.LAYER)
        store = collect_base_features(bind_weights(base, config), [dataset], plan, sample_n=16)
        one_task_inputs = stored_bytes(store)

        def peak(n_tasks):
            tracemalloc.start()
            try:
                merge_linear_solve(base, models[:n_tasks], "layer", [dataset] * n_tasks, 16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) - peak(1) < one_task_inputs

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
        assert peak - stored_bytes(store) < trace_bytes / 2

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

    def test_base_pass_runs_only_for_taps_besides_the_tokens(self, tiny_config, setup, monkeypatch):
        # The model group reads only the tokens, so its trace runs no forward pass; every
        # other level runs one per length bucket, and each task's sequences share a length.
        # The first task is traced by the collect, every other one on its first read.
        model, datasets, _ = setup
        calls = []

        def counted(*args):
            calls.append(args)
            return submerge.model.forward_taps(*args)

        monkeypatch.setattr(submerge.features, "forward_taps", counted)
        stores = {}
        for level in Granularity:
            calls.clear()
            plan = plan_decomposition(tiny_config, level)
            stores[level] = collect_base_features(model, datasets, plan, sample_n=3, seed=1)
            passes = 0 if level is Granularity.MODEL else 1
            assert len(calls) == passes, level
            for task in range(len(datasets)):
                for group in plan.groups:
                    stores[level].group_inputs(group, task)
                    assert len(calls) == passes * (task + 1), (level, group.id, task)
        for task in range(len(datasets)):
            tokens = stores[Granularity.MODEL].inputs[("model", task)]
            embed = stores[Granularity.LAYER].inputs[("embed", task)]
            assert [a.dtype for a in tokens] == [np.dtype(np.int64)] * 3
            assert all(np.array_equal(a, b) for a, b in zip(tokens, embed, strict=True))

    def test_too_small_dataset(self, tiny_config, setup):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(SampleError):
            collect_base_features(model, datasets, plan, sample_n=9, seed=0)

    @pytest.mark.parametrize(
        "last, error, match",
        [([[1, 2, 99]] * 5, InputError, "task 2 sequence"), ([[1, 2]] * 2, SampleError, "task 2 has 2")],
        ids=["bad_token", "too_short"],
    )
    def test_the_last_task_is_checked_before_any_base_pass(
        self, tiny_config, setup, monkeypatch, last, error, match
    ):
        # Only the first task is traced by the collect, after every task is sampled
        # and checked, so the last task's error comes before any forward pass.
        model, datasets, _ = setup
        calls = []
        monkeypatch.setattr(submerge.features, "forward_taps", lambda *args: calls.append(args))
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(error, match=match):
            collect_base_features(model, [*datasets, last], plan, sample_n=3, seed=0)
        assert calls == []

    def test_no_dataset(self, tiny_config, setup):
        # A store with no data task would have no inputs to tell a released group by.
        model, _, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(SampleError, match="at least one dataset"):
            collect_base_features(model, [], plan, sample_n=1)

    # Python counts a bool as an int; neither a bool nor a float is a sample count.
    @pytest.mark.parametrize(
        "sample_n",
        [
            0, -1, 2.0, True,
            *(pytest.param(case.values[1], id=case.id)
              for case in bad_scalars(["sample_n"], "integer", "minimum")),
        ],
    )
    def test_non_positive_sample_count(self, tiny_config, setup, sample_n):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        with pytest.raises(SampleError, match="sample count must be an integer >= 1"):
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
                outs = apply_group(group, model.weights, store.group_inputs(group, task), tiny_config)
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
                outs = apply_group(group, whole, store.group_inputs(group, task), tiny_config)
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

    # vocab 11, max_seq 16: a cast would read -1 as the last row and 1.7 as token 1.
    @pytest.mark.parametrize(
        "tokens",
        [np.array([3, -1]), np.array([3.0, 1.7]), np.zeros(17, dtype=np.int64), np.array([3, 11])],
        ids=["negative_id", "float_id", "longer_than_max_seq", "id_past_vocab"],
    )
    @pytest.mark.parametrize("level, group_id", [("layer", "embed"), ("model", "model")])
    def test_bad_tokens(self, tiny_config, setup, level, group_id, tokens):
        model, _, _ = setup
        group = plan_decomposition(tiny_config, Granularity(level)).group(group_id)
        with pytest.raises(InputError):
            apply_group(group, model.weights, [np.array([1, 2]), tokens], tiny_config)

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
        # `bind_weights` bound the traced archive's own arrays, so that archive
        # passes by identity; any other archive is compared by value on every call.
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
        for _ in range(2):
            store.require_traced_base(tiny_checkpoint)
        assert compared == []
        for calls in (1, 2):
            store.require_traced_base(equal)
            assert len(compared) == calls * len(store.weights)
        for _ in range(2):
            with pytest.raises(CompatError, match="traced base"):
                store.require_traced_base(one_off)
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

    def test_base_rows_live_until_release_after_solve_and_sweep(
        self, tiny_config, tiny_checkpoint, setup
    ):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        first = plan.groups[0].id
        assert deltas.block(first, 1).shape[0] == len(fine_tuned)
        assert deltas.deltas == {} and not store.base_outputs
        solve_plan(plan, deltas)
        # The solve read every group's blocks task by task and kept none, held
        # no base rows, and dropped each task's inputs and contexts once done with it.
        assert deltas.deltas == {}
        assert not store.inputs and not store.base_outputs and not deltas.contexts
        blocks = deltas.grouped(first)
        # `grouped`, like every delta reader, keeps no block and no base rows.
        assert [block.shape[0] for block in blocks] == [len(fine_tuned)] * store.n_tasks
        assert deltas.deltas == {} and not store.base_outputs
        taus = [task_vector(ft, tiny_checkpoint) for ft in fine_tuned]
        held = {}
        for group in plan.groups:
            metric_sweep(store, deltas, tiny_checkpoint, taus, group, grid=[[0.5, 0.5]])
            # The sweep held the group's blocks itself: the store holds no block
            # after it. It stored the group's base rows, and no read of this
            # group dropped those of a group swept before.
            assert deltas.deltas == {}
            held.update(((group.id, t), store.base_outputs[(group.id, t)]) for t in range(2))
            assert store.base_outputs.keys() == held.keys()
            assert all(store.base_outputs[key] is rows for key, rows in held.items())
        # Base rows go with their task or their group, and only then.
        deltas.release_task(0)
        held = {key: rows for key, rows in held.items() if key[1] != 0}
        assert store.base_outputs == held
        store.release(plan.group(first))
        held = {key: rows for key, rows in held.items() if key[0] != first}
        assert held and store.base_outputs == held

    @pytest.mark.parametrize("level", [Granularity.ATTN_MLP, Granularity.HEAD_MLP])
    def test_sweep_computes_each_task_block_once(
        self, tiny_config, tiny_checkpoint, setup, monkeypatch, level
    ):
        # One sweep over a grid of three alphas reads each of the group's
        # (group, task) blocks once, for every alpha, and leaves none in the store.
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        taus = [task_vector(ft, tiny_checkpoint) for ft in fine_tuned]
        block, computed = submerge.features.DeltaStore._block, []

        def counted(self, group, task):
            computed.append((group.id, task))
            return block(self, group, task)

        monkeypatch.setattr(submerge.features.DeltaStore, "_block", counted)
        grid = [[0.5, 0.5], [0.2, 0.9], [1.0, 0.3]]
        for group in plan.groups:
            computed.clear()
            records = metric_sweep(store, deltas, tiny_checkpoint, taus, group, grid=grid)
            assert computed == [(group.id, task) for task in range(store.n_tasks)]
            assert len(records) == 2 * len(grid) + 2
            assert deltas.deltas == {}

    def test_group_parameters_built_once_per_group_and_model(
        self, tiny_config, tiny_checkpoint, setup, monkeypatch
    ):
        # Head groups above 0 read their deltas off the (layer, task) attention
        # contexts, built from one weight set per (layer, source, task), the
        # base and each model: the q/k/v rows and o_proj columns of heads 1..H-1.
        # Every other group builds its parameters once per (group, model, task)
        # block. Calls without a source build base weights for the base rows
        # and are not counted.
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        calls: dict[tuple[str, int, int | None], int] = {}
        layer_calls: dict[tuple[int, int, int], int] = {}
        original = submerge.features.group_parameters
        block = submerge.features.DeltaStore.block
        reading = {}

        # Source 0 is the traced base, source t + 1 fine-tuned model t.
        sources = [store.weights] + [ft.tensors for ft in fine_tuned]

        def source_index(source):
            return next(t for t, s in enumerate(sources) if s is source)

        def counting(group, base, source=None, **kwargs):
            if source is not None and group.head_index:
                shared, _ = context_slices(tiny_config, group.layer, group.head_index)
                assert group.params == shared, group.id
                key = (group.layer, source_index(source), reading["task"])
                layer_calls[key] = layer_calls.get(key, 0) + 1
            elif source is not None:
                key = (group.id, source_index(source), reading["task"])
                calls[key] = calls.get(key, 0) + 1
            return original(group, base, source=source, **kwargs)

        def task_block(self, group_id, task):
            reading["task"] = task
            return block(self, group_id, task)

        monkeypatch.setattr(submerge.features, "group_parameters", counting)
        monkeypatch.setattr(submerge.features.DeltaStore, "block", task_block)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        solve_plan(plan, deltas)
        alone = [g for g in plan.groups if g.output_kind != "head_branch" or g.head_index == 0]
        assert len(alone) < len(plan.groups)
        models, tasks = range(1, len(sources)), range(store.n_tasks)
        assert set(calls) == {(g.id, m, t) for g in alone for m in models for t in tasks}
        assert set(calls.values()) == {1}
        layers = range(tiny_config.n_layers)
        assert set(layer_calls) == {
            (layer, s, t) for layer in layers for s in range(len(sources)) for t in tasks
        }
        assert set(layer_calls.values()) == {1}
        # No reader keeps a block, so each `grouped` call computes the last
        # group again, one build per (model, task), to the same bytes in new arrays.
        monkeypatch.setattr(submerge.features.DeltaStore, "block", block)
        # `grouped` reads through `_block`, not `block`.
        reading["task"] = None
        last = plan.groups[-1].id
        assert last in {g.id for g in alone}
        once = {(last, m, None): store.n_tasks for m in models}
        read = []
        for _ in range(2):
            calls.clear()
            read.append(deltas.grouped(last))
            assert calls == once
        first, again = read
        assert len(first) == len(again) == store.n_tasks
        for a, b in zip(first, again):
            assert not np.shares_memory(a, b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert deltas.deltas == {}

    def test_blocks_refuse_a_released_or_foreign_group_at_the_call(
        self, tiny_config, tiny_checkpoint, setup, monkeypatch
    ):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        released, other = plan.group("head.0.1"), plan.group("head.1.1")
        store.release(released)
        held = deltas.grouped(other.id)
        contexts = dict(deltas.contexts)
        assert list(contexts) == [(1, t) for t in range(store.n_tasks)]
        evaluations = []
        monkeypatch.setattr(submerge.features, "_rows_in_order", lambda *a: evaluations.append(a))
        for group_id, match in (("head.0.1", "was released"), ("attn.0", "no group 'attn.0'")):
            # The check comes first: nothing is evaluated and no context is dropped.
            with pytest.raises(PlanError, match=match):
                deltas.grouped(group_id)
            with pytest.raises(PlanError, match=match):
                deltas.block(group_id, 0)
        assert evaluations == []
        assert deltas.contexts == contexts
        monkeypatch.undo()
        assert [a.tobytes() for a in deltas.grouped(other.id)] == [a.tobytes() for a in held]

    @pytest.mark.parametrize("normalized", [True, False])
    def test_gram_of_a_block_generator_is_the_gram_of_grouped(self, normalized):
        # `compute_gram` takes any iterable: a generator of `block` reads gives
        # the bytes of the same group's `grouped` list.
        plan, store, deltas = three_task_deltas(Granularity.HEAD_MLP)
        for group_id in plan.group_ids():
            listed = compute_gram(deltas.grouped(group_id), normalized, group_id=group_id)
            read = (deltas.block(group_id, task) for task in range(store.n_tasks))
            generated = compute_gram(read, normalized, group_id=group_id)
            assert generated.B.tobytes() == listed.B.tobytes(), group_id
            assert (generated.samples, generated.skipped) == (listed.samples, listed.skipped)

    @pytest.mark.parametrize("level", [Granularity.ATTN_MLP, Granularity.HEAD_MLP])
    def test_solve_holds_one_task_block_at_a_time(
        self, tiny_config, tiny_checkpoint, setup, monkeypatch, level
    ):
        # The solve reads blocks task-major, and each block it reads is dead
        # before the next is computed; the store keeps none after the solve and
        # holds no base rows while it runs.
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, level)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        deltas.grouped(plan.groups[0].id)
        block = type(deltas).block
        read, order = [], []

        def watched(self, group_id, task):
            if read:
                assert read[-1]() is None, (group_id, task)
            got = block(self, group_id, task)
            # No base rows are held, not even those of a group read before the solve.
            assert not self.features.base_outputs, (group_id, task)
            read.append(weakref.ref(got))
            order.append((group_id, task))
            return got

        monkeypatch.setattr(type(deltas), "block", watched)
        weights = solve_plan(plan, deltas)
        assert order == [(g, t) for t in range(store.n_tasks) for g in plan.group_ids()]
        assert not deltas.deltas
        monkeypatch.undo()
        fresh = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        assert solve_plan(plan, fresh).to_json_dict() == weights.to_json_dict()

    @pytest.mark.parametrize("level", [Granularity.ATTN_MLP, Granularity.HEAD_MLP])
    def test_solve_traces_each_task_once_and_holds_only_it(self, monkeypatch, level):
        # The solve traces a data task when it first reads it and drops it once
        # every group's block on it is folded, so each block read finds the store
        # holding that task's inputs only. Counting the collect's trace of the
        # first task, the base pass runs once per task and length bucket.
        passes = []

        def counted(*args):
            passes.append(args)
            return submerge.model.forward_taps(*args)

        monkeypatch.setattr(submerge.features, "forward_taps", counted)
        plan, store, deltas = three_task_deltas(level)
        block = type(deltas).block

        def watched(self, group_id, task):
            got = block(self, group_id, task)
            assert {t for _, t in store.inputs} == {task}, (group_id, task)
            return got

        monkeypatch.setattr(type(deltas), "block", watched)
        solve_plan(plan, deltas)
        buckets = [len(store.buckets[t]) for t in range(store.n_tasks)]
        assert min(buckets) > 1
        assert len(passes) == sum(buckets)
        assert not store.inputs and not store.base_outputs and not deltas.contexts

    def test_reads_after_a_solve_retrace_the_same_bytes(self):
        # A task the solve dropped is traced again when next read: every group's
        # `grouped` blocks equal those read before the solve, byte for byte, and
        # a second solve on the same stores gives the same records.
        plan, store, deltas = three_task_deltas(Granularity.HEAD_MLP)
        before = {g: [b.copy() for b in deltas.grouped(g)] for g in plan.group_ids()}
        first = solve_plan(plan, deltas)
        assert not store.inputs
        for group_id, blocks in before.items():
            after = deltas.grouped(group_id)
            assert [b.dtype for b in after] == [b.dtype for b in blocks], group_id
            assert [b.tobytes() for b in after] == [b.tobytes() for b in blocks], group_id
        assert solve_plan(plan, deltas).groups == first.groups

    def test_solve_builds_each_layer_task_context_once(self, monkeypatch):
        # Each (layer, task) context set is built once in a head_mlp solve, one
        # `attention_contexts` call per weight set and batch, and at every block
        # read the store holds at most the contexts of that block's (layer, task).
        config = ModelConfig(d_model=16, n_heads=4, n_layers=2, d_ff=32, vocab_size=11, max_seq=16)
        base = random_checkpoint(config, 3)
        fine_tuned = [perturbed(base, seed=s) for s in (4, 5, 6)]
        lengths = [[5, 3, 8, 3], [4, 6, 7], [8, 3, 5, 6]]
        datasets = [
            [[(k * i + j) % 11 for j in range(n)] for i, n in enumerate(task)]
            for k, task in enumerate(lengths, 3)
        ]
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        store = collect_base_features(bind_weights(base, config), datasets, plan, sample_n=3)
        deltas = compute_delta_outputs(store, base, fine_tuned, plan)
        attention_contexts = submerge.features.attention_contexts
        block = type(deltas).block
        built = []

        def counting(x, weights, config, layer):
            built.append(layer)
            return attention_contexts(x, weights, config, layer)

        def watched(self, group_id, task):
            got = block(self, group_id, task)
            group = plan.group(group_id)
            held = [(group.layer, task)] if group.head_index else []
            assert list(self.contexts) == held, (group_id, task)
            return got

        monkeypatch.setattr(submerge.features, "attention_contexts", counting)
        monkeypatch.setattr(type(deltas), "block", watched)
        solve_plan(plan, deltas)
        head = plan.group("head.0.1")
        batches = sum(
            len(list(length_buckets(store.group_inputs(head, t)))) for t in range(store.n_tasks)
        )
        assert batches > store.n_tasks
        assert len(built) == config.n_layers * (len(fine_tuned) + 1) * batches
        assert deltas.contexts == {}

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
        # Every group's block, a head's above 0 included, is its own evaluation's.
        for group in plan.groups:
            for t, archive in enumerate(fine_tuned):
                params = group_parameters(group, base.tensors, source=archive.tensors)
                for task in range(2):
                    direct = store.rows(group, task, params) - store.base_rows(group, task)
                    np.testing.assert_array_equal(expected[group.id][task][t], direct)
        order = [
            "head.1.2", "head.0.3", "head.1.1", "head.1.3", "mlp.0", "head.1.2",
            "head.0.0", "head.0.2", "lm_head", "head.1.0", "head.0.1", "head.1.3",
        ]
        shuffled = compute_delta_outputs(store, base, fine_tuned, plan)
        for group_id in order:
            for got, want in zip(shuffled.grouped(group_id), expected[group_id]):
                assert np.array_equal(got, want), group_id

    @pytest.mark.parametrize("d_model, n_heads", [(16, 4), (24, 6), (32, 8)])
    def test_head_context_blocks_equal_each_heads_own_block(self, d_model, n_heads):
        # A head above 0 reads its deltas off its layer's shared contexts; the
        # head's own block on its own slices (analyze's path) gives the same bytes.
        config = ModelConfig(
            d_model=d_model, n_heads=n_heads, n_layers=2, d_ff=32, vocab_size=11, max_seq=16
        )
        base = random_checkpoint(config, 3)
        fine_tuned = [perturbed(base, seed=s) for s in (4, 5, 6)]
        lengths = [[5, 3, 8, 3], [4, 6, 7], [8, 3, 5, 6]]
        datasets = [
            [[(k * i + j) % 11 for j in range(n)] for i, n in enumerate(task)]
            for k, task in enumerate(lengths, 3)
        ]
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        store = collect_base_features(bind_weights(base, config), datasets, plan, sample_n=3)
        deltas = compute_delta_outputs(store, base, fine_tuned, plan)
        heads = [group for group in plan.groups if group.head_index]
        assert len(heads) == (n_heads - 1) * config.n_layers
        for group in heads:
            blocks = deltas.grouped(group.id)
            for m, archive in enumerate(fine_tuned):
                params = group_parameters(group, store.weights, source=archive.tensors)
                for task, block in enumerate(blocks):
                    direct = store.rows(group, task, params) - store.base_rows(group, task)
                    np.testing.assert_array_equal(block[m], direct, err_msg=f"{group.id} {task} {m}")

    def test_head_rows_read_o_proj_through_weight_rhs(self, monkeypatch):
        # A head above 0 multiplies its context columns by one weight_rhs copy of
        # its o_proj columns per weight set: the base, then each model.
        plan, store, deltas = three_task_deltas(Granularity.HEAD_MLP)
        read = []

        def counting(w):
            read.append(w.shape)
            return submerge.model.weight_rhs(w)

        monkeypatch.setattr(submerge.features, "weight_rhs", counting)
        config = plan.config
        for group in plan.groups:
            read.clear()
            deltas.block(group.id, 1)
            weight_sets = deltas.n_models + 1 if group.head_index else 0
            assert read == [(config.d_model, config.head_dim)] * weight_sets, group.id

    def test_no_contexts_held_with_a_non_head_group(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        # A linearity reader's base rows for the first group, read by its blocks.
        first = plan.groups[0]
        held = {(first.id, t): store.base_rows(first, t) for t in range(2)}
        for group in plan.groups:
            deltas.grouped(group.id)
            # Reading any group's deltas, a head's above 0 included, neither
            # stores base rows nor drops the held ones.
            assert store.base_outputs.keys() == held.keys(), group.id
            assert all(store.base_outputs[key] is rows for key, rows in held.items())
            if not group.head_index:
                assert deltas.contexts == {}, group.id
            else:
                # A group-by-group reader holds its layer's contexts on every
                # task, and no other layer's.
                assert list(deltas.contexts) == [(group.layer, t) for t in range(2)]
                # Heads 1..H-1 only: head 0 owns norm1 and runs its own block.
                width = tiny_config.d_model - tiny_config.head_dim
                for (_, task), weight_sets in deltas.contexts.items():
                    assert len(weight_sets) == len(fine_tuned) + 1
                    rows = sum(map(len, store.inputs[(group.id, task)]))
                    for o_proj, context in weight_sets:
                        assert o_proj.shape == (tiny_config.d_model, width)
                        assert context.shape == (rows, width)
                        assert context.dtype == np.float64
        assert deltas.deltas == {} and deltas.contexts == {}
        # A head of another layer drops the held layer's contexts; one of the
        # same layer keeps them, and any other group drops them all.
        deltas.grouped("head.0.1")
        deltas.block("head.1.1", 1)
        assert list(deltas.contexts) == [(1, 1)]
        deltas.block("head.1.1", 0)
        assert list(deltas.contexts) == [(1, 1), (1, 0)]
        deltas.block("head.0.1", 0)
        assert list(deltas.contexts) == [(0, 0)]
        deltas.block("mlp.0", 0)
        assert deltas.contexts == {}
        store.release(first)
        assert store.base_outputs == {}

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


class TestBatchCap:
    """Evaluations run in length buckets sliced to at most `MAX_BATCH` sequences;
    every slicing gives the bytes of one call per length."""

    def test_length_buckets_slice_each_length_in_input_order(self, monkeypatch):
        monkeypatch.setattr(submerge.model, "MAX_BATCH", 2)
        seqs = [np.arange(n) for n in (3, 5, 3, 3, 5, 3)]
        got = [(positions, batch.shape) for positions, batch in length_buckets(seqs)]
        assert got == [([0, 2], (2, 3)), ([3, 5], (2, 3)), ([1, 4], (2, 5))]

    @staticmethod
    def outputs(config, base, fine_tuned, datasets):
        """Trace inputs and rows of every group at every level, the head_mlp
        deltas and the losses, keyed by what they are."""
        model = bind_weights(base, config)
        out = {("loss", task): eval_cross_entropy(model, ds) for task, ds in enumerate(datasets)}
        for level in Granularity:
            plan = plan_decomposition(config, level)
            store = collect_base_features(model, datasets, plan, sample_n=6)
            for group in plan.groups:
                params = group_parameters(group, base.tensors, source=fine_tuned[0].tensors)
                for task in range(len(datasets)):
                    for i, arr in enumerate(store.group_inputs(group, task)):
                        out[("inputs", level, group.id, task, i)] = arr
                    out[("rows", level, group.id, task)] = store.rows(group, task, params)
            if level is Granularity.HEAD_MLP:
                deltas = compute_delta_outputs(store, base, fine_tuned, plan)
                for group in plan.groups:
                    for task, block in enumerate(deltas.grouped(group.id)):
                        out[("grouped", group.id, task)] = block
        return out

    @pytest.mark.parametrize("cap", [1, 2])
    def test_outputs_match_one_call_per_length(self, monkeypatch, cap):
        config = ModelConfig(d_model=16, n_heads=4, n_layers=2, d_ff=32, vocab_size=11, max_seq=16)
        base = random_checkpoint(config, 3)
        fine_tuned = [perturbed(base, seed=s) for s in (4, 5)]
        lengths = [[5, 3, 7, 3, 5, 3, 5, 3], [2, 6, 2, 6, 2, 6]]
        datasets = [
            [[(3 * i + j + t) % 11 for j in range(n)] for i, n in enumerate(task_lengths)]
            for t, task_lengths in enumerate(lengths)
        ]
        # Every length bucket fits the committed cap. Task 1's six sequences
        # are all sampled: two lengths of three, more than either tested cap.
        assert submerge.model.MAX_BATCH >= 8
        uncapped = self.outputs(config, base, fine_tuned, datasets)
        monkeypatch.setattr(submerge.model, "MAX_BATCH", cap)
        capped = self.outputs(config, base, fine_tuned, datasets)
        assert capped.keys() == uncapped.keys()
        for key, want in uncapped.items():
            assert np.array_equal(capped[key], want), key


class TestStoredBatches:
    """A traced task is held as its stacked length buckets, each with the rows it
    fills; every read evaluates those batches in place."""

    def test_rows_are_a_slice_where_a_bucket_is_consecutive(self, tiny_config, setup):
        model, _, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        # Lengths 5, 5, 3: the length-5 bucket fills rows 0..9, the other 10..12;
        # lengths 5, 3, 5: the length-5 bucket fills rows 0..4 and 8..12.
        datasets = [[[1] * 5, [2] * 5, [3] * 3], [[1] * 5, [2] * 3, [3] * 5]]
        store = collect_base_features(model, datasets, plan, sample_n=3)
        store.group_inputs(plan.groups[0], 1)
        (_, first, _), (_, second, _) = store.buckets[0]
        assert (first, second) == (slice(0, 10), slice(10, 13))
        (_, ragged, _), (_, last, _) = store.buckets[1]
        assert ragged.tolist() == [0, 1, 2, 3, 4, 8, 9, 10, 11, 12] and last == slice(5, 8)
        # Each token batch stacks its bucket's sampled sequences, and every
        # group's inputs are views of the stored batches.
        for task, buckets in store.buckets.items():
            for positions, _, tokens in buckets:
                sampled = [datasets[task][store.sampled[task][p]] for p in positions]
                assert tokens.tolist() == sampled
            for group in plan.groups:
                inputs, batches = store.inputs[(group.id, task)], store.batches[(group.id, task)]
                for (positions, rows, tokens), (stored_rows, batch) in zip(buckets, batches, strict=True):
                    assert stored_rows is rows
                    assert all(inputs[p].base is batch for p in positions)

    @pytest.mark.parametrize("level", list(Granularity))
    def test_reads_of_a_traced_task_neither_regroup_nor_stack(self, monkeypatch, level):
        plan, store, deltas = three_task_deltas(level)
        for task in range(store.n_tasks):
            store.group_inputs(plan.groups[0], task)
        calls = []

        def counted(name, function):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            submerge.features, "length_buckets", counted("length_buckets", length_buckets)
        )
        monkeypatch.setattr(np, "stack", counted("stack", np.stack))
        for group in plan.groups:
            weights = group_parameters(group, store.weights, source=deltas.fine_tuned[0].tensors)
            for task in range(store.n_tasks):
                store.rows(group, task, weights)
                store.base_rows(group, task)
                deltas.block(group.id, task)
        assert calls == []
        # The wrappers do count: `apply_group` batches its arbitrary inputs on each call.
        group = plan.groups[-1]
        apply_group(group, store.weights, store.group_inputs(group, 0), plan.config)
        assert "length_buckets" in calls and "stack" in calls

    def test_a_retrace_rebuilds_the_dropped_batches_to_the_same_bytes(self):
        plan, store, deltas = three_task_deltas(Granularity.ATTN_MLP)
        group = plan.group("mlp.1")
        before = [(rows, batch.copy()) for rows, batch in store.batches[(group.id, 0)]]
        deltas.release_task(0)
        assert not any(task == 0 for _, task in store.batches)
        store.group_inputs(group, 0)
        after = store.batches[(group.id, 0)]
        for (rows, batch), (old_rows, old_batch) in zip(after, before, strict=True):
            assert rows is old_rows
            assert batch.dtype == old_batch.dtype and batch.tobytes() == old_batch.tobytes()
        store.release(group)
        assert not any(key[0] == group.id for key in store.batches)


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


class TestBaseRows:
    @pytest.mark.parametrize("kind", ["other_plan", "same_id"])
    def test_a_group_of_another_plan_is_refused_and_the_held_rows_kept(
        self, tiny_config, setup, kind
    ):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.LAYER)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        held = {task: store.base_rows(plan.group("layer.0"), task) for task in range(2)}
        if kind == "other_plan":
            group = plan_decomposition(tiny_config, Granularity.ATTN_MLP).group("attn.0")
        else:
            group = dataclasses.replace(plan.group("layer.0"), input_tap="attn_in.1")
        with pytest.raises(PlanError, match="'(attn|layer).0'"):
            store.base_rows(group, 0)
        assert store.base_outputs.keys() == {("layer.0", task) for task in held}
        assert all(store.base_outputs[("layer.0", task)] is rows for task, rows in held.items())


class TestRelease:
    def test_release_task_drops_that_task_only_and_retraces_its_bytes(self, tiny_config, setup):
        # The feature store drops a task's inputs, batches and base rows itself;
        # the other task's stay, and the next read traces the task again.
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        rows = {(g.id, t): store.base_rows(g, t).copy() for g in plan.groups for t in range(2)}
        stores = (store.inputs, store.batches, store.base_outputs)
        kept = {key: [held[key] for held in stores] for key in rows if key[1] == 0}
        store.release_task(1)
        for i, held in enumerate(stores):
            assert held.keys() == kept.keys()
            assert all(held[key] is values[i] for key, values in kept.items())
        for group in plan.groups:
            assert store.base_rows(group, 1).tobytes() == rows[(group.id, 1)].tobytes()

    def test_a_tap_is_freed_with_its_last_reader(self, tiny_config, setup):
        # Every head group of a layer reads that layer's attn_in tap, so its
        # stored arrays live until the last of those heads is released.
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=3, seed=1)
        heads = [group for group in plan.groups if group.id.startswith("head.0.")]
        assert len(heads) == tiny_config.n_heads
        stacked = store.inputs[(heads[0].id, 0)][0].base
        assert all(store.inputs[(head.id, 0)][0].base is stacked for head in heads)
        tap = weakref.ref(stacked)
        del stacked
        store.base_rows(heads[0], 0)
        for head in heads:
            gc.collect()
            assert tap() is not None
            store.release(head)
        gc.collect()
        assert tap() is None
        assert not any(key[0] in {h.id for h in heads} for key in store.inputs)
        assert not store.base_outputs

    def test_a_group_released_before_a_task_is_traced_gets_none_of_it(
        self, tiny_config, setup, monkeypatch
    ):
        model, datasets, _ = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        group, other = plan.group("attn.0"), plan.group("mlp.0")
        store.release(group)
        assert {task for _, task in store.inputs} == {0}
        store.base_rows(other, 1)
        assert {g for g, task in store.inputs if task == 1} == set(plan.group_ids()) - {group.id}
        calls = []
        monkeypatch.setattr(submerge.features, "forward_taps", lambda *args: calls.append(args))
        with pytest.raises(PlanError, match="'attn.0' was released"):
            store.base_rows(group, 1)
        with pytest.raises(KeyError):
            store.inputs[(group.id, 1)]
        assert calls == []

    def test_a_released_group_is_refused(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
        group, other = plan.group("attn.0"), plan.group("mlp.0")
        deltas.grouped(group.id)
        held = store.base_rows(other, 0)
        store.release(group)
        weights = group_parameters(group, store.weights)
        taus = [task_vector(ft, tiny_checkpoint) for ft in fine_tuned]
        reads = [
            lambda: store.rows(group, 0, weights),
            lambda: store.base_rows(group, 1),
            lambda: deltas.grouped(group.id),
            lambda: non_linearity_score(store, tiny_checkpoint, taus[0], group, n_points=2),
            lambda: metric_sweep(store, deltas, tiny_checkpoint, taus, group, grid=[[0.5, 0.5]]),
        ]
        for read in reads:
            with pytest.raises(PlanError, match="'attn.0' was released"):
                read()
        assert store.base_outputs[("mlp.0", 0)] is held
        assert deltas.grouped(other.id)[0].shape[0] == len(fine_tuned)

    def test_a_task_out_of_range_is_an_input_error(self, tiny_config, tiny_checkpoint, setup):
        model, datasets, fine_tuned = setup
        plan = plan_decomposition(tiny_config, Granularity.ATTN_MLP)
        store = collect_base_features(model, datasets, plan, sample_n=2, seed=1)
        group = plan.group("attn.0")
        tau = task_vector(fine_tuned[0], tiny_checkpoint)
        weights = group_parameters(group, store.weights)
        # Python counts a bool as an int, but True is not task 1.
        for task in (len(datasets), -1, "0", True):
            with pytest.raises(InputError, match="is not one of the store's 2 data tasks"):
                store.base_rows(group, task)
            with pytest.raises(InputError, match="is not one of the store's 2 data tasks"):
                store.rows(group, task, weights)
            with pytest.raises(InputError, match="is not one of the store's 2 data tasks"):
                non_linearity_score(store, tiny_checkpoint, tau, group, task=task, n_points=2)
        assert store.base_rows(group, np.int64(1)) is store.base_rows(group, 1)


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
