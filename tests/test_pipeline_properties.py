"""Properties of the feature and delta stores on drawn models and ragged data.

Each draw is a tiny model, one to three data tasks of ragged sequences and a
sample count on either side of `MAX_BATCH`, printed as a `Case` when it fails.
The stores keep each traced task as its stacked length buckets, so these check
that no slicing of the buckets, no shared head evaluation, no re-trace and no
held base rows can change a byte of what they return; and that the task-major
solve is the group-by-group one, with models equal to the base merging to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import submerge.model
from submerge import DegenerateError, NumericError
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import collect_base_features, compute_delta_outputs, group_parameters
from submerge.merge import merge_linear_solve
from submerge.model import ModelConfig, bind_weights
from submerge.solver import GroupWeights, assemble_system, compute_gram, solve_alpha, solve_plan

from conftest import random_checkpoint
from test_features import perturbed

# Each draw builds and reads its stores twice; 60 draws per test take about 3 s.
PIPELINE = settings(max_examples=60, deadline=None)
# The checks below the first two draw 30 cases each, which keeps the file under 10 s.
QUICK = settings(max_examples=30, deadline=None)


@dataclass(frozen=True)
class Case:
    config: ModelConfig
    level: Granularity
    datasets: tuple[tuple[tuple[int, ...], ...], ...]
    sample_n: int
    seed: int


@st.composite
def cases(draw, level: Granularity | None = None) -> Case:
    n_heads = draw(st.integers(1, 4))
    config = ModelConfig(
        d_model=n_heads * draw(st.sampled_from([2, 4])),
        n_heads=n_heads,
        n_layers=draw(st.integers(1, 2)),
        d_ff=draw(st.integers(1, 12)),
        vocab_size=draw(st.integers(2, 13)),
        max_seq=draw(st.integers(2, 6)),
    )
    # Up to MAX_BATCH + 4 sequences of at most five lengths: a drawn count may
    # fill a length bucket past the cap, or leave every bucket below it.
    sample_n = draw(st.integers(1, submerge.model.MAX_BATCH + 4))
    sequence = st.lists(
        st.integers(0, config.vocab_size - 1), min_size=2, max_size=config.max_seq
    ).map(tuple)
    dataset = st.lists(sequence, min_size=sample_n, max_size=sample_n + 2).map(tuple)
    return Case(
        config=config,
        level=draw(st.sampled_from(list(Granularity))) if level is None else level,
        datasets=tuple(draw(st.lists(dataset, min_size=1, max_size=3))),
        sample_n=sample_n,
        seed=draw(st.integers(0, 2**16)),
    )


def stores(case: Case, n_models: int = 2):
    """The case's plan, feature store and delta store over `n_models` fine-tuned models."""
    base = random_checkpoint(case.config, case.seed)
    models = [perturbed(base, seed=case.seed + s) for s in range(1, n_models + 1)]
    plan = plan_decomposition(case.config, case.level)
    datasets = [[list(seq) for seq in dataset] for dataset in case.datasets]
    store = collect_base_features(
        bind_weights(base, case.config), datasets, plan, case.sample_n, seed=case.seed
    )
    return plan, store, compute_delta_outputs(store, base, models, plan)


def reads(case: Case, cap: int) -> dict:
    """With `MAX_BATCH` patched to `cap`: every group's rows under the first
    model's weights and its delta block, per data task; then every block again
    once each task is dropped and traced again."""
    got = {}
    with mock.patch.object(submerge.model, "MAX_BATCH", cap):
        plan, store, deltas = stores(case)
        for group in plan.groups:
            weights = group_parameters(group, store.weights, source=deltas.fine_tuned[0].tensors)
            for task in range(store.n_tasks):
                got[("rows", group.id, task)] = store.rows(group, task, weights)
                got[("block", group.id, task)] = deltas.block(group.id, task)
        for task in range(store.n_tasks):
            deltas.release_task(task)
        assert not (store.inputs or store.batches or store.base_outputs or deltas.contexts)
        for group in plan.groups:
            for task in range(store.n_tasks):
                got[("retraced", group.id, task)] = deltas.block(group.id, task)
    return got


def assert_same_bytes(got: np.ndarray, want: np.ndarray, key) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, key
    assert got.tobytes() == want.tobytes(), key


@PIPELINE
@given(case=cases())
def test_reads_are_byte_identical_under_any_batch_cap_and_after_a_retrace(case):
    uncapped, capped = reads(case, 16), reads(case, 3)
    assert capped.keys() == uncapped.keys()
    for key, want in uncapped.items():
        assert_same_bytes(capped[key], want, key)
    for (kind, group_id, task), want in uncapped.items():
        if kind == "block":
            assert_same_bytes(uncapped[("retraced", group_id, task)], want, (group_id, task))


@PIPELINE
@given(case=cases(level=Granularity.HEAD_MLP))
def test_head_group_blocks_equal_each_heads_own_block(case):
    # A head above 0 reads its deltas off its layer's shared contexts; the
    # head's own block on its own slices gives the same bytes.
    plan, store, deltas = stores(case)
    for group in plan.groups:
        if group.output_kind != "head_branch":
            continue
        for task in range(store.n_tasks):
            block = deltas.block(group.id, task)
            for m, archive in enumerate(deltas.fine_tuned):
                weights = group_parameters(group, store.weights, source=archive.tensors)
                direct = store.rows(group, task, weights) - store.base_rows(group, task)
                assert_same_bytes(block[m], direct, (group.id, task, m))


@QUICK
@given(case=cases())
def test_blocks_do_not_depend_on_held_base_rows(case):
    # A block evaluates the base rows no one holds and stores none; with the
    # rows `base_rows` holds it subtracts those, to the same bytes.
    plan, store, deltas = stores(case)
    for group in plan.groups:
        for task in range(store.n_tasks):
            alone = deltas.block(group.id, task)
            assert (group.id, task) not in store.base_outputs
            store.base_rows(group, task)
            assert_same_bytes(deltas.block(group.id, task), alone, (group.id, task))


@QUICK
@given(case=cases(), normalized=st.booleans())
def test_task_major_solve_equals_group_by_group(case, normalized):
    # Data task t's objective targets model t, so there is one model per task.
    n_models = len(case.datasets)
    plan, _, deltas = stores(case, n_models)
    solved = solve_plan(plan, deltas, normalized=normalized)
    for got, group_id in zip(solved.groups, plan.group_ids(), strict=True):
        try:
            gram = compute_gram(deltas.grouped(group_id), normalized, group_id=group_id)
            alpha, diag = solve_alpha(*assemble_system(gram))
        except (DegenerateError, NumericError):
            assert got.fallback and got.alpha == (1.0 / n_models,) * n_models, group_id
            continue
        assert got == GroupWeights(group_id, tuple(float(a) for a in alpha), **diag)


@QUICK
@given(case=cases())
def test_models_equal_to_the_base_merge_to_the_base(case):
    # Every delta is zero, so every group falls back to uniform weights for
    # zero signal, and the merged slices are the base's.
    base = random_checkpoint(case.config, case.seed)
    datasets = [[list(seq) for seq in dataset] for dataset in case.datasets]
    n_models = len(datasets)
    merged, weights = merge_linear_solve(
        base, [base] * n_models, case.level, datasets, case.sample_n, seed=case.seed
    )
    for group in weights.groups:
        assert group.fallback and group.zero_signal, group.group_id
        assert group.alpha == (1.0 / n_models,) * n_models, group.group_id
    assert merged.tensors.keys() == base.tensors.keys()
    for name, tensor in base.tensors.items():
        assert_same_bytes(merged.tensors[name], tensor, name)
