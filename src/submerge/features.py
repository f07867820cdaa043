"""Collect submodule input features from the base model and apply groups.

The base model runs once per data task over its sampled sequences; every
group's input on a task is read off that task's trace (base-input
discipline: fine-tuned and interpolated groups are always evaluated on the
base model's features, never on their own forward pass). Every evaluation,
the trace included, is batched by `model.length_buckets`: sequences of one
length, stacked in input-order slices of at most `model.MAX_BATCH`, one call
per slice, so the float64 temporaries do not grow with the sample count.
`collect_base_features` stacks each task's sampled tokens into those batches
once (`FeatureStore.buckets`), each with the rows its sequences fill in the
task's [rows, width] outputs: a slice when they are consecutive, as on every
fixed-length task. The trace runs one pass per token batch and streams its
taps (`forward_taps`): each tap a group reads is rounded to f32 and stored as
that bucket's batch as soon as it is computed, and every other tap is
dropped, so no whole float64 trace is held. Every later read evaluates the
stored batches in place, with no regrouping or stacking; the per-sequence
inputs are views of the same batches, so no input is held twice. A group's function is its `model` block on the parameter slices
the group owns, plus the parameters it only reads, whole.
`group_parameters` builds exactly those float64 weights for one parameter
set (a source model's slices, or base + sum_t c_t tau_t; the read-only ones
at the base value), and `FeatureStore.rows` evaluates the block on them, one
call per batch, so identical weights reproduce identical bytes. A group's
outputs on one task are one f32 [rows, width] matrix, each batch's block
written into its rows. Output deltas are
computed per (group, data task): `DeltaStore.block` returns one [n_models,
rows, width] f32 block, and `DeltaStore.grouped` a new list of a group's
blocks in task order; the store keeps none. The solver folds each block
into its group's Gram term before reading the next, task-major, so it holds
one block at a time; the linearity sweep holds a group's `grouped` blocks
for its alpha grid.
`collect_base_features` checks every task's tokens and traces the first;
`FeatureStore.group_inputs` traces any other on its first read. `analyze`
keeps every task and calls `FeatureStore.release` once a group's metrics
are done, so a tap's batches are freed with the last group that reads them;
reading a released group raises `PlanError`, and no later trace stores its
inputs. `solve_plan` calls `DeltaStore.release_task` once every group's
block on a task is folded, dropping that task's inputs and contexts, so it
holds one task's inputs; a dropped task read again (say by `grouped` after
the solve) is traced again from its token batches, to the same bytes.
Base rows have one writer and one lifetime: `FeatureStore.base_rows` stores
a (group, task)'s rows until `release` of the group or `release_task` of
the task. The linearity readers call it, so in `analyze` they are the k = 0
interpolation step, the subtrahend of every sweep alpha and of the group's
delta blocks, computed once per group and task. A delta block with none
held evaluates them and stores nothing, so the solve holds no base rows.

Both delta readers build a block one way: each fine-tuned model's rows
are written into its slot of the block and the group's base rows are
subtracted in place, so no per-model copy is made. Most groups
read `rows`. Head groups 1..H-1 of a layer read `norm1` at
its base value, and heads are independent given the normed input, so their
rows come from the layer's shared attention contexts of heads 1..H-1
(`decompose.context_slices`): one `attention_contexts` call per batch under
the base weights and one per fine-tuned model under its q/k/v_proj rows of
those heads and the base `norm1`. Head h's rows are its columns of the
contexts, at offset (h-1) * head_dim, times the same columns of the o_proj
slice, rounded to f32. `DeltaStore.contexts` holds float64 contexts keyed
by (layer, data task), built on a task's first read, under one rule: each
read of a group drops them unless the group is a head above 0 of the layer
they hold. The task-major solve holds one task's contexts, a group-by-group
reader every task's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .archive import TensorArchive, combine, require_compatible
from .decompose import DecompositionPlan, SubmoduleGroup, context_slices
from .errors import CoeffError, CompatError, InputError, ParamError, PlanError, SampleError
from .errors import is_integer, require_integer
from .model import BoundModel, ModelConfig, attention_block, attention_contexts
from .model import forward_logits, forward_taps, length_buckets, mlp_block, output_block
from .model import validated_tokens, weight_rhs

# A length bucket of one data task's sequences: their positions in input order,
# the rows they fill in the task's [rows, width] outputs (a slice when those
# rows are consecutive), and the stacked batch. A stored batch is its rows and
# one stacked input of the bucket: its tokens, or a feature tap of them.
Bucket = tuple[list[int], slice | np.ndarray, np.ndarray]
Batch = tuple[slice | np.ndarray, np.ndarray]


@dataclass
class FeatureStore:
    """Per (group id, data task): the group's stacked input batches, their
    per-sequence views and the base output rows a reader asked for.

    `buckets[task]` holds a data task's length buckets, made once when it is
    sampled: each one's positions in input order, its destination rows and its
    stacked token batch. For each traced task, `batches[(group id, task)]` holds (rows,
    batch) per bucket, the tokens or the f32 tap the group reads, the same
    arrays for every group that reads one tap; `inputs[(group id, task)]` is
    every sequence's view of them, in input order. `group_inputs` traces a
    task from its token batches when it is not stored (`_trace`), so one
    dropped by `release_task` is traced again, to the same bytes.
    `base_outputs[(group id, task)]` holds the base rows of every sequence
    stacked in input order. `base_rows`, its one writer, fills it on first use
    with the traced `weights`; the rows stay until `release` or
    `release_task`. A group not the plan's, or `released`, raises
    `PlanError`, and a task that is not a data task raises `InputError`.
    """

    plan: DecompositionPlan
    n_tasks: int
    weights: Mapping[str, np.ndarray]
    inputs: dict[tuple[str, int], list[np.ndarray]] = field(default_factory=dict)
    batches: dict[tuple[str, int], list[Batch]] = field(default_factory=dict)
    base_outputs: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    sampled: dict[int, list[int]] = field(default_factory=dict)
    buckets: dict[int, list[Bucket]] = field(default_factory=dict)
    released: set[str] = field(default_factory=set)

    def rows(
        self,
        group: SubmoduleGroup,
        task: int,
        weights: Mapping[str, np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The group's rows on one task's inputs under `group_parameters` weights,
        written into `out` if given, an f32 [rows, width]."""
        batches = self.batches[self._traced(group, task)]
        return _group_rows(group, weights, batches, self.plan.config, out)

    def base_rows(self, group: SubmoduleGroup, task: int) -> np.ndarray:
        """The group's output rows on one task's inputs under the traced weights,
        stored until `release(group)` or `release_task(task)`."""
        self._require_planned(group)
        key = (group.id, task)
        if key not in self.base_outputs:
            self.base_outputs[key] = self.rows(group, task, group_parameters(group, self.weights))
        return self.base_outputs[key]

    def release(self, group: SubmoduleGroup) -> None:
        """Drop the group's stored inputs, batches and base rows for good. A tap's
        batches are freed once every group that reads them is released; reading
        a released group again raises `PlanError`."""
        self._require_planned(group)
        self.released.add(group.id)
        for task in range(self.n_tasks):
            for held in (self.inputs, self.batches, self.base_outputs):
                held.pop((group.id, task), None)

    def release_task(self, task: int) -> None:
        """Drop one data task's stored inputs, batches and base rows of every
        group; the next read of that task traces it again."""
        for held in (self.inputs, self.batches, self.base_outputs):
            for key in [key for key in held if key[1] == task]:
                del held[key]

    def _trace(self, task: int) -> None:
        """Store the task's inputs for every group not released: its token
        batches, and each feature tap of one base pass per token batch, rounded
        to f32 as soon as it is computed while every other tap is dropped.
        Groups that read one tap share its batches."""
        groups = [group for group in self.plan.groups if group.id not in self.released]
        buckets = self.buckets[task]
        taps = {group.input_tap for group in groups} - {"tokens"}
        stacked = {"tokens": [tokens for _, _, tokens in buckets]} | {tap: [] for tap in taps}
        for _, _, tokens in buckets if taps else ():
            for tap, value in forward_taps(self.plan.config, self.weights, tokens):
                if tap in taps:
                    stacked[tap].append(value.astype(np.float32))
        views = {tap: _sequence_views(buckets, batches) for tap, batches in stacked.items()}
        pairs = {
            tap: [(rows, batch) for (_, rows, _), batch in zip(buckets, batches)]
            for tap, batches in stacked.items()
        }
        for group in groups:
            self.inputs[(group.id, task)] = list(views[group.input_tap])
            self.batches[(group.id, task)] = pairs[group.input_tap]

    def group_inputs(self, group: SubmoduleGroup, task: int) -> list[np.ndarray]:
        """The group's stored inputs on one data task, one per sequence, which
        is traced first if it is not stored: `PlanError` unless the group is
        the plan's and not released, `InputError` unless `task` is a data task."""
        return self.inputs[self._traced(group, task)]

    def _traced(self, group: SubmoduleGroup, task: int) -> tuple[str, int]:
        """The (group id, task) key of the group's stored inputs and batches,
        tracing the task first if it is not stored; checked as by `group_inputs`."""
        self._require_planned(group)
        if not (is_integer(task) and 0 <= task < self.n_tasks):
            raise InputError(f"task {task!r} is not one of the store's {self.n_tasks} data tasks")
        if (group.id, task) not in self.inputs:
            self._trace(task)
        return (group.id, task)

    def _require_planned(self, group: SubmoduleGroup) -> None:
        if self.plan.group(group.id) != group:
            raise PlanError(f"group {group.id!r} is not the stored plan's group of that id")
        if group.id in self.released:
            raise PlanError(f"group {group.id!r} was released; its stored inputs are gone")

    def require_traced_base(self, base: TensorArchive) -> None:
        """Raise `CompatError` unless `base` holds exactly the traced weights.

        `bind_weights` binds the archive's own arrays, so the traced archive
        passes by identity; any other archive is compared by value.
        """
        traced = self.weights
        if set(base.tensors) != set(traced) or not all(
            base.tensors[name] is weight or np.array_equal(base.tensors[name], weight)
            for name, weight in traced.items()
        ):
            raise CompatError("the base archive is not the traced base model")


@dataclass
class DeltaStore:
    """Output deltas per (group, data task), laid out as the solver reads them.

    `block` computes a group's deltas on one data task, an [n_models, rows,
    width] f32 block kept by no one but the reader; `grouped` returns a new
    list of a group's blocks, one per data task, and keeps none either. A
    block subtracts the base rows `features` holds, else evaluates them and
    stores none. The plan and base weights are `features`'.

    While a layer's head groups above 0 are read, `contexts[(layer, task)]`
    holds the attention contexts of that layer's heads 1..H-1 on a data task
    read so far: per weight set (the base, then each model), the float64
    o_proj columns of those heads, [d_model, d_model - head_dim], and the
    [rows, d_model - head_dim] context. Reading any other group drops them.
    """

    features: FeatureStore
    fine_tuned: Sequence[TensorArchive]
    # Never written: only `perfbench/spans.py`'s `compute_delta_outputs` counter
    # reads it, and both go with ROADMAP item 4.
    deltas: dict[tuple[str, int], np.ndarray] = field(default_factory=dict, init=False)
    contexts: dict[tuple[int, int], list] = field(default_factory=dict, init=False)

    @property
    def n_models(self) -> int:
        return len(self.fine_tuned)

    @property
    def n_tasks(self) -> int:
        return self.features.n_tasks

    def block(self, group_id: str, task: int) -> np.ndarray:
        """One data task's [n_models, rows, width] f32 deltas, kept by the caller only."""
        return self._block(self._held(group_id), task)

    def grouped(self, group_id: str) -> list[np.ndarray]:
        """Per data task in order, the group's [n_models, rows, width] f32
        deltas, in a new list; a group not the plan's, or released, raises
        `PlanError` before any block is computed."""
        group = self._held(group_id)
        return [self._block(group, task) for task in range(self.n_tasks)]

    def release_task(self, task: int) -> None:
        """Drop one data task's feature store entries (`FeatureStore.release_task`)
        and head contexts; the next read of that task traces it again."""
        self.features.release_task(task)
        for key in [key for key in self.contexts if key[1] == task]:
            del self.contexts[key]

    def _held(self, group_id: str) -> SubmoduleGroup:
        """The plan's group of that id, checked. The held contexts are dropped
        unless the group is a head above 0 of the layer they hold."""
        group = self.features.plan.group(group_id)
        self.features._require_planned(group)
        if not group.head_index or any(layer != group.layer for layer, _ in self.contexts):
            self.contexts.clear()
        return group

    def _block(self, group: SubmoduleGroup, task: int) -> np.ndarray:
        """One data task's f32 delta block: each model's rows written into its
        slot, then the base rows subtracted in place.

        A head group above 0 reads its rows off the (layer, task) contexts, built
        unless held; every other group evaluates its block. Its base rows are
        those `base_rows` holds, else evaluated and not stored.
        """
        features, layer = self.features, group.layer
        if not group.head_index:
            base = features.base_outputs.get((group.id, task))
            if base is None:
                base = features.rows(group, task, group_parameters(group, features.weights))
            block = np.empty((self.n_models, *base.shape), np.float32)
            for slot, archive in zip(block, self.fine_tuned):
                weights = group_parameters(group, features.weights, source=archive.tensors)
                features.rows(group, task, weights, out=slot)
                np.subtract(slot, base, out=slot)
            return block
        config = features.plan.config
        shared, cols = context_slices(config, layer, group.head_index)
        if (layer, task) not in self.contexts:
            # Heads 1..H-1's q/k/v rows and o_proj columns from each weight
            # set, the base first, built one set at a time; norm1 stays at the base.
            heads = dataclasses.replace(group, params=shared)
            sources = [features.weights] + [archive.tensors for archive in self.fine_tuned]
            weight_sets = (group_parameters(heads, features.weights, source=s) for s in sources)
            batches = features.batches[features._traced(group, task)]
            o_proj_name = f"layers.{layer}.attn.o_proj"
            self.contexts[(layer, task)] = [
                (
                    w[o_proj_name],
                    _rows_in_order(
                        batches, lambda x: attention_contexts(x, w, config, layer), np.float64
                    ),
                )
                for w in weight_sets
            ]
        # All rows and this head's columns of the o_proj slice and of the contexts.
        (base_o_proj, base_context), *models = self.contexts[(layer, task)]
        base = (base_context[cols] @ weight_rhs(base_o_proj[cols])).astype(np.float32)
        block = np.empty((len(models), *base.shape), np.float32)
        for slot, (o_proj, context) in zip(block, models):
            np.copyto(slot, context[cols] @ weight_rhs(o_proj[cols]), casting="same_kind")
            np.subtract(slot, base, out=slot)
        return block


def _buckets(seqs: Sequence[np.ndarray]) -> list[Bucket]:
    """Each `length_buckets` batch of `seqs`, stacked once: its positions in
    `seqs`, the rows its sequences fill, in input order, of a [rows, width]
    result (a slice when they are consecutive), and the batch."""
    starts = np.cumsum([0] + [len(seq) for seq in seqs])
    buckets: list[Bucket] = []
    for positions, batch in length_buckets(seqs):
        rows = (starts[positions][:, None] + np.arange(batch.shape[1])).ravel()
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        buckets.append((positions, rows, batch))
    return buckets


def _sequence_views(buckets: Sequence[Bucket], batches: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each sequence's view of the batch, one per bucket, that holds it, in input order."""
    views: list[np.ndarray] = [np.empty(0)] * sum(len(positions) for positions, _, _ in buckets)
    for (positions, _, _), batch in zip(buckets, batches):
        for position, row in zip(positions, batch):
            views[position] = row
    return views


def _rows_in_order(
    batches: Sequence[Batch],
    evaluate: Callable[[np.ndarray], np.ndarray],
    dtype: type,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """`evaluate` on each batch, written into its rows of one `dtype` [rows,
    width] result, `out` if given: every sequence's rows, in input order."""
    result = out
    for rows, batch in batches:
        block = evaluate(batch)
        if result is None:
            n_rows = sum(stacked.shape[0] * stacked.shape[1] for _, stacked in batches)
            result = np.empty((n_rows, block.shape[-1]), dtype)
        result[rows] = block.reshape(-1, block.shape[-1])
    return result


def _group_rows(
    group: SubmoduleGroup,
    weights: Mapping[str, np.ndarray],
    batches: Sequence[Batch],
    config: ModelConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One group's block on stacked input batches under `weights` as
    `group_parameters` builds them, one call per batch; returns an f32 [rows,
    width], `out` if given, each batch written into its rows. Token batches
    hold `validated_tokens` int64 ids.
    """
    kind, layer = group.output_kind, group.layer

    def evaluate(batch: np.ndarray) -> np.ndarray:
        if kind == "model_logits":
            return forward_logits(config, weights, batch)
        if kind == "embed_rows":
            return weights["embed"][batch]
        if kind == "logits":
            return output_block(batch, weights, config)[0]
        if kind in ("attn_branch", "head_branch"):
            return attention_block(batch, weights, config, layer)[0]
        if kind == "mlp_branch":
            return mlp_block(batch, weights, config, layer)[0]
        if kind == "layer_out":
            # f32 + float64 upcasts elementwise: the float64 residual sum.
            x = batch + attention_block(batch, weights, config, layer)[0]
            return x + mlp_block(x, weights, config, layer)[0]
        raise InputError(f"unknown output kind {kind!r}")

    return _rows_in_order(batches, evaluate, np.float32, out)


def apply_group(
    group: SubmoduleGroup,
    params: Mapping[str, np.ndarray],
    inputs: Sequence[np.ndarray],
    config: ModelConfig,
) -> np.ndarray:
    """One group's function under whole tensors `params` on [seq] token or
    [seq, d_model] feature inputs; returns an f32 [rows, width] in input order.
    Token inputs are checked by `validated_tokens`."""
    if not inputs:
        raise InputError(f"group {group.id!r} needs at least one input")
    if group.input_tap == "tokens":
        inputs = [validated_tokens(config, arr) for arr in inputs]
    else:
        for arr in inputs:
            if arr.ndim != 2 or arr.shape[1] != config.d_model:
                raise InputError(
                    f"group {group.id!r} expects [seq x {config.d_model}] inputs, got {arr.shape}"
                )
    batches = [(rows, batch) for _, rows, batch in _buckets(inputs)]
    return _group_rows(group, group_parameters(group, params), batches, config)


def group_parameters(
    group: SubmoduleGroup,
    base: Mapping[str, np.ndarray],
    source: Mapping[str, np.ndarray] | None = None,
    taus: Sequence[Mapping[str, np.ndarray]] = (),
    coeffs: Sequence[float] = (),
) -> dict[str, np.ndarray]:
    """The float64 weights a group's block reads, for one parameter set.

    Each owned slice is `source`'s slice (exact), or base + sum_t coeffs[t] *
    taus[t] accumulated in that order. Each parameter the block reads but
    the group does not own is whole, at the base value.
    """
    if source is not None and len(taus):
        raise InputError("pass either source or taus, not both")
    if len(taus) != len(coeffs):
        raise CoeffError(f"{len(coeffs)} coefficients for {len(taus)} task vectors")
    weights: dict[str, np.ndarray] = {}
    for name, idx in group.params.items():
        if source is not None:
            weights[name] = np.asarray(source[name][idx], dtype=np.float64)
        else:
            weights[name] = combine(base[name][idx], [tau[name][idx] for tau in taus], coeffs)
    weights.update((name, np.asarray(base[name], dtype=np.float64)) for name in group.extra_params)
    return weights


def collect_base_features(
    base: BoundModel,
    datasets: Sequence[Sequence[Sequence[int]]],
    plan: DecompositionPlan,
    sample_n: int,
    seed: int = 0,
) -> FeatureStore:
    """Sample and check every task's sequences, then trace the first task; the
    store traces each other task when it is first read.

    Groups that read the same tap share its stored arrays. No base outputs
    are computed here; `FeatureStore.base_rows` computes them per group.
    """
    require_integer("sample count", sample_n, 1, SampleError)
    require_integer("seed", seed, 0, ParamError)
    if not datasets:
        raise SampleError("need at least one dataset to sample")
    if plan.config != base.config:
        raise PlanError("the plan was made for another model config than the traced model's")
    store = FeatureStore(plan=plan, n_tasks=len(datasets), weights=base.weights)
    for task, dataset in enumerate(datasets):
        if len(dataset) < sample_n:
            raise SampleError(
                f"task {task} has {len(dataset)} sequences, need {sample_n}"
            )
        rng = np.random.default_rng([seed, task])
        picked = sorted(rng.choice(len(dataset), size=sample_n, replace=False).tolist())
        store.sampled[task] = picked
        sequences = []
        for index in picked:
            try:
                sequences.append(validated_tokens(base.config, dataset[index]))
            except InputError as exc:
                raise InputError(f"task {task} sequence {index}: {exc}") from None
        # Stacked copies, so a later trace reads these tokens even if the caller's arrays change.
        store.buckets[task] = _buckets(sequences)
    store._trace(0)
    return store


def compute_delta_outputs(
    store: FeatureStore,
    base: TensorArchive,
    fine_tuned: Sequence[TensorArchive],
    plan: DecompositionPlan,
) -> DeltaStore:
    """Store of every group's output delta when its parameters come from each model.

    `plan` must be the plan the features were collected for and `base` the
    traced base model. These and the shapes are checked here; each group's
    deltas are computed when first read.
    """
    if plan != store.plan:
        raise PlanError("the plan is not the one the base features were collected for")
    store.require_traced_base(base)
    if not fine_tuned:
        raise InputError("need at least one fine-tuned model")
    for t, archive in enumerate(fine_tuned):
        require_compatible(archive, base, f"fine-tuned archive {t}")
    return DeltaStore(features=store, fine_tuned=fine_tuned)
