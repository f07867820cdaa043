"""Collect submodule input features from the base model and apply groups.

The base model runs once over the sampled sequences, one batched forward
pass per sequence length; every group's input is read off that single trace
(base-input discipline: fine-tuned and interpolated groups are always
evaluated on the base model's features, never on their own forward pass).
The pass streams its taps (`forward_taps`): each tap a group reads is
rounded to f32 and stored as soon as it is computed, and every other tap is
dropped, so no whole float64 trace is held. A group's function is its
`model` block on the parameter slices the group owns, plus the parameters
it only reads, whole. `group_parameters` builds exactly those float64
weights for one parameter set (a source model's slices, or base + sum_t
c_t tau_t; the read-only ones at the base value), and `FeatureStore.rows`
evaluates the block on them, on all stored sequences of one length in a
single call, so identical weights reproduce identical bytes. A group's
outputs on one task are one f32 [rows, width] matrix, each length bucket's
block written into its sequences' token rows in input order. Base outputs
and output deltas are computed when a group is first read and held one
group at a time: the base rows per task, and the [n_models, rows, width]
delta block per data task that the solver reads.
A group's base rows live from their first read until another group's base
rows or deltas are read: in `analyze` they are the k = 0 interpolation step
of `non_linearity_score` and the subtrahend of the group's deltas and of
every sweep alpha's merged delta, computed once per group and task.

Head groups 1..H-1 of a layer read `norm1` at its base value, and heads are
independent given the normed input, so their deltas come from the layer's
full attention contexts: one `attention_contexts` call per task under the
base weights and one per fine-tuned model under its q/k/v_proj and the base
`norm1`. Head h's rows are the columns of the contexts that match the
o_proj columns the group owns, times those columns.
`DeltaStore` holds one layer's float64 contexts while its head groups are
read and frees them as soon as a group that is not a head group is read.
Head 0 owns `norm1` and is evaluated alone, like every other group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .archive import TensorArchive, combine, require_compatible
from .decompose import DecompositionPlan, SubmoduleGroup
from .errors import CoeffError, CompatError, InputError, PlanError, SampleError
from .model import ATTENTION_PARAMS, BoundModel, ModelConfig, attention_block, attention_contexts
from .model import forward_logits, forward_taps, mlp_block, output_block, validated_tokens


@dataclass
class FeatureStore:
    """Per (group id, task): input matrices, one per sequence, kept for the
    whole plan; and the base output rows of one group at a time.

    `base_outputs[(group id, task)]` holds the base rows of every sequence
    stacked in input order. `base_rows` fills it on first use with the
    traced `weights` and drops the rows of any other group.
    """

    plan: DecompositionPlan
    n_tasks: int
    weights: Mapping[str, np.ndarray]
    inputs: dict[tuple[str, int], list[np.ndarray]] = field(default_factory=dict)
    base_outputs: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    sampled: dict[int, list[int]] = field(default_factory=dict)
    _verified: TensorArchive | None = field(default=None, init=False, repr=False, compare=False)

    def rows(self, group: SubmoduleGroup, task: int, weights: Mapping[str, np.ndarray]) -> np.ndarray:
        """The group's rows on one task's inputs under `group_parameters` weights."""
        if self.plan.group(group.id) != group:
            raise PlanError(f"group {group.id!r} is not the stored plan's group of that id")
        return _group_rows(group, weights, self.inputs[(group.id, task)], self.plan.config)

    def base_rows(self, group: SubmoduleGroup, task: int) -> np.ndarray:
        """The group's output rows on one task's inputs under the traced weights."""
        key = (group.id, task)
        rows = self.base_outputs.get(key)
        if rows is None:
            self.hold_base_rows(group.id)
            rows = self.rows(group, task, group_parameters(group, self.weights))
            self.base_outputs[key] = rows
        return rows

    def hold_base_rows(self, group_id: str) -> None:
        """Drop the held base rows unless they are `group_id`'s."""
        if any(held != group_id for held, _ in self.base_outputs):
            self.base_outputs.clear()

    def delta_rows(
        self, group: SubmoduleGroup, task: int, weights: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """The group's rows on one task's inputs under `weights`, minus the base rows."""
        return self.rows(group, task, weights) - self.base_rows(group, task)

    def require_traced_base(self, base: TensorArchive) -> None:
        """Raise `CompatError` unless `base` holds exactly the traced weights.

        Archives are read-only, so the archive last found equal is not compared again.
        """
        if base is self._verified:
            return
        traced = self.weights
        if set(base.tensors) != set(traced) or not all(
            np.array_equal(base.tensors[name], weight) for name, weight in traced.items()
        ):
            raise CompatError("the base archive is not the traced base model")
        self._verified = base


@dataclass
class DeltaStore:
    """Output deltas of one group at a time, laid out as the solver reads them.

    `grouped` or `pooled` computes a group's deltas the first time that group
    is asked for, replacing the group held before and its base rows (the
    group's own base rows, if already held, are kept):
    `deltas[(group id, data task)]` is an [n_models, rows, width] block for
    the held group. The plan and the base weights are the `features`
    store's.

    While head groups above 0 are read, `contexts` holds the attention
    contexts of layer `context_layer`: per weight set (the base, then each
    model), its float64 o_proj and one [rows, d_model] context per data task.
    """

    features: FeatureStore
    fine_tuned: Sequence[TensorArchive]
    deltas: dict[tuple[str, int], np.ndarray] = field(default_factory=dict, init=False)
    held: str | None = field(default=None, init=False)
    contexts: list[tuple[np.ndarray, list[np.ndarray]]] = field(default_factory=list, init=False)
    context_layer: int | None = field(default=None, init=False)

    @property
    def n_tasks(self) -> int:
        return self.features.n_tasks

    @property
    def n_models(self) -> int:
        return len(self.fine_tuned)

    def grouped(self, group_id: str) -> list[np.ndarray]:
        """Per data task, an array [n_models, rows, width]."""
        if self.held != group_id:
            features = self.features
            group = features.plan.group(group_id)
            self.deltas.clear()
            features.hold_base_rows(group_id)
            self.held = None
            if group.output_kind != "head_branch":
                self.contexts, self.context_layer = [], None
            if group.output_kind == "head_branch" and group.head_index > 0:
                self._head_deltas(group)
            else:
                params = [
                    group_parameters(group, features.weights, source=archive.tensors)
                    for archive in self.fine_tuned
                ]
                for task in range(self.n_tasks):
                    self.deltas[(group_id, task)] = np.stack(
                        [features.delta_rows(group, task, p) for p in params]
                    )
            self.held = group_id
        return [self.deltas[(group_id, task)] for task in range(self.n_tasks)]

    def pooled(self, group_id: str) -> np.ndarray:
        """Float64 [n_models, rows of every data task, width]."""
        return np.concatenate(self.grouped(group_id), axis=1, dtype=np.float64)

    def _head_deltas(self, group: SubmoduleGroup) -> None:
        """Deltas of a head group above 0, read off its layer's contexts."""
        features, layer = self.features, group.layer
        config = features.plan.config
        o_proj_name = f"layers.{layer}.attn.o_proj"
        if self.context_layer != layer:
            # Free the held layer's contexts before building this one's.
            self.contexts, self.context_layer = [], None
            weight_sets = [features.weights] + [
                _attention_weights(layer, features.weights, archive.tensors)
                for archive in self.fine_tuned
            ]
            self.contexts = [
                (
                    weights[o_proj_name],
                    [
                        _rows_in_order(
                            features.inputs[(group.id, task)],
                            lambda x: attention_contexts(x.astype(np.float64), weights, config, layer),
                            np.float64,
                        )
                        for task in range(self.n_tasks)
                    ],
                )
                for weights in weight_sets
            ]
            self.context_layer = layer
        # All rows and the head's columns: of o_proj, and of the [rows, d_model] contexts.
        cols = group.params[o_proj_name]
        (base_o_proj, base_contexts), *models = self.contexts
        for task in range(self.n_tasks):
            base_rows = (base_contexts[task][cols] @ base_o_proj[cols].T).astype(np.float32)
            self.deltas[(group.id, task)] = np.stack(
                [
                    (contexts[task][cols] @ weight[cols].T).astype(np.float32) - base_rows
                    for weight, contexts in models
                ]
            )


def _length_buckets(seqs: Sequence[np.ndarray]) -> list[tuple[list[int], np.ndarray]]:
    """Sequences grouped by length: (positions in `seqs`, stacked batch) per length."""
    by_length: dict[int, list[int]] = {}
    for index, seq in enumerate(seqs):
        by_length.setdefault(len(seq), []).append(index)
    return [(pos, np.stack([seqs[i] for i in pos])) for pos in by_length.values()]


def _rows_in_order(
    inputs: Sequence[np.ndarray], evaluate: Callable[[np.ndarray], np.ndarray], dtype: type
) -> np.ndarray:
    """`evaluate` on each length bucket of `inputs`, written into one `dtype`
    [rows, width] result: every input's rows, in input order."""
    starts = np.cumsum([0] + [len(seq) for seq in inputs])
    result = None
    for positions, batch in _length_buckets(inputs):
        block = evaluate(batch)
        if result is None:
            result = np.empty((starts[-1], block.shape[-1]), dtype)
        rows = starts[positions][:, None] + np.arange(batch.shape[1])
        result[rows.ravel()] = block.reshape(-1, block.shape[-1])
    return result


def _group_rows(
    group: SubmoduleGroup,
    weights: Mapping[str, np.ndarray],
    inputs: Sequence[np.ndarray],
    config: ModelConfig,
) -> np.ndarray:
    """One group's block on stored inputs under `weights` as `group_parameters`
    builds them; returns an f32 [rows, width], each input's rows in input order.

    Inputs of one length are stacked and evaluated in one call.
    """
    kind, layer = group.output_kind, group.layer

    def evaluate(batch: np.ndarray) -> np.ndarray:
        if kind == "model_logits":
            return forward_logits(config, weights, batch.astype(np.int64))
        if kind == "embed_rows":
            return weights["embed"][batch.astype(np.int64)]
        x = batch.astype(np.float64)
        if kind == "logits":
            return output_block(x, weights, config)[0]
        if kind in ("attn_branch", "head_branch"):
            return attention_block(x, weights, config, layer)[0]
        if kind == "mlp_branch":
            return mlp_block(x, weights, config, layer)[0]
        if kind == "layer_out":
            x = x + attention_block(x, weights, config, layer)[0]
            return x + mlp_block(x, weights, config, layer)[0]
        raise InputError(f"unknown output kind {kind!r}")

    return _rows_in_order(inputs, evaluate, np.float32)


def apply_group(
    group: SubmoduleGroup,
    params: Mapping[str, np.ndarray],
    inputs: Sequence[np.ndarray],
    config: ModelConfig,
) -> np.ndarray:
    """One group's function under whole tensors `params` on [seq] token or
    [seq, d_model] feature inputs; returns an f32 [rows, width] in input order."""
    if not inputs:
        raise InputError(f"group {group.id!r} needs at least one input")
    if group.output_kind not in ("model_logits", "embed_rows"):
        for arr in inputs:
            if arr.ndim != 2 or arr.shape[1] != config.d_model:
                raise InputError(
                    f"group {group.id!r} expects [seq x {config.d_model}] inputs, got {arr.shape}"
                )
    return _group_rows(group, group_parameters(group, params), inputs, config)


def _attention_weights(
    layer: int, base: Mapping[str, np.ndarray], source: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One layer's float64 attention weights: norm1 from `base`, q/k/v/o_proj from `source`."""
    norm1, *projections = (f"layers.{layer}.{name}" for name in ATTENTION_PARAMS)
    weights = {norm1: np.asarray(base[norm1], dtype=np.float64)}
    weights.update((name, np.asarray(source[name], dtype=np.float64)) for name in projections)
    return weights


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


def _traced_taps(
    base: BoundModel, batch: np.ndarray, taps: set[str]
) -> Iterator[tuple[str, np.ndarray]]:
    """The `taps` of one batched base forward pass: the tokens as given, then each
    feature tap rounded to f32 as soon as it is computed. Every other tap is dropped."""
    if "tokens" in taps:
        yield "tokens", batch
    for tap, value in forward_taps(base.config, base.weights, batch):
        if tap in taps:
            yield tap, value.astype(np.float32)


def collect_base_features(
    base: BoundModel,
    datasets: Sequence[Sequence[Sequence[int]]],
    plan: DecompositionPlan,
    sample_n: int,
    seed: int = 0,
) -> FeatureStore:
    """Sample sequences per task, trace the base model, store group inputs.

    Groups that read the same tap share its stored arrays. No base outputs
    are computed here; `FeatureStore.base_rows` computes them per group.
    """
    if sample_n < 1:
        raise SampleError(f"sample count must be >= 1, got {sample_n}")
    if plan.config != base.config:
        raise PlanError("the plan was made for another model config than the traced model's")
    store = FeatureStore(plan=plan, n_tasks=len(datasets), weights=base.weights)
    taps = {group.input_tap for group in plan.groups}
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
        values = {tap: [np.empty(0)] * len(sequences) for tap in taps}
        for positions, batch in _length_buckets(sequences):
            for tap, stacked in _traced_taps(base, batch, taps):
                for position, value in zip(positions, stacked):
                    values[tap][position] = value
        for group in plan.groups:
            store.inputs[(group.id, task)] = list(values[group.input_tap])
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
