"""Output deltas by their definition, as an oracle for `DeltaStore`.

A group's delta on fine-tuned model t is the change in that submodule's
output, on the base model's inputs, when only the group's parameters come
from model t. Here it is computed the long way, with none of the feature
store's machinery (stored f32 inputs, length buckets, group parameter
slices, head contexts, held base rows):

1. copy the base weights and write in the group's owned slices from model t;
   every earlier parameter is still the base's, so the group sees the base's
   input;
2. run the whole forward pass (`forward_taps`, itself checked against
   `reference_forward.py`) on each sampled sequence, one at a time;
3. the group's output tap minus the base's is its delta: `logits` for the
   model and `lm_head` groups, `layer_in.0` (the embedding rows) for `embed`,
   and `layer_out.i`, `attn_out.i` or `mlp_out.i` for the layer blocks;
4. for a head group, the other heads' o_proj columns are zeroed in both
   weight sets, so that `attn_out.i` is that head's branch alone.

    PYTHONPATH=src python tests/reference_deltas.py [--tau-scale 0.0005]

prints, per level and output kind, the largest max |store - oracle| /
max |oracle| over every group of that kind, data task and model.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from submerge.archive import TensorArchive
from submerge.decompose import Granularity, SubmoduleGroup, plan_decomposition
from submerge.features import collect_base_features, compute_delta_outputs
from submerge.fixtures import FixtureSpec, build_fixture
from submerge.model import ModelConfig, bind_weights, forward_taps

CONFIG = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, vocab_size=11, max_seq=16)
SEED = 3
SAMPLES_PER_TASK = 4
OUTPUT_KINDS = (
    "model_logits", "embed_rows", "logits", "layer_out", "attn_branch", "mlp_branch", "head_branch",
)


def output_tap(group: SubmoduleGroup) -> str:
    """The forward-pass tap that is the group's output."""
    taps = {
        "model_logits": "logits",
        "logits": "logits",
        "embed_rows": "layer_in.0",
        "layer_out": f"layer_out.{group.layer}",
        "attn_branch": f"attn_out.{group.layer}",
        "head_branch": f"attn_out.{group.layer}",
        "mlp_branch": f"mlp_out.{group.layer}",
    }
    return taps[group.output_kind]


def oracle_deltas(
    group: SubmoduleGroup,
    base: TensorArchive,
    model: TensorArchive,
    config: ModelConfig,
    sequences: Sequence[Sequence[int]],
) -> np.ndarray:
    """Float64 [rows, width]: the group's delta on `model`, every sequence's rows in order."""
    base_weights = {name: arr.astype(np.float64) for name, arr in base.tensors.items()}
    model_weights = dict(base_weights)
    for name, index in group.params.items():
        model_weights[name] = base_weights[name].copy()
        model_weights[name][index] = model.tensors[name][index]
    if group.output_kind == "head_branch":
        o_proj = f"layers.{group.layer}.attn.o_proj"
        cols = group.params[o_proj]
        for weights in (base_weights, model_weights):
            head_only = np.zeros_like(weights[o_proj])
            head_only[cols] = weights[o_proj][cols]
            weights[o_proj] = head_only
    tap = output_tap(group)

    def output(weights: dict, tokens: np.ndarray) -> np.ndarray:
        return next(value for name, value in forward_taps(config, weights, tokens) if name == tap)

    return np.concatenate(
        [
            output(model_weights, np.asarray(seq)) - output(base_weights, np.asarray(seq))
            for seq in sequences
        ]
    )


def delta_errors(tau_scale: float) -> dict[str, dict[str, float]]:
    """Per level and output kind, the largest max |store - oracle| / max |oracle|
    over every group of that kind, data task and model."""
    spec = FixtureSpec(config=CONFIG, n_tasks=2, tau_scale=tau_scale, dataset_size=8, seed=SEED)
    fixture = build_fixture(spec)
    # Ragged lengths, so that the store's length buckets are exercised.
    datasets = [[seq[: 5 + i % 4] for i, seq in enumerate(data)] for data in fixture.datasets]
    bound = bind_weights(fixture.base, CONFIG)
    errors: dict[str, dict[str, float]] = {}
    for level in Granularity:
        plan = plan_decomposition(CONFIG, level)
        store = collect_base_features(bound, datasets, plan, SAMPLES_PER_TASK, seed=SEED)
        deltas = compute_delta_outputs(store, fixture.base, fixture.models, plan)
        level_errors = errors[level.value] = {}
        for group in plan.groups:
            for task, blocks in enumerate(deltas.grouped(group.id)):
                sequences = [datasets[task][i] for i in store.sampled[task]]
                for block, model in zip(blocks, fixture.models):
                    oracle = oracle_deltas(group, fixture.base, model, CONFIG, sequences)
                    error = np.max(np.abs(block - oracle)) / np.max(np.abs(oracle))
                    kind = group.output_kind
                    level_errors[kind] = max(level_errors.get(kind, 0.0), float(error))
    return errors


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tau-scale", type=float, default=0.5)
    args = parser.parse_args(argv)
    errors = delta_errors(args.tau_scale)
    print(f"tau_scale {args.tau_scale}: max |store - oracle| / max |oracle|")
    print(f"{'level':<10}" + "".join(f"{kind:>14}" for kind in OUTPUT_KINDS))
    for level, by_kind in errors.items():
        cells = (f"{by_kind[k]:>14.2e}" if k in by_kind else f"{'-':>14}" for k in OUTPUT_KINDS)
        print(f"{level:<10}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
