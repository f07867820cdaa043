"""Merge two fine-tuned checkpoints four ways and score each result.

Weight averaging and task arithmetic use one global coefficient. DARE drops
task-vector entries at random and rescales the survivors. The linear-solve
merge decomposes the model, solves per-group coefficients in closed form,
and recombines slice by slice. Scoring is mean next-token cross-entropy on
each task's dataset; lower is better, and a good merge stays close to each
specialist on its own task.
"""

import numpy as np

from submerge import (
    FixtureSpec,
    ModelConfig,
    bind_weights,
    build_fixture,
    eval_cross_entropy,
    merge_dare,
    merge_linear_solve,
    merge_task_arithmetic,
    merge_weight_average,
)

config = ModelConfig(
    d_model=32, n_heads=4, n_layers=4, d_ff=64, vocab_size=64, max_seq=32
)
spec = FixtureSpec(
    config=config, n_tasks=2, tau_scale=0.5, dataset_size=8, seq_len=12, seed=2
)
fixture = build_fixture(spec)


def losses(archive):
    model = bind_weights(archive, config)
    return [eval_cross_entropy(model, ds) for ds in fixture.datasets]


candidates = {
    "base": fixture.base,
    "model 0": fixture.models[0],
    "model 1": fixture.models[1],
    "weight_avg": merge_weight_average(fixture.base, fixture.models),
    **{
        f"task_arith a={a}": merge_task_arithmetic(fixture.base, fixture.models, alpha=a)
        for a in (0.5, 0.7, 1.0)
    },
    "dare p=0.5 a=0.5": merge_dare(fixture.base, fixture.models, alpha=0.5, drop_p=0.5, seed=0),
}
merged, weights = merge_linear_solve(
    fixture.base,
    fixture.models,
    level="attn_mlp",
    datasets=fixture.datasets,
    samples_per_task=6,
    seed=0,
)
candidates["linear_solve"] = merged

print(f"{'candidate':>18}  {'task 0':>8}  {'task 1':>8}  {'mean':>8}")
means = {}
for name, archive in candidates.items():
    vals = losses(archive)
    means[name] = np.mean(vals)
    print(f"{name:>18}  {vals[0]:8.4f}  {vals[1]:8.4f}  {means[name]:8.4f}")

n_fallback = sum(g.fallback for g in weights.groups)
print(f"\nlinear_solve solved {len(weights.groups)} groups ({n_fallback} fallbacks)")
merges = [name for name in candidates if name not in ("base", "model 0", "model 1")]
print(f"Lowest mean among the merges: {min(merges, key=means.get)}")
