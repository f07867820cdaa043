"""Synthetic checkpoint families and task datasets for desk-scale runs.

A fixture is one random base checkpoint, T "fine-tuned" variants, and T
token datasets with distinct per-task frequency biases. The variants are
shaped like real task vectors rather than white noise: most of each
direction sits on the attention and MLP output projections as rank-one
updates whose input side follows the mean branch activation on the task's
data and whose shared output side points at the task's frequent-token
logits. That structure keeps each branch close to linear in its own
parameters while the composed model is not, and makes every variant beat
the base on its own dataset, so linearity analysis and merge quality are
both measurable with cross entropy at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import TensorArchive, combine, write_archive
from .errors import DataError, ParamError, decode_json, io_boundary, is_integer, record_digest
from .errors import require_integer, require_real, write_file, write_json
from .model import BoundModel, ModelConfig, bind_weights, forward_taps

DIRICHLET_CONC = 0.5

# Frobenius share of each tensor role within one task direction; the whole
# direction is normalized to unit global Frobenius norm afterwards, so only
# the ratios matter. Output projections carry the task signal; the small
# inner-matrix share keeps submodules measurably (not exactly) non-linear.
DIRECTION_SHARES = {
    "output_proj": 1.0,
    "inner_matrix": 0.1,
    "norm_gain": 0.02,
    "embed": 0.2,
    "lm_head": 0.1,
}
ALIGNED_MIX = 0.9  # aligned rank-one fraction on output projections
STATS_SEQUENCES = 4  # sequences used for mean-activation statistics
# Desk-scale bounds: a fixture holds one checkpoint and one dataset per task in
# memory, so an unbounded count ends in a MemoryError or a run of hours.
MAX_TASKS = 64
MAX_DATASET_SIZE = 10_000


@dataclass(frozen=True)
class FixtureSpec:
    config: ModelConfig
    n_tasks: int = 2
    tau_scale: float = 0.5
    dataset_size: int = 16
    seq_len: int = 12
    seed: int = 0

    def __post_init__(self):
        # Each field is stored as the checked Python scalar: `to_json_dict` feeds
        # `json.dumps`, which refuses NumPy ones. Cross entropy needs seq_len >= 2.
        bounds = (
            ("n_tasks", 1, MAX_TASKS),
            ("dataset_size", 1, MAX_DATASET_SIZE),
            ("seq_len", 2, None),
            ("seed", 0, None),
        )
        for name, minimum, maximum in bounds:
            value = require_integer(name, getattr(self, name), minimum, ParamError, maximum)
            object.__setattr__(self, name, value)
        tau_scale = require_real("tau_scale", self.tau_scale, ParamError)
        if tau_scale < 0:
            raise ParamError(f"tau_scale must be finite and >= 0, got {tau_scale}")
        object.__setattr__(self, "tau_scale", tau_scale)
        if self.seq_len > self.config.max_seq:
            raise ParamError(
                f"seq_len {self.seq_len} exceeds model max_seq {self.config.max_seq}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FixtureSpec":
        """The spec `to_json_dict` wrote; a field left out takes its default."""
        try:
            fields = dict(payload)
            return cls(config=ModelConfig(**fields.pop("config")), **fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParamError(f"malformed fixture spec: {exc}") from exc


@dataclass
class Fixture:
    spec: FixtureSpec
    base: TensorArchive
    models: list[TensorArchive]
    datasets: list[list[list[int]]]


def _base_checkpoint(config: ModelConfig, rng: np.random.Generator) -> TensorArchive:
    tensors = {}
    scale = 0.02 / np.sqrt(config.d_model)
    for name, shape in config.param_shapes().items():
        tensors[name] = np.ones(shape) if len(shape) == 1 else scale * rng.normal(size=shape)
    return TensorArchive(tensors=tensors, meta={"model_config": config.to_json()})


def _unit_frobenius(arr: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(arr)
    return arr / norm if norm > 0 else arr


def _tensor_role(name: str, ndim: int) -> str:
    if name == "embed":
        return "embed"
    if name == "lm_head":
        return "lm_head"
    if ndim == 1:
        return "norm_gain"
    if name.endswith("o_proj") or name.endswith("down_proj"):
        return "output_proj"
    return "inner_matrix"


def _branch_input_means(
    base: BoundModel, dataset: list[list[int]]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per layer, the mean o_proj input row and mean down_proj input row
    of the base model on the task's data, each normalized: the per-sequence
    token means of one batched trace, summed over sequences."""
    batch = np.asarray(dataset[:STATS_SEQUENCES], dtype=np.int64)
    means = {
        tap: _unit_frobenius(value.mean(axis=1).sum(axis=0))
        for tap, value in forward_taps(base.config, base.weights, batch)
        if tap.startswith(("oproj_in.", "dproj_in."))
    }
    layers = range(base.config.n_layers)
    return tuple([means[f"{tap}.{i}"] for i in layers] for tap in ("oproj_in", "dproj_in"))


def _task_direction(
    base: TensorArchive,
    bound: BoundModel,
    probs: np.ndarray,
    dataset: list[list[int]],
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Direction archive of unit global Frobenius norm for one task.

    Output projections get rank-one updates outer(readout, mean input):
    they fire on typical task activations and push the residual stream
    toward the direction whose logits favor the task's frequent tokens.
    The unembedding mixes in a component with the same effect; everything
    else is a small random displacement.
    """
    lm_head = base.tensors["lm_head"].astype(np.float64)
    readout = _unit_frobenius(lm_head.T @ (probs - 1.0 / probs.size))
    attn_means, mlp_means = _branch_input_means(bound, dataset)
    direction = {}
    for name, arr in base.tensors.items():
        random_part = _unit_frobenius(rng.normal(size=arr.shape))
        role = _tensor_role(name, arr.ndim)
        if role == "output_proj":
            layer = int(name.split(".")[1])
            inputs = attn_means[layer] if name.endswith("o_proj") else mlp_means[layer]
            aligned = np.outer(readout, inputs)
            tensor = _unit_frobenius(
                ALIGNED_MIX * aligned + (1.0 - ALIGNED_MIX) * random_part
            )
        elif role == "lm_head":
            mean_embed = probs @ base.tensors["embed"].astype(np.float64)
            aligned = np.outer(probs - 1.0 / probs.size, mean_embed)
            tensor = random_part
            if np.linalg.norm(aligned) > 1e-12:
                tensor = _unit_frobenius(random_part + _unit_frobenius(aligned))
        else:
            tensor = random_part
        direction[name] = DIRECTION_SHARES[role] * tensor
    total = np.sqrt(sum(float(np.sum(np.square(t))) for t in direction.values()))
    return {name: tensor / total for name, tensor in direction.items()}


def build_fixture(spec: FixtureSpec) -> Fixture:
    """Deterministic in-memory fixture; every component has its own stream."""
    config = spec.config
    base = _base_checkpoint(config, np.random.default_rng([spec.seed, 0]))
    bound = bind_weights(base, config)
    models = []
    datasets = []
    for task in range(spec.n_tasks):
        data_rng = np.random.default_rng([spec.seed, 1, task])
        probs = data_rng.dirichlet(np.full(config.vocab_size, DIRICHLET_CONC))
        datasets.append(
            [
                data_rng.choice(config.vocab_size, size=spec.seq_len, p=probs).tolist()
                for _ in range(spec.dataset_size)
            ]
        )
        direction = _task_direction(
            base, bound, probs, datasets[task], np.random.default_rng([spec.seed, 2, task])
        )
        # |direction| <= 1 keeps the float64 sum finite; the archive rejects float32 overflow.
        tensors = {
            name: combine(base.tensors[name], [d], [spec.tau_scale]) for name, d in direction.items()
        }
        try:
            models.append(TensorArchive(tensors=tensors, meta=base.meta))
        except DataError as exc:
            raise ParamError(f"tau_scale {spec.tau_scale} is too large: {exc}") from None
    return Fixture(spec, base, models, datasets)


def write_dataset(
    path: str | Path, task: str, sequences: Sequence[Sequence[int]], digests: dict | None = None
) -> None:
    """`sequences` written to `path` as JSONL by `write_file`."""
    lines = [
        json.dumps({"task": task, "tokens": [int(t) for t in seq]}, sort_keys=True)
        for seq in sequences
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    write_file(path, data, digests, f"cannot write dataset {path}")


def read_dataset(path: str | Path, digests: dict | None = None) -> list[list[int]]:
    """Token sequences from a JSONL file of {"task": ..., "tokens": [...]};
    `record_digest` records the bytes parsed."""
    with io_boundary(f"cannot read dataset {path}"):
        blob = Path(path).read_bytes()
    record_digest(digests, path, blob)
    sequences = []
    for lineno, line in enumerate(blob.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        record = decode_json(line, DataError, f"{where}: malformed dataset line")
        tokens = record.get("tokens") if isinstance(record, dict) else None
        if not isinstance(tokens, list) or not all(map(is_integer, tokens)):
            raise DataError(f"{where}: tokens must be a list of ints")
        sequences.append(tokens)
    if not sequences:
        raise DataError(f"{path}: dataset holds no sequences")
    return sequences


def gen_fixture(spec: FixtureSpec, out_dir: str | Path) -> dict:
    """Build the fixture, then write it with `write_fixture`; a failed build leaves
    no directory behind. Outputs are byte-identical across reruns with the same spec."""
    return write_fixture(build_fixture(spec), out_dir)


def write_fixture(fixture: Fixture, out_dir: str | Path) -> dict:
    """Write base.ta, task{t}.ta, task{t}.jsonl and a fixture.json manifest."""
    spec = fixture.spec
    out = Path(out_dir)
    with io_boundary(f"cannot create fixture dir {out}"):
        out.mkdir(parents=True, exist_ok=True)
    paths = {
        "base": out / "base.ta",
        "models": [out / f"task{t}.ta" for t in range(spec.n_tasks)],
        "datasets": [out / f"task{t}.jsonl" for t in range(spec.n_tasks)],
        "manifest": out / "fixture.json",
    }
    digests: dict[Path, str] = {}
    write_archive(fixture.base, paths["base"], digests)
    for t in range(spec.n_tasks):
        write_archive(fixture.models[t], paths["models"][t], digests)
        write_dataset(paths["datasets"][t], f"task{t}", fixture.datasets[t], digests)
    tracked = [paths["base"], *paths["models"], *paths["datasets"]]
    manifest = {
        "spec": spec.to_json_dict(),
        "files": {
            "base": paths["base"].name,
            "models": [p.name for p in paths["models"]],
            "datasets": [p.name for p in paths["datasets"]],
        },
        "digests": {p.name: digests[p] for p in tracked},
    }
    write_json(paths["manifest"], manifest)
    return paths
