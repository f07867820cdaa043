"""Minimal decoder-only transformer with named activation taps.

Pre-norm residual blocks: RMSNorm, multi-head causal attention with rotary
position embeddings on q/k, and a SwiGLU MLP. No biases, no dropout.
Weights are stored as [out x in] matrices applied as y = W @ x; checkpoint
values are f32, and a bound model holds the archive's own f32 arrays. Every
block upcasts its input and each weight it reads to float64 as it reads them,
so the arithmetic is float64 and a forward pass holds the float64 weights of
one block at a time, never a copy of the model. A weight matrix enters its
product only through `weight_rhs`, one C-contiguous float64 [in, out] copy:
OpenBLAS multiplies that layout 1.1-2.3x faster than the transposed view
`W.T` at fx3 shapes. An f32 weight is still copied once (the upcast), a
float64 one once more. Norm weights and activations go through `_float64`.
Kernels and blocks take any number of leading batch axes before [seq, ...].

The forward pass and the groups of `features.py` run the same blocks
(`attention_contexts`, `attention_block`, `mlp_block`, `output_block`), each
on the parameters it reads by name, or on any whole heads' slices of them.

The kernels avoid full-size temporaries where they can: `rms_norm` takes the
sum of squares with one einsum, `rope_rotate` multiplies the interleaved
pairs viewed as complex numbers by a cached complex table, `swiglu` computes
pre / (1 + exp(-pre)) in place, and `causal_attention` scales q instead of
the scores and divides the context by the softmax row sums instead of
normalizing the [seq, seq] scores. `causal_attention` applies the causal
mask without -inf, on which `np.exp` is slow: a row max over the causal
keys, a clamp at 0 and a multiply by a cached 0/1 lower triangle.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .archive import TensorArchive
from .errors import BindError, ConfigError, InputError, decode_json, require_integer, require_real

# The parameters of each layer's attention and MLP blocks, named under
# `layers.{i}.`, in the order each block reads them.
ATTENTION_PARAMS = ("norm1", "attn.q_proj", "attn.k_proj", "attn.v_proj", "attn.o_proj")
MLP_PARAMS = ("norm2", "mlp.gate_proj", "mlp.up_proj", "mlp.down_proj")
# The integer size fields of ModelConfig, each with its upper bound, and the
# bound on the parameter count they imply together. Desk scale: a checkpoint is
# held in memory (in float64 while a fixture is built), so an unbounded size
# ends in a MemoryError, or in a fixture no command can run.
MODEL_SIZES = {
    "d_model": 1024,
    "n_heads": 512,
    "n_layers": 256,
    "d_ff": 65536,
    "vocab_size": 1 << 20,
    "max_seq": 2048,
}
MAX_PARAMETERS = 1 << 24
# The most sequences one batched evaluation stacks: it bounds the float64
# temporaries of the base trace, every group evaluation and `eval_cross_entropy`.
MAX_BATCH = 16


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    vocab_size: int
    max_seq: int = 128
    norm_eps: float = 1e-5
    rope_theta: float = 10000.0

    def __post_init__(self) -> None:
        # Each field is stored as the checked Python scalar: `to_json` refuses NumPy ones.
        for field, maximum in MODEL_SIZES.items():
            value = require_integer(field, getattr(self, field), 1, ValueError, maximum)
            object.__setattr__(self, field, value)
        for field in ("norm_eps", "rope_theta"):
            value = require_real(field, getattr(self, field), ValueError)
            if value <= 0:
                raise ValueError(f"{field} must be > 0, got {value!r}")
            object.__setattr__(self, field, value)
        if self.d_model % self.n_heads != 0:
            raise ValueError("n_heads must divide d_model")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary pairing")
        n_parameters = sum(math.prod(shape) for shape in self.param_shapes().values())
        if n_parameters > MAX_PARAMETERS:
            raise ValueError(
                f"the model sizes imply {n_parameters} parameters, more than {MAX_PARAMETERS}"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Canonical parameter names and shapes, in forward-pass order."""
        d, f = self.d_model, self.d_ff
        # The shapes of ATTENTION_PARAMS, then of MLP_PARAMS.
        block = [(d,), (d, d), (d, d), (d, d), (d, d), (d,), (f, d), (f, d), (d, f)]
        shapes: dict[str, tuple[int, ...]] = {"embed": (self.vocab_size, d)}
        for i in range(self.n_layers):
            for name, shape in zip(ATTENTION_PARAMS + MLP_PARAMS, block):
                shapes[f"layers.{i}.{name}"] = shape
        shapes["norm_final"] = (self.d_model,)
        shapes["lm_head"] = (self.vocab_size, self.d_model)
        return shapes

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**decode_json(text, ConfigError, "model_config is not valid JSON"))


@dataclass(frozen=True)
class BoundModel:
    config: ModelConfig
    weights: Mapping[str, np.ndarray]


def bind_weights(archive: TensorArchive, config: ModelConfig) -> BoundModel:
    """Validate names and shapes and bind the archive's own read-only f32 arrays,
    in forward-pass order. Nothing is copied: the blocks upcast each weight to
    float64 when they read it."""
    expected = config.param_shapes()
    missing = sorted(set(expected) - set(archive.tensors))
    if missing:
        raise BindError(f"missing tensor {missing[0]!r}")
    unknown = sorted(set(archive.tensors) - set(expected))
    if unknown:
        raise BindError(f"unexpected tensor {unknown[0]!r}")
    weights: dict[str, np.ndarray] = {}
    for name, shape in expected.items():
        arr = archive.tensors[name]
        if arr.shape != shape:
            raise BindError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        weights[name] = arr
    return BoundModel(config=config, weights=weights)


def _float64(a: np.ndarray) -> np.ndarray:
    """A float64 array as it is, else a C-contiguous float64 copy: how a block reads its
    input and a norm weight. The blocks upcast first, not mixed-dtype arithmetic, which
    may round differently. A weight matrix is read by `weight_rhs` instead."""
    if a.dtype == np.float64:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


def weight_rhs(w: np.ndarray) -> np.ndarray:
    """An [out, in] weight as the right operand of `x @ W.T`: a C-contiguous float64
    [in, out] copy, made in one pass whatever `w`'s dtype and layout. OpenBLAS reads
    this layout faster than the transposed view; a new array also never aliases `w`."""
    return np.array(w.T, dtype=np.float64, order="C")


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    scale = np.einsum("...i,...i->...", x, x)[..., None]
    scale /= x.shape[-1]
    scale += eps
    np.sqrt(scale, out=scale)
    out = x / scale
    out *= weight
    return out


@functools.lru_cache(maxsize=64)
def _rope_tables(seq: int, head_dim: int, theta: float) -> np.ndarray:
    """Read-only complex cos + i*sin of every rotary angle, shaped [seq, 1, head_dim / 2]."""
    inv_freq = theta ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    angles = np.arange(seq)[:, None, None] * inv_freq[None, None, :]
    table = np.cos(angles) + 1j * np.sin(angles)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _causal_mask(seq: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only [seq, seq] lower triangles, diagonal included: bool, and float64 1/0."""
    causal = np.tri(seq, dtype=bool)
    causal01 = causal.astype(np.float64)
    causal.setflags(write=False)
    causal01.setflags(write=False)
    return causal, causal01


def rope_rotate(x: np.ndarray, theta: float) -> np.ndarray:
    """Rotary embedding over interleaved pairs; x is [..., seq, heads, head_dim].

    Each (even, odd) pair is one complex number even + i*odd, so the rotation
    is one complex product with the cached table.
    """
    table = _rope_tables(x.shape[-3], x.shape[-1], theta)
    pairs = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    return (pairs * table).view(np.float64)


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """q/k/v are [..., seq, heads, head_dim]; returns the same layout.

    The mask never puts -inf into `np.exp`, which is about 3x slower on a block
    that holds -inf: each row's max is taken over its causal keys only, the
    shifted scores are clamped at 0 so a future key cannot overflow, and the
    exp is multiplied by the 0/1 mask. The result is bit for bit the softmax
    of the -inf-biased scores: the max is the same, min(x, 0) is x on the
    causal keys, and each future key gets exactly the 0 that exp(-inf) gives.
    """
    q, k, v = (np.swapaxes(a, -3, -2) for a in (q, k, v))
    causal, causal01 = _causal_mask(q.shape[-2])
    scores = (q * (1.0 / np.sqrt(q.shape[-1]))) @ np.swapaxes(k, -1, -2)
    scores -= np.max(scores, axis=-1, keepdims=True, where=causal, initial=-np.inf)
    np.minimum(scores, 0.0, out=scores)
    np.exp(scores, out=scores)
    scores *= causal01
    ctx = scores @ v
    ctx /= scores.sum(axis=-1, keepdims=True)
    return np.swapaxes(ctx, -3, -2)


def swiglu(
    x: np.ndarray, gate: np.ndarray, up: np.ndarray, down: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SwiGLU on [..., d] with [out, in] weights; returns (output, hidden activation fed to down)."""
    pre = x @ weight_rhs(gate)
    hidden = np.negative(pre)
    # exp overflows to inf for a very negative pre-activation, giving 0 as it should.
    with np.errstate(over="ignore"):
        np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(pre, hidden, out=hidden)
    hidden *= x @ weight_rhs(up)
    return hidden @ weight_rhs(down), hidden


def attention_contexts(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> np.ndarray:
    """Attention contexts (the o_proj input) of one layer on [..., seq, d_model]
    inputs, for the whole heads whose rows q/k/v_proj hold, in order."""
    norm1, q_proj, k_proj, v_proj = (
        weights[f"layers.{layer}.{name}"] for name in ATTENTION_PARAMS[:4]
    )
    normed = rms_norm(_float64(x), _float64(norm1), config.norm_eps)

    def project(weight: np.ndarray) -> np.ndarray:
        out = normed @ weight_rhs(weight)
        return out.reshape(*out.shape[:-1], -1, config.head_dim)

    q = rope_rotate(project(q_proj), config.rope_theta)
    k = rope_rotate(project(k_proj), config.rope_theta)
    v = project(v_proj)
    # Drop the normed input before the attention scores are built.
    del normed
    ctx = causal_attention(q, k, v)
    return ctx.reshape(*ctx.shape[:-2], -1)


def attention_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Attention branch of one layer: (contexts @ o_proj.T, contexts), with the
    o_proj columns of the heads whose q/k/v_proj rows are given."""
    ctx = attention_contexts(x, weights, config, layer)
    return ctx @ weight_rhs(weights[f"layers.{layer}.attn.o_proj"]), ctx


def mlp_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """MLP branch of one layer on [..., seq, d_model]; returns (output, down_proj input)."""
    norm2, gate, up, down = (weights[f"layers.{layer}.{name}"] for name in MLP_PARAMS)
    return swiglu(rms_norm(_float64(x), _float64(norm2), config.norm_eps), gate, up, down)


def output_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Final norm and LM head on [..., seq, d_model]; returns (logits, normed hidden)."""
    hidden = rms_norm(_float64(x), _float64(weights["norm_final"]), config.norm_eps)
    return hidden @ weight_rhs(weights["lm_head"]), hidden


def forward_taps(
    config: ModelConfig, weights: Mapping[str, np.ndarray], tokens: np.ndarray
) -> Iterator[tuple[str, np.ndarray]]:
    """Every tap of the forward pass as (name, value), yielded as it is computed,
    in forward order; weights may be any float dtype, each upcast to float64
    as its block reads it.

    Tokens are [seq] or [batch, seq]; every tap keeps those leading axes and
    adds a feature axis. A tap the caller drops is freed once no later tap
    is computed from it.
    """
    x = _float64(weights["embed"])[tokens]
    for i in range(config.n_layers):
        yield f"layer_in.{i}", x
        yield f"attn_in.{i}", x
        attn_out, ctx = attention_block(x, weights, config, i)
        yield f"oproj_in.{i}", ctx
        yield f"attn_out.{i}", attn_out
        x = x + attn_out
        yield f"mlp_in.{i}", x
        mlp_out, hidden = mlp_block(x, weights, config, i)
        yield f"dproj_in.{i}", hidden
        yield f"mlp_out.{i}", mlp_out
        x = x + mlp_out
        yield f"layer_out.{i}", x
        # The next layer reads only x: free this layer's branch taps first.
        del attn_out, ctx, mlp_out, hidden
    logits, hidden = output_block(x, weights, config)
    yield "logits", logits
    yield "final_hidden", hidden


def forward_pass(
    config: ModelConfig, weights: Mapping[str, np.ndarray], tokens: np.ndarray
) -> dict[str, np.ndarray]:
    """Every tap of `forward_taps`, held at once in one dict keyed by name."""
    return dict(forward_taps(config, weights, tokens))


def forward_logits(
    config: ModelConfig, weights: Mapping[str, np.ndarray], tokens: np.ndarray
) -> np.ndarray:
    """The logits of `forward_taps`; every other tap is dropped as it is computed."""
    return next(value for tap, value in forward_taps(config, weights, tokens) if tap == "logits")


def validated_tokens(config: ModelConfig, tokens: Sequence[int]) -> np.ndarray:
    """`tokens` as a 1-D int64 array of 1..max_seq ids below vocab_size, else `InputError`.
    Floats and bools are refused, not cast: a cast would read 1.7 as token 1."""
    try:
        arr = np.asarray(tokens)
    except (OverflowError, TypeError, ValueError):
        arr = None
    if arr is None or (arr.size and arr.dtype.kind not in "iu"):
        raise InputError("tokens must be integers in int64 range")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("tokens must be a non-empty 1-D sequence")
    if arr.size > config.max_seq:
        raise InputError(f"sequence length {arr.size} exceeds max_seq {config.max_seq}")
    if arr.min() < 0 or arr.max() >= config.vocab_size:
        raise InputError("token id out of range")
    return arr


def length_buckets(seqs: Sequence[np.ndarray]) -> Iterator[tuple[list[int], np.ndarray]]:
    """Sequences grouped by length, each length in input-order slices of at most
    `MAX_BATCH`: (positions in `seqs`, stacked batch) per slice, stacked as read."""
    by_length: dict[int, list[int]] = {}
    for index, seq in enumerate(seqs):
        by_length.setdefault(len(seq), []).append(index)
    for positions in by_length.values():
        for start in range(0, len(positions), MAX_BATCH):
            part = positions[start : start + MAX_BATCH]
            yield part, np.stack([seqs[i] for i in part])


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a finite [rows, n] array, bit-equal to SciPy 1.17's
    `scipy.special.logsumexp(a, axis=1)` by the same steps: the row max and the count m
    of entries equal to it are taken out of the sum, s sums exp(a - max) over the other
    entries, and the result is log1p(s / m) + log(m) + max. On finite rows m >= 1, so
    s / m is already 0 where SciPy keeps s = 0."""
    a_max = np.max(a, axis=1, keepdims=True)
    at_max = a == a_max
    m = np.count_nonzero(at_max, axis=1, keepdims=True).astype(a.dtype)
    s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def eval_cross_entropy(model: BoundModel, dataset: Sequence[Sequence[int]]) -> float:
    """Mean next-token cross-entropy in nats, pooled over all positions.

    Every sequence is checked first. Then each `length_buckets` batch runs
    one forward pass, each sequence's loss is summed on its own, and the
    sums are added in dataset order.
    """
    if len(dataset) == 0:
        raise InputError("empty dataset")
    seqs = []
    for seq in dataset:
        arr = validated_tokens(model.config, seq)
        if arr.size < 2:
            raise InputError("sequences must have length >= 2 to score next tokens")
        seqs.append(arr)
    sums = [0.0] * len(seqs)
    for positions, batch in length_buckets(seqs):
        batch_logits = forward_logits(model.config, model.weights, batch)
        for position, arr, logits in zip(positions, batch, batch_logits):
            logits, targets = logits[:-1], arr[1:]
            sums[position] = float(
                np.sum(logsumexp_rows(logits) - logits[np.arange(len(targets)), targets])
            )
    # Left to right, as a loop over the sequences adds (`sum` compensates from Python 3.12).
    total = 0.0
    for loss in sums:
        total += loss
    return total / sum(len(arr) - 1 for arr in seqs)
