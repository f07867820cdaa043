"""Minimal decoder-only transformer with named activation taps.

Pre-norm residual blocks: RMSNorm, multi-head causal attention with rotary
position embeddings on q/k, and a SwiGLU MLP. No biases, no dropout.
Weights are stored as [out x in] matrices applied as y = W @ x; checkpoint
values are f32 and upcast to float64 for the actual arithmetic. Kernels and
blocks take any number of leading batch axes before [seq, ...].

The forward pass and the groups of `features.py` run the same blocks
(`attention_contexts`, `attention_block`, `mlp_block`, `output_block`), each
on the parameters it reads by name, or on any whole heads' slices of them.

The kernels avoid full-size temporaries where they can: `rms_norm` takes the
sum of squares with one einsum, `rope_rotate` multiplies the interleaved
pairs viewed as complex numbers by a cached complex table, `swiglu` computes
pre / (1 + exp(-pre)) in place, and `causal_attention` scales q instead of
the scores and divides the context by the softmax row sums instead of
normalizing the [seq, seq] scores.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .archive import TensorArchive
from .errors import BindError, ConfigError, InputError, decode_json

# The parameters of each layer's attention and MLP blocks, named under
# `layers.{i}.`, in the order each block reads them.
ATTENTION_PARAMS = ("norm1", "attn.q_proj", "attn.k_proj", "attn.v_proj", "attn.o_proj")
MLP_PARAMS = ("norm2", "mlp.gate_proj", "mlp.up_proj", "mlp.down_proj")
# The integer size fields of ModelConfig.
MODEL_SIZES = ("d_model", "n_heads", "n_layers", "d_ff", "vocab_size", "max_seq")


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
        for field in MODEL_SIZES:
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{field} must be >= 1")
        for field in ("norm_eps", "rope_theta"):
            value = getattr(self, field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{field} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{field} must be positive and finite")
        if self.d_model % self.n_heads != 0:
            raise ValueError("n_heads must divide d_model")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary pairing")

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
    """Validate names and shapes, upcast to float64, freeze."""
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
        weights[name] = np.ascontiguousarray(arr, dtype=np.float64)
    return BoundModel(config=config, weights=weights)


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
def _causal_bias(seq: int) -> np.ndarray:
    """Read-only [seq, seq] additive mask: 0 on and below the diagonal, -inf above."""
    bias = np.triu(np.full((seq, seq), -np.inf), k=1)
    bias.setflags(write=False)
    return bias


def rope_rotate(x: np.ndarray, theta: float) -> np.ndarray:
    """Rotary embedding over interleaved pairs; x is [..., seq, heads, head_dim].

    Each (even, odd) pair is one complex number even + i*odd, so the rotation
    is one complex product with the cached table.
    """
    table = _rope_tables(x.shape[-3], x.shape[-1], theta)
    pairs = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    return (pairs * table).view(np.float64)


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """q/k/v are [..., seq, heads, head_dim]; returns the same layout."""
    q, k, v = (np.swapaxes(a, -3, -2) for a in (q, k, v))
    scores = (q * (1.0 / np.sqrt(q.shape[-1]))) @ np.swapaxes(k, -1, -2)
    scores += _causal_bias(q.shape[-2])
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    ctx = scores @ v
    ctx /= scores.sum(axis=-1, keepdims=True)
    return np.swapaxes(ctx, -3, -2)


def swiglu(
    x: np.ndarray, gate: np.ndarray, up: np.ndarray, down: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SwiGLU on [..., d]; returns (output, hidden activation fed to down)."""
    pre = x @ gate.T
    hidden = np.negative(pre)
    # exp overflows to inf for a very negative pre-activation, giving 0 as it should.
    with np.errstate(over="ignore"):
        np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(pre, hidden, out=hidden)
    hidden *= x @ up.T
    return hidden @ down.T, hidden


def attention_contexts(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> np.ndarray:
    """Attention contexts (the o_proj input) of one layer on [..., seq, d_model]
    inputs, for the whole heads whose rows q/k/v_proj hold, in order."""
    norm1, q_proj, k_proj, v_proj = (
        weights[f"layers.{layer}.{name}"] for name in ATTENTION_PARAMS[:4]
    )
    normed = rms_norm(x, norm1, config.norm_eps)

    def project(weight: np.ndarray) -> np.ndarray:
        out = normed @ weight.T
        return out.reshape(*out.shape[:-1], -1, config.head_dim)

    q = rope_rotate(project(q_proj), config.rope_theta)
    k = rope_rotate(project(k_proj), config.rope_theta)
    ctx = causal_attention(q, k, project(v_proj))
    return ctx.reshape(*ctx.shape[:-2], -1)


def attention_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Attention branch of one layer: (contexts @ o_proj.T, contexts), with the
    o_proj columns of the heads whose q/k/v_proj rows are given."""
    ctx = attention_contexts(x, weights, config, layer)
    return ctx @ weights[f"layers.{layer}.attn.o_proj"].T, ctx


def mlp_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig, layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """MLP branch of one layer on [..., seq, d_model]; returns (output, down_proj input)."""
    norm2, gate, up, down = (weights[f"layers.{layer}.{name}"] for name in MLP_PARAMS)
    return swiglu(rms_norm(x, norm2, config.norm_eps), gate, up, down)


def output_block(
    x: np.ndarray, weights: Mapping[str, np.ndarray], config: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Final norm and LM head on [..., seq, d_model]; returns (logits, normed hidden)."""
    hidden = rms_norm(x, weights["norm_final"], config.norm_eps)
    return hidden @ np.asarray(weights["lm_head"], dtype=np.float64).T, hidden


def forward_taps(
    config: ModelConfig, weights: Mapping[str, np.ndarray], tokens: np.ndarray
) -> Iterator[tuple[str, np.ndarray]]:
    """Every tap of the forward pass as (name, value), yielded as it is computed,
    in forward order; weights may be any float dtype.

    Tokens are [seq] or [batch, seq]; every tap keeps those leading axes and
    adds a feature axis. A tap the caller drops is freed once no later tap
    is computed from it.
    """
    x = np.asarray(weights["embed"], dtype=np.float64)[tokens]
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
    try:
        arr = np.asarray(tokens, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise InputError("tokens must be integers in int64 range") from None
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("tokens must be a non-empty 1-D sequence")
    if arr.size > config.max_seq:
        raise InputError(f"sequence length {arr.size} exceeds max_seq {config.max_seq}")
    if arr.min() < 0 or arr.max() >= config.vocab_size:
        raise InputError("token id out of range")
    return arr


def eval_cross_entropy(model: BoundModel, dataset: Sequence[Sequence[int]]) -> float:
    """Mean next-token cross-entropy in nats, pooled over all positions."""
    if len(dataset) == 0:
        raise InputError("empty dataset")
    total = 0.0
    count = 0
    for seq in dataset:
        arr = validated_tokens(model.config, seq)
        if arr.size < 2:
            raise InputError("sequences must have length >= 2 to score next tokens")
        logits = forward_logits(model.config, model.weights, arr)[:-1]
        targets = arr[1:]
        total += float(np.sum(logsumexp(logits, axis=1) - logits[np.arange(len(targets)), targets]))
        count += len(targets)
    return total / count
