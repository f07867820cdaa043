"""Transformer forward pass against an independent oracle, plus contracts."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from submerge import BindError, InputError, TensorArchive
from submerge.model import ModelConfig, bind_weights, eval_cross_entropy, forward_pass
from submerge.model import causal_attention, rms_norm, rope_rotate, swiglu, validated_tokens

from conftest import random_checkpoint
from reference_forward import reference_forward

TOKENS = [3, 1, 4, 1, 5, 9, 2, 6]


@pytest.fixture(scope="module")
def bound(tiny_config, tiny_checkpoint):
    return bind_weights(tiny_checkpoint, tiny_config)


def forward(model, tokens) -> dict[str, np.ndarray]:
    return forward_pass(model.config, model.weights, np.asarray(tokens))


def reference_config(config: ModelConfig) -> dict:
    return {
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "n_layers": config.n_layers,
        "d_ff": config.d_ff,
        "vocab_size": config.vocab_size,
        "norm_eps": config.norm_eps,
        "rope_theta": config.rope_theta,
    }


class TestOracle:
    def test_matches_straight_line_reference(self, tiny_config, tiny_checkpoint, bound):
        taps = forward(bound, TOKENS)
        weights = {k: v.astype(np.float64) for k, v in tiny_checkpoint.tensors.items()}
        ref = reference_forward(weights, reference_config(tiny_config), TOKENS)
        np.testing.assert_allclose(taps["logits"], ref["logits"], atol=1e-5)
        assert set(ref["taps"]) == set(taps)
        for tap, expected in ref["taps"].items():
            np.testing.assert_allclose(taps[tap], expected, atol=1e-5, err_msg=f"tap {tap}")

    def test_batched_tokens_match_rows_and_reference(self, tiny_config, tiny_checkpoint, bound):
        batch = np.array([TOKENS, TOKENS[::-1], [0] * len(TOKENS)])
        taps = forward_pass(tiny_config, bound.weights, batch)
        weights = {k: v.astype(np.float64) for k, v in tiny_checkpoint.tensors.items()}
        for row, tokens in enumerate(batch):
            single = forward_pass(tiny_config, bound.weights, tokens)
            ref = reference_forward(weights, reference_config(tiny_config), tokens.tolist())
            assert set(taps) == set(single) == set(ref["taps"])
            for tap, value in taps.items():
                np.testing.assert_array_equal(value[row], single[tap], err_msg=f"tap {tap}")
                np.testing.assert_allclose(
                    value[row], ref["taps"][tap], atol=1e-5, err_msg=f"tap {tap}"
                )

    def test_single_token_single_layer_shapes(self):
        config = ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, vocab_size=11, max_seq=4)
        model = bind_weights(random_checkpoint(config, seed=1), config)
        taps = forward(model, [5])
        assert taps["logits"].shape == (1, 11)
        for tap in ["layer_in.0", "attn_out.0", "oproj_in.0", "mlp_out.0", "layer_out.0"]:
            assert taps[tap].shape == (1, 8)

    def test_zero_weights_give_zero_logits(self, tiny_config):
        zeros = TensorArchive(
            tensors={
                name: np.zeros(shape, dtype=np.float32)
                for name, shape in tiny_config.param_shapes().items()
            },
            meta={},
        )
        model = bind_weights(zeros, tiny_config)
        assert not forward(model, TOKENS)["logits"].any()


# Straight-line formulas the kernels are checked against.
def reference_rms_norm(x, weight, eps):
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / scale * weight


def reference_rope(x, theta):
    seq, head_dim = x.shape[-3], x.shape[-1]
    inv_freq = theta ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    angles = np.arange(seq)[:, None, None] * inv_freq[None, None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def reference_attention(q, k, v):
    q, k, v = (np.swapaxes(a, -3, -2) for a in (q, k, v))
    seq = q.shape[-2]
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= np.sqrt(q.shape[-1])
    scores += np.triu(np.full((seq, seq), -np.inf), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return np.swapaxes(scores @ v, -3, -2)


def reference_swiglu(x, gate, up, down):
    pre = x @ gate.T
    hidden = pre * expit(pre) * (x @ up.T)
    return hidden @ down.T, hidden


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def assert_close(got, expected):
    """rtol 1e-12, plus the same bound against the largest entry for entries that cancel to near 0."""
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestKernels:
    """Each kernel against its straight-line formula, with two leading batch axes."""

    def test_rms_norm(self, rng):
        x = rng.normal(size=(3, 2, 5, 16))
        weight = rng.normal(size=16)
        assert_close(rms_norm(x, weight, 1e-5), reference_rms_norm(x, weight, 1e-5))

    def test_rms_norm_of_zero_row_is_zero(self, rng):
        x = np.zeros((2, 3, 16))
        x[0, 1] = rng.normal(size=16)
        out = rms_norm(x, np.ones(16), 1e-5)
        np.testing.assert_array_equal(out[1], 0.0)
        np.testing.assert_array_equal(out[0, 0], 0.0)

    @pytest.mark.parametrize("heads", [1, 8])
    def test_rope_rotate(self, heads, rng):
        x = rng.normal(size=(3, 2, 5, heads, 8))
        assert_close(rope_rotate(x, 1e4), reference_rope(x, 1e4))

    @pytest.mark.parametrize("heads", [1, 8])
    def test_causal_attention(self, heads, rng):
        q, k, v = (rng.normal(size=(3, 2, 5, heads, 8)) for _ in range(3))
        assert_close(causal_attention(q, k, v), reference_attention(q, k, v))

    def test_causal_attention_with_large_scores_is_finite(self, rng):
        # Entries of 30 give scores q.k / sqrt(8) of about 1e3.
        q, k, v = (rng.normal(size=(3, 2, 5, 2, 8)) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = causal_attention(30 * q, 30 * k, v)
        assert np.isfinite(out).all()

    def test_swiglu(self, rng):
        x = rng.normal(size=(3, 2, 5, 16))
        gate, up = rng.normal(size=(2, 32, 16))
        down = rng.normal(size=(16, 32))
        for got, expected in zip(swiglu(x, gate, up, down), reference_swiglu(x, gate, up, down)):
            assert_close(got, expected)

    def test_swiglu_saturates_without_warning(self, rng):
        # gate = 1e3 * I makes the pre-activations exactly +-1e3.
        x = np.array([[1.0, -1.0, 0.0], [-1.0, 0.5, 1.0]])
        gate = 1e3 * np.eye(3)
        up = rng.normal(size=(3, 3))
        down = np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, hidden = swiglu(x, gate, up, down)
        pre = x @ gate.T
        np.testing.assert_array_equal(hidden, pre * expit(pre) * (x @ up.T))


class TestBind:
    def test_missing_tensor_named(self, tiny_config, tiny_checkpoint):
        broken = dict(tiny_checkpoint.tensors)
        del broken["lm_head"]
        with pytest.raises(BindError, match="lm_head"):
            bind_weights(TensorArchive(tensors=broken, meta={}), tiny_config)

    def test_bad_shape_named(self, tiny_config, tiny_checkpoint):
        broken = dict(tiny_checkpoint.tensors)
        broken["layers.0.attn.q_proj"] = np.zeros((8, 9), dtype=np.float32)
        with pytest.raises(BindError, match="layers.0.attn.q_proj"):
            bind_weights(TensorArchive(tensors=broken, meta={}), tiny_config)

    def test_unknown_tensor_rejected(self, tiny_config, tiny_checkpoint):
        extra = dict(tiny_checkpoint.tensors)
        extra["mystery"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(BindError, match="mystery"):
            bind_weights(TensorArchive(tensors=extra, meta={}), tiny_config)


class TestForwardContracts:
    def test_causality(self, bound):
        base = forward(bound, TOKENS)["logits"]
        for j in range(len(TOKENS)):
            mutated = list(TOKENS)
            mutated[j] = (mutated[j] + 1) % 11
            changed = forward(bound, mutated)["logits"]
            np.testing.assert_array_equal(base[:j], changed[:j])

    def test_determinism(self, bound):
        a = forward(bound, TOKENS)
        b = forward(bound, TOKENS)
        assert set(a) == set(b)
        for tap in a:
            assert np.array_equal(a[tap], b[tap])

    def test_tap_chaining(self, bound, tiny_config):
        taps = forward(bound, TOKENS)
        for i in range(tiny_config.n_layers - 1):
            np.testing.assert_array_equal(taps[f"layer_in.{i + 1}"], taps[f"layer_out.{i}"])
        for i in range(tiny_config.n_layers):
            np.testing.assert_array_equal(
                taps[f"mlp_in.{i}"], taps[f"layer_in.{i}"] + taps[f"attn_out.{i}"]
            )

    def test_per_head_blocks_sum_to_attention_output(self, bound, tiny_config, tiny_checkpoint):
        taps = forward(bound, TOKENS)
        dh = tiny_config.head_dim
        for i in range(tiny_config.n_layers):
            o_proj = tiny_checkpoint.tensors[f"layers.{i}.attn.o_proj"].astype(np.float64)
            concat = taps[f"oproj_in.{i}"]
            total = np.zeros_like(taps[f"attn_out.{i}"])
            for h in range(tiny_config.n_heads):
                block = concat[:, h * dh : (h + 1) * dh]
                total = total + block @ o_proj[:, h * dh : (h + 1) * dh].T
            np.testing.assert_allclose(total, taps[f"attn_out.{i}"], atol=1e-5)

    def test_token_out_of_range(self, tiny_config):
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [0, 11])
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [-1])

    def test_sequence_length_limits(self, tiny_config):
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [])
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [0] * 17)  # max_seq is 16


class TestCrossEntropy:
    def test_uniform_logits_hit_log_vocab(self, tiny_config):
        zeros = TensorArchive(
            tensors={
                name: np.zeros(shape, dtype=np.float32)
                for name, shape in tiny_config.param_shapes().items()
            },
            meta={},
        )
        model = bind_weights(zeros, tiny_config)
        loss = eval_cross_entropy(model, [[1, 2, 3], [4, 5, 6, 7]])
        assert loss == pytest.approx(math.log(11), abs=1e-9)

    def test_length_two_sequence_scores_one_position(self, bound):
        full = forward(bound, [3, 7])["logits"][0]
        expected = math.log(np.exp(full - full.max()).sum()) + full.max() - full[7]
        loss = eval_cross_entropy(bound, [[3, 7]])
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_pooled_over_positions(self, bound):
        # One 3-token and one 2-token sequence: 3 predictable positions in total.
        a = eval_cross_entropy(bound, [[1, 2, 3]])
        b = eval_cross_entropy(bound, [[4, 5]])
        pooled = eval_cross_entropy(bound, [[1, 2, 3], [4, 5]])
        assert pooled == pytest.approx((2 * a + b) / 3, rel=1e-9)

    def test_empty_dataset(self, bound):
        with pytest.raises(InputError):
            eval_cross_entropy(bound, [])

    def test_short_sequence(self, bound):
        with pytest.raises(InputError):
            eval_cross_entropy(bound, [[3]])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=8, n_heads=3, n_layers=1, d_ff=4, vocab_size=5)
        with pytest.raises(ValueError):
            ModelConfig(d_model=0, n_heads=1, n_layers=1, d_ff=4, vocab_size=5)
        with pytest.raises(ValueError):
            # head_dim must be even for the rotary pairing
            ModelConfig(d_model=3, n_heads=3, n_layers=1, d_ff=4, vocab_size=5)

    def test_json_round_trip(self, tiny_config):
        assert ModelConfig.from_json(tiny_config.to_json()) == tiny_config

    def test_param_shapes(self, tiny_config):
        shapes = tiny_config.param_shapes()
        assert shapes["embed"] == (11, 8)
        assert shapes["layers.1.attn.o_proj"] == (8, 8)
        assert shapes["layers.0.mlp.down_proj"] == (8, 16)
        assert shapes["norm_final"] == (8,)
        assert shapes["lm_head"] == (11, 8)
        assert len(shapes) == 3 + 9 * tiny_config.n_layers
