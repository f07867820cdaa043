"""Transformer forward pass against an independent oracle, plus contracts."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, logsumexp

import submerge.model
from submerge import BindError, InputError, TensorArchive
from submerge.model import ModelConfig, bind_weights, eval_cross_entropy, forward_pass, forward_taps
from submerge.model import attention_block, attention_contexts, mlp_block, output_block
from submerge.model import causal_attention, logsumexp_rows, rms_norm, rope_rotate, swiglu
from submerge.model import MODEL_SIZES, validated_tokens, weight_rhs

from conftest import bad_scalars, random_checkpoint
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


def biased_attention(q, k, v):
    """The kernel's former formula: an additive -inf bias above the diagonal before
    the row max and the exp. `causal_attention` must equal it bit for bit."""
    q, k, v = (np.swapaxes(a, -3, -2) for a in (q, k, v))
    seq = q.shape[-2]
    scores = (q * (1.0 / np.sqrt(q.shape[-1]))) @ np.swapaxes(k, -1, -2)
    scores += np.triu(np.full((seq, seq), -np.inf), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    ctx = scores @ v
    ctx /= scores.sum(axis=-1, keepdims=True)
    return np.swapaxes(ctx, -3, -2)


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

    @pytest.mark.parametrize(
        "shape",
        [(3, 1, 2, 2), (3, 2, 2, 2), (2, 5, 3, 2), (10, 32, 8, 8), (16, 32, 7, 8), (16, 32, 1, 8)],
        ids=["seq1", "seq2", "seq5", "10x32x8x8", "16x32x7x8", "16x32x1x8"],
    )
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 3e2])
    def test_causal_attention_equals_the_biased_formula(self, shape, scale, rng):
        q, k, v = (scale * rng.normal(size=shape) for _ in range(3))
        np.testing.assert_array_equal(causal_attention(q, k, v), biased_attention(q, k, v))

    def test_future_keys_far_above_the_row_max_do_not_overflow(self):
        # Key j scores 1414 * j against every query, so each row's first future
        # key sits more than 710 above its max: exp would overflow without the clamp.
        seq = 6
        q = np.zeros((1, seq, 1, 2))
        k = np.zeros((1, seq, 1, 2))
        q[..., 0] = 100.0
        k[0, :, 0, 0] = 20.0 * np.arange(seq)
        v = np.random.default_rng(3).normal(size=(1, seq, 1, 2))
        with np.errstate(over="raise", invalid="raise"):
            out = causal_attention(q, k, v)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, biased_attention(q, k, v))

    def test_causal_mask_tables_are_read_only(self):
        causal, causal01 = submerge.model._causal_mask(4)
        assert not causal.flags.writeable and not causal01.flags.writeable
        np.testing.assert_array_equal(causal01, np.tri(4))
        np.testing.assert_array_equal(causal, np.tri(4, dtype=bool))

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


class TestWeightRhs:
    @pytest.mark.parametrize(
        "dtype, cols",
        [(np.float32, slice(None)), (np.float64, slice(None)), (np.float64, slice(8, 16))],
        ids=["f32", "float64", "o_proj_column_slice"],
    )
    def test_a_c_contiguous_float64_copy_of_the_transpose(self, rng, dtype, cols):
        w = rng.normal(size=(32, 24)).astype(dtype)[:, cols]
        got = weight_rhs(w)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, w.T)
        assert not np.shares_memory(got, w)

    @pytest.mark.parametrize(
        "block, names",
        [
            (attention_contexts, [f"layers.1.attn.{n}_proj" for n in "qkv"]),
            (attention_block, [f"layers.1.attn.{n}_proj" for n in "qkvo"]),
            (mlp_block, [f"layers.1.mlp.{n}_proj" for n in ("gate", "up", "down")]),
            (output_block, ["lm_head"]),
        ],
    )
    def test_every_weight_product_reads_weight_rhs(self, monkeypatch, bound, tiny_config, block, names):
        # Each weight matrix of the block, once, in order: a product on a
        # transposed view `x @ W.T` would bypass the helper and miss its read.
        read = []

        def counting(w):
            read.append(w)
            return weight_rhs(w)

        monkeypatch.setattr(submerge.model, "weight_rhs", counting)
        x = np.random.default_rng(2).normal(size=(2, 5, tiny_config.d_model))
        block(x, bound.weights, tiny_config, *(() if block is output_block else (1,)))
        assert len(read) == len(names)
        assert all(got is bound.weights[name] for got, name in zip(read, names))


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


    def test_binds_the_archives_own_read_only_arrays(self):
        # Binding copies nothing: each weight is the archive's f32 array, so a
        # job holds one copy of the base model, not a float64 one beside it.
        config = ModelConfig(d_model=32, n_heads=4, n_layers=2, d_ff=64, vocab_size=50, max_seq=16)
        archive = random_checkpoint(config, 3)
        bind_weights(archive, config)
        tracemalloc.start()
        try:
            model = bind_weights(archive, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(model.weights) == list(config.param_shapes())
        for name, weight in model.weights.items():
            assert weight.dtype == np.float32 and not weight.flags.writeable
            assert np.shares_memory(weight, archive.tensors[name])
        payload = sum(arr.nbytes for arr in archive.tensors.values())
        assert peak < payload / 10

    def test_forward_on_f32_weights_equals_float64_copies(self):
        # Each block upcasts a weight whole before its products. At this shape
        # NumPy's mixed-dtype matmul rounds differently, so a block that used
        # it would not match the float64 copies bit for bit.
        config = ModelConfig(d_model=32, n_heads=4, n_layers=2, d_ff=64, vocab_size=50, max_seq=16)
        archive = random_checkpoint(config, 3)
        tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=(16, 12))
        copies = {name: arr.astype(np.float64) for name, arr in archive.tensors.items()}
        bound = forward_pass(config, bind_weights(archive, config).weights, tokens)
        upcast = forward_pass(config, copies, tokens)
        assert bound.keys() == upcast.keys()
        for tap, value in upcast.items():
            assert bound[tap].dtype == np.float64 and np.array_equal(bound[tap], value), tap
        x, q_proj = upcast["attn_in.0"], archive.tensors["layers.0.attn.q_proj"]
        assert not np.array_equal(x @ q_proj.T, x @ copies["layers.0.attn.q_proj"].T)

    @pytest.mark.parametrize("block", [attention_contexts, attention_block, mlp_block, output_block])
    def test_a_block_on_an_f32_input_equals_its_float64_upcast(self, bound, tiny_config, block):
        # Each block upcasts its input as it reads it, so a caller passes a
        # stored f32 activation as it is. An f32 input normalized in f32 would
        # not give the bytes of its float64 upcast.
        x = np.random.default_rng(5).normal(size=(3, 7, tiny_config.d_model)).astype(np.float32)
        layer = () if block is output_block else (1,)
        got = block(x, bound.weights, tiny_config, *layer)
        want = block(x.astype(np.float64), bound.weights, tiny_config, *layer)
        if block is attention_contexts:
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == np.float64
            np.testing.assert_array_equal(got_part, want_part)


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

    @pytest.mark.parametrize("tokens", [TOKENS, [TOKENS, TOKENS[::-1]]], ids=["single", "batched"])
    def test_forward_taps_stream_the_forward_pass_in_order(self, bound, tiny_config, tokens):
        # Each tap copied as it is yielded equals the held full trace: no later
        # step writes into a tap already handed out.
        tokens = np.asarray(tokens)
        streamed = [
            (name, value.copy()) for name, value in forward_taps(tiny_config, bound.weights, tokens)
        ]
        trace = forward_pass(tiny_config, bound.weights, tokens)
        per_layer = ("layer_in", "attn_in", "oproj_in", "attn_out")
        per_layer += ("mlp_in", "dproj_in", "mlp_out", "layer_out")
        names = [f"{tap}.{i}" for i in range(tiny_config.n_layers) for tap in per_layer]
        assert [name for name, _ in streamed] == list(trace) == names + ["logits", "final_hidden"]
        for name, value in streamed:
            assert np.array_equal(value, trace[name]), name

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

    def test_attention_block_on_one_heads_slices(self, bound, tiny_config):
        # A head's rows of q/k/v_proj and columns of o_proj give that head's
        # context columns of the all-heads call.
        taps = forward(bound, TOKENS)
        dh, layer = tiny_config.head_dim, 1
        x = taps[f"layer_in.{layer}"]
        full_out, full_ctx = attention_block(x, bound.weights, tiny_config, layer)
        for h in range(tiny_config.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            pre = f"layers.{layer}.attn"
            weights = {f"layers.{layer}.norm1": bound.weights[f"layers.{layer}.norm1"]}
            for name in ("q_proj", "k_proj", "v_proj"):
                weights[f"{pre}.{name}"] = bound.weights[f"{pre}.{name}"][cols]
            weights[f"{pre}.o_proj"] = bound.weights[f"{pre}.o_proj"][:, cols]
            out, ctx = attention_block(x, weights, tiny_config, layer)
            assert ctx.shape == (len(TOKENS), dh)
            # The contexts alone read no o_proj.
            del weights[f"{pre}.o_proj"]
            assert np.array_equal(attention_contexts(x, weights, tiny_config, layer), ctx)
            np.testing.assert_allclose(ctx, full_ctx[:, cols], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                out, full_ctx[:, cols] @ bound.weights[f"{pre}.o_proj"][:, cols].T, rtol=0, atol=1e-12
            )
        assert np.array_equal(full_out, taps[f"attn_out.{layer}"])

    def test_token_out_of_range(self, tiny_config):
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [0, 11])
        with pytest.raises(InputError):
            validated_tokens(tiny_config, [-1])

    # A cast would read 1.7 as token 1 and True as token 1.
    @pytest.mark.parametrize("tokens", [[0, 1.7], np.array([0.0, 1.0]), [True, False]])
    def test_non_integer_tokens(self, tiny_config, tokens):
        with pytest.raises(InputError, match="must be integers"):
            validated_tokens(tiny_config, tokens)

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

    def test_logsumexp_rows_equals_scipy_bit_for_bit(self):
        # Rounded blocks tie the row max and other entries; the constant rows are
        # all ties, the one-hot rows have a single max far above the rest.
        rng = np.random.default_rng(17)
        blocks = []
        for k in range(60):
            a = rng.normal(scale=(0.1, 1.0, 8.0, 40.0)[k % 4], size=(31, 128))
            blocks.append(np.round(a) if k % 3 == 0 else a)
        tied = np.round(rng.normal(size=(31, 128)))
        tied[:4] = 2.5
        tied[4:8] = np.where(np.arange(128) == 7, 900.0, -900.0)
        blocks += [tied, rng.normal(size=(1, 11)), np.float64([[0.0, 0.0, -1e-300]])]
        for a in blocks:
            got, want = logsumexp_rows(a), logsumexp(a, axis=1)
            assert got.dtype == want.dtype and np.array_equal(got, want)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("d_model", 8.0, id="float_size"),
            pytest.param("n_heads", True, id="bool_size"),
            pytest.param("max_seq", "16", id="string_size"),
            pytest.param("norm_eps", "1e-5", id="string_eps"),
            pytest.param("rope_theta", False, id="bool_theta"),
            pytest.param("norm_eps", float("nan"), id="nan_eps"),
            pytest.param("rope_theta", float("inf"), id="inf_theta"),
            *bad_scalars(MODEL_SIZES, "integer", "minimum"),
            *bad_scalars(("norm_eps", "rope_theta"), "real", "minimum"),
        ],
    )
    def test_field_types(self, field, value):
        sizes = dict(d_model=8, n_heads=2, n_layers=1, d_ff=4, vocab_size=5)
        with pytest.raises(ValueError, match=f"{field} must be"):
            ModelConfig(**{**sizes, field: value})

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        # `to_json` goes through json.dumps, which refuses NumPy scalars.
        sizes = dict(d_model=8, n_heads=2, n_layers=1, d_ff=4, vocab_size=5)
        config = ModelConfig(**{k: np.int64(v) for k, v in sizes.items()}, rope_theta=np.float32(0.5))
        assert config.to_json() == ModelConfig(**sizes, rope_theta=0.5).to_json()
        assert type(config.d_model) is int and type(config.rope_theta) is float

    def test_json_round_trip(self, tiny_config):
        assert ModelConfig.from_json(tiny_config.to_json()) == tiny_config

    def test_json_text_is_pinned(self, tiny_config):
        # Archive meta embeds this text, so a change here changes every digest.
        assert tiny_config.to_json() == (
            '{"d_ff": 16, "d_model": 8, "max_seq": 16, "n_heads": 2, "n_layers": 2, '
            '"norm_eps": 1e-05, "rope_theta": 10000.0, "vocab_size": 11}'
        )

    def test_param_shapes(self, tiny_config):
        shapes = tiny_config.param_shapes()
        assert shapes["embed"] == (11, 8)
        assert shapes["layers.1.attn.o_proj"] == (8, 8)
        assert shapes["layers.0.mlp.down_proj"] == (8, 16)
        assert shapes["norm_final"] == (8,)
        assert shapes["lm_head"] == (11, 8)
        assert len(shapes) == 3 + 9 * tiny_config.n_layers
