"""The stored output deltas match their definition, computed by `reference_deltas.py`."""

from __future__ import annotations

import pytest

from reference_deltas import OUTPUT_KINDS, delta_errors

# The stored inputs and the group rows are float32, and each delta is the
# difference of two rounded row matrices, so it carries their rounding: a few
# 1e-8 of the rows' size, which at tau 0.5 stays within 1e-6 of the largest
# delta. At small task vectors the same rounding outgrows the bound (run the
# module with --tau-scale 0.0005).
REL_BOUND = 1e-6

LM_HEAD_READS_NORMED_INPUT = pytest.mark.xfail(
    strict=True,
    reason="the lm_head group reads final_hidden, which is already rms_norm(x, norm_final), "
    "and output_block normalizes it a second time",
)


@pytest.fixture(scope="module")
def errors():
    return delta_errors(tau_scale=0.5)


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(kind, marks=LM_HEAD_READS_NORMED_INPUT) if kind == "logits" else kind
        for kind in OUTPUT_KINDS
    ],
)
def test_store_deltas_match_the_definition(errors, kind):
    by_level = {level: by_kind[kind] for level, by_kind in errors.items() if kind in by_kind}
    assert by_level, kind
    assert max(by_level.values()) < REL_BOUND, by_level


def test_every_level_and_output_kind_is_checked(errors):
    assert list(errors) == ["model", "layer", "attn_mlp", "head_mlp"]
    assert {kind for by_kind in errors.values() for kind in by_kind} == set(OUTPUT_KINDS)
