"""Shared builders for test fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from submerge.archive import TensorArchive
from submerge.model import ModelConfig


def random_checkpoint(config: ModelConfig, seed: int, scale: float = 0.25) -> TensorArchive:
    """A checkpoint with noticeable weights (not the tiny fixture init)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in config.param_shapes().items():
        if len(shape) == 1:
            tensors[name] = (1.0 + scale * rng.normal(size=shape)).astype(np.float32)
        else:
            tensors[name] = (scale * rng.normal(size=shape)).astype(np.float32)
    return TensorArchive(tensors=tensors, meta={"model_config": config.to_json()})


# One table of bad outside scalars for every integer and real check. Each entry
# names the checks that refuse it: "integer" (an int or NumPy integer, never a
# bool), "real" (a finite number, never a bool) and "minimum" (any check with a
# minimum of 0 or more).
BAD_SCALARS = {
    "bool": (True, {"integer", "real"}),
    "float_for_integer": (2.0, {"integer"}),
    "below_minimum": (-1, {"minimum"}),
    "nan": (float("nan"), {"integer", "real"}),
    "inf": (float("inf"), {"integer", "real"}),
    "-inf": (float("-inf"), {"integer", "real"}),
    "past_float_range": (10**400, {"real"}),
}


def bad_scalars(fields, *checks) -> list:
    """A `pytest.param(field, value)` for each field and each BAD_SCALARS entry
    that one of `checks` refuses."""
    return [
        pytest.param(field, value, id=f"{field}-{name}")
        for field in fields
        for name, (value, refused_by) in BAD_SCALARS.items()
        if refused_by & set(checks)
    ]


def byte_mutants(blob: bytes) -> st.SearchStrategy[bytes]:
    """`blob` with one to four bytes replaced, inserted or deleted."""
    kinds = st.sampled_from(["replace", "insert", "delete"])
    edit = st.tuples(st.integers(0, len(blob) - 1), kinds, st.binary(min_size=1, max_size=1))

    def apply(edits) -> bytes:
        data = bytearray(blob)
        for position, kind, byte in edits:
            position %= max(len(data), 1)
            if kind == "replace":
                data[position : position + 1] = byte
            elif kind == "insert":
                data[position:position] = byte
            else:
                del data[position : position + 1]
        return bytes(data)

    return st.lists(edit, min_size=1, max_size=4).map(apply)


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    return ModelConfig(
        d_model=8, n_heads=2, n_layers=2, d_ff=16, vocab_size=11, max_seq=16
    )


@pytest.fixture(scope="session")
def tiny_checkpoint(tiny_config) -> TensorArchive:
    return random_checkpoint(tiny_config, seed=42)
