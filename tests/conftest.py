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
