"""Decomposition plans: group counts, partition coverage, head slices."""

from __future__ import annotations

import numpy as np
import pytest

from submerge import PlanError
from submerge.decompose import (
    FULL,
    Granularity,
    head_slices,
    plan_decomposition,
)
from submerge.model import ModelConfig


@pytest.fixture(scope="module")
def config() -> ModelConfig:
    return ModelConfig(d_model=8, n_heads=2, n_layers=4, d_ff=16, vocab_size=11, max_seq=16)


class TestGroupCounts:
    def test_model_level(self, config):
        plan = plan_decomposition(config, Granularity.MODEL)
        assert [g.id for g in plan.groups] == ["model"]
        assert plan.groups[0].output_kind == "model_logits"

    def test_layer_level(self, config):
        plan = plan_decomposition(config, Granularity.LAYER)
        assert len(plan.groups) == 6  # 4 layers + embed + lm_head
        ids = [g.id for g in plan.groups]
        assert ids[0] == "embed" and ids[-1] == "lm_head"
        assert [i for i in ids if i.startswith("layer.")] == [f"layer.{i}" for i in range(4)]

    def test_attn_mlp_level(self, config):
        plan = plan_decomposition(config, Granularity.ATTN_MLP)
        assert len(plan.groups) == 10  # (attn+mlp) per layer + embed + lm_head
        assert plan.group("attn.2").input_tap == "layer_in.2"
        assert plan.group("mlp.2").input_tap == "mlp_in.2"
        assert plan.group("attn.2").output_kind == "attn_branch"
        assert plan.group("mlp.2").output_kind == "mlp_branch"

    def test_head_mlp_level(self, config):
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        assert len(plan.groups) == 14  # 4*2 heads + 4 mlp + embed + lm_head
        group = plan.group("head.3.1")
        assert group.head_index == 1
        assert group.input_tap == "layer_in.3"
        assert group.output_kind == "head_branch"

    def test_ordering_layer_major_head_minor(self, config):
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        per_layer = [g.id for g in plan.groups if g.id.startswith(("head.", "mlp."))]
        assert per_layer == [
            "head.0.0", "head.0.1", "mlp.0",
            "head.1.0", "head.1.1", "mlp.1",
            "head.2.0", "head.2.1", "mlp.2",
            "head.3.0", "head.3.1", "mlp.3",
        ]


class TestPartition:
    @pytest.mark.parametrize("level", list(Granularity))
    def test_every_element_covered_exactly_once(self, config, level):
        plan = plan_decomposition(config, level)
        counts = {
            name: np.zeros(shape, dtype=np.int32)
            for name, shape in config.param_shapes().items()
        }
        for group in plan.groups:
            for name, index in group.params.items():
                counts[name][index] += 1
        for name, grid in counts.items():
            assert grid.min() == 1 and grid.max() == 1, f"{name} covered {grid.min()}..{grid.max()}"

    def test_head_groups_rebuild_attention_group(self, config):
        heads = plan_decomposition(config, Granularity.HEAD_MLP)
        attn = plan_decomposition(config, Granularity.ATTN_MLP)
        for i in range(config.n_layers):
            desired = attn.group(f"attn.{i}").params
            counts = {
                name: np.zeros(config.param_shapes()[name], dtype=np.int32)
                for name in desired
            }
            for h in range(config.n_heads):
                for name, index in heads.group(f"head.{i}.{h}").params.items():
                    counts[name][index] += 1
            for name, grid in counts.items():
                assert grid.min() == 1 and grid.max() == 1

    def test_layer_group_owns_the_layers_parameters(self, config):
        layer = plan_decomposition(config, Granularity.LAYER)
        attn = plan_decomposition(config, Granularity.ATTN_MLP)
        for i in range(config.n_layers):
            names = [name for name in config.param_shapes() if name.startswith(f"layers.{i}.")]
            owned = layer.group(f"layer.{i}").params
            assert list(owned) == names
            assert all(index is FULL for index in owned.values())
            branches = [set(attn.group(f"{kind}.{i}").params) for kind in ("attn", "mlp")]
            assert not branches[0] & branches[1]
            assert branches[0] | branches[1] == set(names)


class TestHeadSlices:
    def test_first_head(self, config):
        slices = head_slices(config, layer=0, head=0)
        assert slices["layers.0.attn.q_proj"] == slice(0, 4)
        assert slices["layers.0.attn.o_proj"] == (slice(None), slice(0, 4))

    def test_second_head(self, config):
        slices = head_slices(config, layer=1, head=1)
        assert slices["layers.1.attn.k_proj"] == slice(4, 8)
        assert slices["layers.1.attn.o_proj"] == (slice(None), slice(4, 8))

    def test_out_of_range(self, config):
        with pytest.raises(PlanError):
            head_slices(config, layer=0, head=2)
        with pytest.raises(PlanError):
            head_slices(config, layer=4, head=0)


class TestModuleParameters:
    def test_mlp_group(self, config):
        plan = plan_decomposition(config, Granularity.ATTN_MLP)
        params = plan.group("mlp.0").params
        assert set(params) == {
            "layers.0.norm2",
            "layers.0.mlp.gate_proj",
            "layers.0.mlp.up_proj",
            "layers.0.mlp.down_proj",
        }
        assert all(index is FULL for index in params.values())

    def test_head_group_is_sliced(self, config):
        plan = plan_decomposition(config, Granularity.HEAD_MLP)
        params = plan.group("head.0.1").params
        assert params["layers.0.attn.q_proj"] == slice(4, 8)
        assert params["layers.0.attn.o_proj"] == (slice(None), slice(4, 8))
        assert "layers.0.norm1" not in params  # owned by head 0

    def test_embed_group(self, config):
        plan = plan_decomposition(config, Granularity.LAYER)
        assert set(plan.group("embed").params) == {"embed"}
        assert set(plan.group("lm_head").params) == {"norm_final", "lm_head"}

    def test_unknown_group(self, config):
        plan = plan_decomposition(config, Granularity.LAYER)
        with pytest.raises(PlanError):
            plan.group("attn.0")


class TestSerialization:
    def test_granularity_parse(self):
        assert Granularity.parse("attn_mlp") is Granularity.ATTN_MLP
        with pytest.raises(PlanError):
            Granularity.parse("nope")
