"""Map a model config and granularity level to submodule groups.

A plan partitions every parameter element into disjoint groups, each with
an input tap and an output definition. Granularities: the whole model, one
group per layer, separate attention/MLP branches, or per-head attention
slices (rows of q/k/v plus the matching o_proj columns).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import EllipsisType
from typing import Mapping

from .errors import PlanError
from .model import ATTENTION_PARAMS, MLP_PARAMS, ModelConfig


class Granularity(enum.Enum):
    MODEL = "model"
    LAYER = "layer"
    ATTN_MLP = "attn_mlp"
    HEAD_MLP = "head_mlp"

    @classmethod
    def parse(cls, text: str) -> "Granularity":
        try:
            return cls(text)
        except ValueError:
            options = ", ".join(g.value for g in cls)
            raise PlanError(f"unknown granularity {text!r} (expected one of: {options})") from None


# Each owned slice is named by its NumPy index: FULL (the whole tensor), a
# slice of rows, or (all rows, a slice of columns).
Index = slice | tuple[slice, slice] | EllipsisType
FULL: Index = ...


@dataclass(frozen=True)
class SubmoduleGroup:
    id: str
    input_tap: str
    output_kind: str
    params: Mapping[str, Index]
    layer: int | None = None
    head_index: int | None = None
    # Parameters the group's function reads but does not own (fixed at the
    # base model when the group is perturbed), e.g. norm1 for heads > 0.
    extra_params: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecompositionPlan:
    granularity: Granularity
    config: ModelConfig
    groups: tuple[SubmoduleGroup, ...]
    _by_id: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_id", {g.id: g for g in self.groups})

    def group(self, group_id: str) -> SubmoduleGroup:
        try:
            return self._by_id[group_id]
        except KeyError:
            raise PlanError(f"no group {group_id!r} in this plan") from None

    def group_ids(self) -> list[str]:
        return [g.id for g in self.groups]


def head_slices(config: ModelConfig, layer: int, head: int) -> dict[str, Index]:
    """Row ranges of q/k/v_proj and the o_proj column range for one head."""
    if not 0 <= layer < config.n_layers:
        raise PlanError(f"layer {layer} out of range for n_layers={config.n_layers}")
    if not 0 <= head < config.n_heads:
        raise PlanError(f"head {head} out of range for n_heads={config.n_heads}")
    return _head_rows(layer, slice(head * config.head_dim, (head + 1) * config.head_dim))


def context_slices(config: ModelConfig, layer: int, head: int) -> tuple[dict[str, Index], Index]:
    """For head group `head` >= 1 of `layer`: the q/k/v_proj rows and o_proj
    columns of heads 1..H-1, which read `norm1` at its base value and so share
    one attention context per weight set (head 0 owns `norm1`), and the index
    of this head's columns in those contexts and in that o_proj slice."""
    width = config.head_dim
    return _head_rows(layer, slice(width, config.d_model)), (
        slice(None),
        slice((head - 1) * width, head * width),
    )


def _head_rows(layer: int, rows: slice) -> dict[str, Index]:
    pre = f"layers.{layer}.attn"
    return {
        f"{pre}.q_proj": rows,
        f"{pre}.k_proj": rows,
        f"{pre}.v_proj": rows,
        f"{pre}.o_proj": (slice(None), rows),
    }


def _embed_group() -> SubmoduleGroup:
    return SubmoduleGroup(
        id="embed", input_tap="tokens", output_kind="embed_rows", params={"embed": FULL}
    )


def _lm_head_group() -> SubmoduleGroup:
    return SubmoduleGroup(
        id="lm_head",
        input_tap="final_hidden",
        output_kind="logits",
        params={"norm_final": FULL, "lm_head": FULL},
    )


def _block_params(layer: int, names: tuple[str, ...]) -> dict[str, Index]:
    """Every named parameter of one layer, whole."""
    return {f"layers.{layer}.{name}": FULL for name in names}


def _block_group(
    group_id: str, input_tap: str, output_kind: str, layer: int, names: tuple[str, ...]
) -> SubmoduleGroup:
    return SubmoduleGroup(
        id=group_id,
        input_tap=input_tap,
        output_kind=output_kind,
        params=_block_params(layer, names),
        layer=layer,
    )


def plan_decomposition(config: ModelConfig, level: Granularity) -> DecompositionPlan:
    groups: list[SubmoduleGroup] = []
    if level is Granularity.MODEL:
        groups.append(
            SubmoduleGroup(
                id="model",
                input_tap="tokens",
                output_kind="model_logits",
                params={name: FULL for name in config.param_shapes()},
            )
        )
        return DecompositionPlan(granularity=level, config=config, groups=tuple(groups))

    groups.append(_embed_group())
    for i in range(config.n_layers):
        if level is Granularity.LAYER:
            groups.append(
                _block_group(
                    f"layer.{i}", f"layer_in.{i}", "layer_out", i, ATTENTION_PARAMS + MLP_PARAMS
                )
            )
            continue
        if level is Granularity.ATTN_MLP:
            groups.append(
                _block_group(f"attn.{i}", f"layer_in.{i}", "attn_branch", i, ATTENTION_PARAMS)
            )
        else:
            attention = _block_params(i, ATTENTION_PARAMS)
            for h in range(config.n_heads):
                params = head_slices(config, i, h)
                # The attention parameters no head slices (norm1) are owned by
                # head 0 and read whole by the others.
                shared = [name for name in attention if name not in params]
                if h == 0:
                    params.update((name, FULL) for name in shared)
                groups.append(
                    SubmoduleGroup(
                        id=f"head.{i}.{h}",
                        input_tap=f"layer_in.{i}",
                        output_kind="head_branch",
                        params=params,
                        layer=i,
                        head_index=h,
                        extra_params=() if h == 0 else tuple(shared),
                    )
                )
        groups.append(_block_group(f"mlp.{i}", f"mlp_in.{i}", "mlp_branch", i, MLP_PARAMS))
    groups.append(_lm_head_group())
    return DecompositionPlan(granularity=level, config=config, groups=tuple(groups))
