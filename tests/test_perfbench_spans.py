"""The benchmark's span counters read package objects; check they still can.

`perfbench/spans.py` wraps package functions by name and reads fields of
what they return. A renamed function or field would otherwise fail only a
benchmark run, not this suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from submerge.decompose import Granularity, plan_decomposition
from submerge.features import collect_base_features, compute_delta_outputs
from submerge.merge import merge_linear_solve
from submerge.model import bind_weights
from submerge.solver import compute_gram, solve_plan

from test_features import perturbed

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def job(tiny_config, tiny_checkpoint):
    rng = np.random.default_rng(3)
    datasets = [[rng.integers(0, 11, size=5).tolist() for _ in range(3)] for _ in range(2)]
    fine_tuned = [perturbed(tiny_checkpoint, seed=s) for s in (1, 2)]
    return datasets, fine_tuned


def test_store_counters_read_the_store_objects(spans, tiny_config, tiny_checkpoint, job):
    datasets, fine_tuned = job
    plan = plan_decomposition(tiny_config, Granularity.HEAD_MLP)
    store = collect_base_features(bind_weights(tiny_checkpoint, tiny_config), datasets, plan, sample_n=2)
    counted = spans.COUNTERS["features.collect_base_features"]((), {}, store)
    assert counted["rows"] == sum(a.shape[0] for rows in store.inputs.values() for a in rows)
    assert counted["bytes"] > 0

    deltas = compute_delta_outputs(store, tiny_checkpoint, fine_tuned, plan)
    assert spans.COUNTERS["features.compute_delta_outputs"]((), {}, deltas) == {"bytes": 0}

    gram = compute_gram(deltas.grouped("mlp.0"), group_id="mlp.0")
    counted = spans.COUNTERS["solver.compute_gram"]((), {}, gram)
    assert counted["samples"] == sum(block.shape[1] for block in deltas.grouped("mlp.0"))

    weights = solve_plan(plan, deltas)
    counted = spans.COUNTERS["solver.solve_plan"]((), {}, weights)
    assert counted == {"groups": len(plan.groups), "fallback": sum(g.fallback for g in weights.groups)}


def test_traced_job_reports_every_per_layer_metric(spans, tiny_config, tiny_checkpoint, job):
    datasets, fine_tuned = job
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.call(0, merge_linear_solve, tiny_checkpoint, fine_tuned, "head_mlp", datasets, 2)
    totals = tracer.job_totals(0)
    for name in ("features.collect_base_features", "features.compute_delta_outputs", "solver.solve_plan"):
        assert totals[name]["calls"] == 1
    metrics = spans.layer_metrics(totals)
    assert set(metrics) == {metric for metric, _ in spans.PER_LAYER}
    assert metrics["features.collect_base_features.rows"] > 0
    assert metrics["solver.solve_plan.calls"] == 1
