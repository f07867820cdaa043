"""Span tracing of submerge's layers, done entirely from outside the package.

`Tracer.installed()` replaces each public function named in `TRACED` at every
module binding inside `submerge` (the defining module and every module that
imported the name), so nested calls record nested spans: cli -> merge ->
features -> model. Nothing under `src/` is edited; the bindings are restored
when the block exits, so untraced jobs in the same process run the plain code.

A span is (name, start, end, parent span, job id, counters). Spans stay in
memory and are written out once, when the run ends. A span's self time is its
duration minus the durations of its child spans; the program is
single-threaded, so children never overlap each other.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

TRACED = {
    "model": (
        "forward_pass",
        "causal_attention",
        "rope_rotate",
        "rms_norm",
        "swiglu",
        "bind_weights",
    ),
    "features": (
        "collect_base_features",
        "compute_delta_outputs",
        "apply_group",
        "group_parameters",
    ),
    "linearity": (
        "non_linearity_score",
        "metric_sweep",
        "merged_group_deltas",
        "interpolation_scores",
    ),
    "solver": ("compute_gram", "solve_alpha", "solve_plan"),
    "merge": ("merge_linear_solve", "apply_merge_weights"),
    "archive": ("read_archive", "write_archive", "task_vector"),
    "decompose": ("plan_decomposition",),
}
ROOT_SPAN = "cli.main"
MB = 1e6


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _payload_bytes(archive) -> int:
    return sum(arr.nbytes for arr in archive.tensors.values())


def forward_pass_flops(config, seq: int) -> int:
    """Matmul FLOPs that run in forward_pass's own frame, computed from shapes.

    Counts the q/k/v/o projections, the SwiGLU gate/up/down products and the
    LM head (2 FLOPs per multiply-add). The attention score and value
    products run inside causal_attention's child span and are not counted.
    """
    d, f = config.d_model, config.d_ff
    per_layer = 4 * 2 * seq * d * d + 3 * 2 * seq * d * f
    return config.n_layers * per_layer + 2 * seq * d * config.vocab_size


def _forward_pass(args, kwargs, result):
    seq = len(_arg(args, kwargs, 2, "tokens"))
    return {"tokens": seq, "flops": forward_pass_flops(_arg(args, kwargs, 0, "config"), seq)}


def _feature_store(args, kwargs, store):
    arrays = [a for rows in store.inputs.values() for a in rows]
    outputs = [a for rows in store.base_outputs.values() for a in rows]
    return {
        "rows": sum(a.shape[0] for a in arrays),
        "bytes": sum(a.nbytes for a in arrays) + sum(a.nbytes for a in outputs),
    }


def _gram(args, kwargs, gram):
    return {"samples": sum(gram.samples) + sum(gram.skipped), "skipped": sum(gram.skipped)}


def _sweep(args, kwargs, records):
    points = [r for r in records if not r.metric.endswith("_grid_mean")]
    return {"points": len(points), "degenerate": sum(bool(r.aux.get("degenerate")) for r in points)}


COUNTERS = {
    "model.forward_pass": _forward_pass,
    "features.collect_base_features": _feature_store,
    "features.compute_delta_outputs": lambda a, k, deltas: {
        "bytes": sum(d.nbytes for d in deltas.deltas.values())
    },
    "solver.compute_gram": _gram,
    "solver.solve_plan": lambda a, k, weights: {
        "groups": len(weights.groups),
        "fallback": sum(g.fallback for g in weights.groups),
    },
    "linearity.metric_sweep": _sweep,
    "archive.read_archive": lambda a, k, archive: {"bytes": _payload_bytes(archive)},
    "archive.write_archive": lambda a, k, result: {"bytes": _payload_bytes(_arg(a, k, 0, "archive"))},
    "decompose.plan_decomposition": lambda a, k, plan: {"groups": len(plan.groups)},
}


def _calls_self(*names: str) -> list[tuple[str, str]]:
    return [(f"{name}.{key}", unit) for name in names for key, unit in (("calls", "count"), ("self_s", "s"))]


# Every per-layer metric, in report order, with its unit.
PER_LAYER = [
    ("model.forward_pass.calls", "count"),
    ("model.forward_pass.self_s", "s"),
    ("model.forward_pass.tokens", "count"),
    ("model.forward_pass.gflop", "GFLOP"),
    ("model.forward_pass.gflop_per_s", "GFLOP/s"),
    *_calls_self(
        "model.causal_attention",
        "model.rope_rotate",
        "model.rms_norm",
        "model.swiglu",
        "model.bind_weights",
    ),
    ("features.collect_base_features.self_s", "s"),
    ("features.collect_base_features.rows", "count"),
    ("features.collect_base_features.store_mb", "MB"),
    ("features.compute_delta_outputs.self_s", "s"),
    ("features.compute_delta_outputs.store_mb", "MB"),
    *_calls_self("features.apply_group", "features.group_parameters"),
    *_calls_self(*(f"linearity.{fn}" for fn in TRACED["linearity"])),
    ("linearity.degenerate_ratio", "ratio"),
    *_calls_self(*(f"solver.{fn}" for fn in TRACED["solver"])),
    ("solver.fallback_ratio", "ratio"),
    ("solver.skipped_ratio", "ratio"),
    *_calls_self(*(f"merge.{fn}" for fn in TRACED["merge"])),
    ("archive.read_archive.calls", "count"),
    ("archive.read_archive.self_s", "s"),
    ("archive.read_archive.mb", "MB"),
    ("archive.write_archive.calls", "count"),
    ("archive.write_archive.self_s", "s"),
    ("archive.write_archive.mb", "MB"),
    *_calls_self("archive.task_vector"),
    ("decompose.plan_decomposition.calls", "count"),
    ("decompose.plan_decomposition.groups", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Records spans for the jobs run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.job = -1
        self.origin = time.perf_counter()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at every `submerge` binding of it."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"submerge.{module_name}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "submerge" or module_name.startswith("submerge.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def call(self, job: int, fn, *args):
        """Run fn(*args) as job `job`, under a root span named ROOT_SPAN."""
        self.job = job
        return self._wrap(ROOT_SPAN, fn)(*args)

    def job_totals(self, job: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and summed counters for one job."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, span_job, counters) in enumerate(self.spans):
            if span_job != job:
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[index]
            for key, value in (counters or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[name], round(start - self.origin, 7), round(end - self.origin, 7), parent, job]
            for name, start, end, parent, job, _ in self.spans
        ]
        payload = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one job from its span totals.

    Functions the workload never calls read 0. `trace.overhead_ratio` is a
    property of the run, not of one job, and is filled in by the caller.
    """

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if key in ("calls", "self_s", "tokens", "rows", "groups"):
            values[metric] = get(span, key)
        elif key in ("store_mb", "mb"):
            values[metric] = get(span, "bytes") / MB
    fp = "model.forward_pass"
    values[f"{fp}.gflop"] = get(fp, "flops") / 1e9
    values[f"{fp}.gflop_per_s"] = _ratio(get(fp, "flops") / 1e9, get(fp, "self_s"))
    values["linearity.degenerate_ratio"] = _ratio(
        get("linearity.metric_sweep", "degenerate"), get("linearity.metric_sweep", "points")
    )
    values["solver.fallback_ratio"] = _ratio(
        get("solver.solve_plan", "fallback"), get("solver.solve_plan", "groups")
    )
    values["solver.skipped_ratio"] = _ratio(
        get("solver.compute_gram", "skipped"), get("solver.compute_gram", "samples")
    )
    values["cli.self_s"] = get(ROOT_SPAN, "self_s")
    values["trace.overhead_ratio"] = 0.0
    return values
