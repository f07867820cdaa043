"""Command line surface tying fixtures, analysis, solving and merging together.

Every option can come from three places, in priority order: the command
line, a --config JSON file of defaults, and built-in defaults. All outputs
are plain JSON/CSV/archive files with no timestamps, so a rerun with the
same inputs is byte-identical.

Exit codes: 0 success, 2 configuration or input error, 3 when --strict is
set and any solver fell back or a metric degenerated.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import TensorArchive, read_archive, task_vector, write_archive
from .decompose import Granularity, plan_decomposition
from .errors import ConfigError, DegenerateError, SubmergeError
from .features import collect_base_features, compute_delta_outputs
from .fixtures import FixtureSpec, gen_fixture, read_dataset
from .linearity import metric_sweep, non_linearity_score
from .merge import (
    config_for,
    merge_dare,
    merge_linear_solve,
    merge_task_arithmetic,
    merge_weight_average,
)
from .model import ModelConfig, bind_weights, eval_cross_entropy
from .solver import solve_plan

TA_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
DARE_DROP_GRID = [0.6, 0.7, 0.8, 0.9]
DARE_ALPHA_GRID = [0.6, 0.8, 1.0]
LEVEL_NAMES = [g.value for g in Granularity]
# The JSON type each config-file key must have. Flags are typed by argparse;
# a config value of another type (a string number, a float seed, a single
# string for a list) exits 2 instead of being cast or iterated.
CONFIG_TYPES = {
    "normalized": "a boolean",
    "strict": "a boolean",
    "seed": "an integer",
    "samples_per_task": "an integer",
    "n_points": "an integer",
    "n_tasks": "an integer",
    "dataset_size": "an integer",
    "seq_len": "an integer",
    "alpha": "a number",
    "drop_p": "a number",
    "tau_scale": "a number",
    "level": "a string",
    "method": "a string",
    "out": "a string",
    "base": "a string",
    "archive": "a string",
    "levels": "a string or a list of strings",
    "models": "a list of strings",
    "datasets": "a list of strings",
    "config": "an object",
    "model_config": "an object",
}


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


JSON_TYPE_CHECKS = {
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings": lambda v: isinstance(v, str) or _is_string_list(v),
    "a list of strings": _is_string_list,
    "an object": lambda v: isinstance(v, dict),
}

FIXTURE_MODEL_DEFAULTS = {
    "d_model": 32,
    "n_heads": 4,
    "n_layers": 4,
    "d_ff": 64,
    "vocab_size": 64,
    "max_seq": 64,
}


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class Options:
    """Merged view over parsed flags, the --config file, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        if getattr(args, "config", None) is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ConfigError("config file must hold a JSON object")
            for key, kind in CONFIG_TYPES.items():
                if key in payload and not JSON_TYPE_CHECKS[kind](payload[key]):
                    raise ConfigError(f"config key {key!r} must be {kind}, got {payload[key]!r}")
            self.file = payload
        seed = self.get("seed")
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")

    def get(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.file:
            return self.file[key]
        return default

    def require(self, key: str, flag: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required option {flag} (or config key {key!r})")
        return value

    def out_dir(self) -> Path:
        out = Path(self.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def model_config(self, archive: TensorArchive) -> ModelConfig:
        override = self.get("model_config")
        if override is not None:
            try:
                return ModelConfig(**override)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad model_config override: {exc}") from exc
        return config_for(archive)

    def load_inputs(self):
        base_path = Path(self.require("base", "--base"))
        model_paths = [Path(p) for p in self.require("models", "--model")]
        if not model_paths:
            raise ConfigError("need at least one --model (config key 'models' is empty)")
        base = read_archive(base_path)
        models = [read_archive(p) for p in model_paths]
        return base, models, base_path, model_paths

    def load_datasets(self, n_models: int | None = None):
        """Read the datasets; with `n_models`, require one dataset per model."""
        paths = [Path(p) for p in self.require("datasets", "--dataset")]
        if n_models is not None and len(paths) != n_models:
            raise ConfigError(f"{n_models} models need {n_models} datasets, got {len(paths)}")
        return [read_dataset(p) for p in paths], paths


def _float_cell(value: float) -> str:
    return "" if not np.isfinite(value) else f"{value:.10g}"


def cmd_gen_fixture(opts: Options) -> bool:
    config_payload = dict(FIXTURE_MODEL_DEFAULTS)
    config_payload.update(opts.file.get("config", {}))
    for key in FIXTURE_MODEL_DEFAULTS:
        flag_value = getattr(opts.args, key, None)
        if flag_value is not None:
            config_payload[key] = flag_value
    spec = FixtureSpec.from_json_dict(
        {
            "config": config_payload,
            "n_tasks": opts.get("n_tasks", 2),
            "tau_scale": opts.get("tau_scale", 0.5),
            "dataset_size": opts.get("dataset_size", 16),
            "seq_len": opts.get("seq_len", 12),
            "seed": opts.get("seed", 0),
        }
    )
    paths = gen_fixture(spec, opts.out_dir())
    print(f"wrote fixture: {paths['manifest']}")
    for key in ("base", "models", "datasets"):
        entries = paths[key] if isinstance(paths[key], list) else [paths[key]]
        for entry in entries:
            print(f"  {entry}")
    return False


def _parse_levels(opts: Options) -> list[Granularity]:
    raw = opts.get("levels", "model,layer")
    if isinstance(raw, str):
        names = [part.strip() for part in raw.split(",") if part.strip()]
    else:
        names = list(raw)
    if not names:
        raise ConfigError("no analysis levels requested")
    return [Granularity.parse(name) for name in names]


def _finite_stats(values: Sequence[float]) -> dict:
    finite = [v for v in values if np.isfinite(v)]
    if not finite:
        return {"mean": None, "std": None, "count": 0}
    return {
        "mean": float(np.mean(finite)),
        "std": float(np.std(finite)),
        "count": len(finite),
    }


def cmd_analyze(opts: Options) -> bool:
    base, models, _, _ = opts.load_inputs()
    datasets, _ = opts.load_datasets(len(models))
    config = opts.model_config(base)
    levels = _parse_levels(opts)
    sample_n = opts.get("samples_per_task", 30)
    seed = opts.get("seed", 0)
    n_points = opts.get("n_points", 10)
    out = opts.out_dir()
    bound = bind_weights(base, config)
    taus = [task_vector(model, base) for model in models]
    degraded = False
    report = {
        "samples_per_task": sample_n,
        "seed": seed,
        "n_points": n_points,
        "levels": {},
    }
    for level in levels:
        plan = plan_decomposition(config, level)
        store = collect_base_features(bound, datasets, plan, sample_n, seed=seed)
        deltas = compute_delta_outputs(store, base, models, plan)
        group_entries = {}
        heat_rows = []
        sweep_rows = []
        nls_means, cos_means, proj_means = [], [], []
        for group in plan.groups:
            per_task = []
            for task in range(len(models)):
                try:
                    value, _ = non_linearity_score(
                        store, base, taus[task], group, task=task, n_points=n_points
                    )
                except DegenerateError:
                    value = float("nan")
                    degraded = True
                per_task.append(value)
            nls_mean = (
                float(np.mean([v for v in per_task if np.isfinite(v)]))
                if any(np.isfinite(v) for v in per_task)
                else float("nan")
            )
            records = metric_sweep(store, deltas, base, taus, group)
            grid_means = {}
            for record in records:
                if record.aux.get("degenerate"):
                    degraded = True
                if record.metric.endswith("_grid_mean"):
                    grid_means[record.metric] = record.value
                else:
                    alpha = record.aux.get("alpha", [])
                    sweep_rows.append(
                        [group.id, record.metric]
                        + [f"{a:.10g}" for a in alpha]
                        + [_float_cell(record.value)]
                    )
            cos_mean = grid_means.get("cosine_merge_grid_mean", float("nan"))
            proj_mean = grid_means.get("projection_distance_grid_mean", float("nan"))
            nls_means.append(nls_mean)
            cos_means.append(cos_mean)
            proj_means.append(proj_mean)
            group_entries[group.id] = {
                "non_linearity": {
                    "per_task": [None if not np.isfinite(v) else v for v in per_task],
                    "mean": None if not np.isfinite(nls_mean) else nls_mean,
                },
                "cosine_merge_grid_mean": None if not np.isfinite(cos_mean) else cos_mean,
                "projection_distance_grid_mean": None
                if not np.isfinite(proj_mean)
                else proj_mean,
            }
            heat_rows.append(
                [
                    group.id,
                    _float_cell(nls_mean),
                    _float_cell(cos_mean),
                    _float_cell(proj_mean),
                ]
            )
        report["levels"][level.value] = {
            "groups": group_entries,
            "summary": {
                "non_linearity": _finite_stats(nls_means),
                "cosine_merge_grid_mean": _finite_stats(cos_means),
                "projection_distance_grid_mean": _finite_stats(proj_means),
            },
        }
        _write_csv(
            out / f"heatmap_{level.value}.csv",
            ["group", "non_linearity", "cosine_merge_grid_mean", "projection_distance_grid_mean"],
            heat_rows,
        )
        alpha_header = [f"alpha_{t}" for t in range(len(models))]
        _write_csv(
            out / f"sweep_{level.value}.csv",
            ["group", "metric", *alpha_header, "value"],
            sweep_rows,
        )
    _write_json(out / "report.json", report)
    print(f"wrote report: {out / 'report.json'}")
    for level in levels:
        summary = report["levels"][level.value]["summary"]["non_linearity"]
        print(f"  {level.value}: non-linearity mean {summary['mean']}")
    return degraded


def cmd_solve(opts: Options) -> bool:
    base, models, _, _ = opts.load_inputs()
    datasets, _ = opts.load_datasets(len(models))
    config = opts.model_config(base)
    level = Granularity.parse(opts.get("level", "layer"))
    sample_n = opts.get("samples_per_task", 30)
    seed = opts.get("seed", 0)
    normalized = opts.get("normalized", True)
    plan = plan_decomposition(config, level)
    store = collect_base_features(bind_weights(base, config), datasets, plan, sample_n, seed=seed)
    deltas = compute_delta_outputs(store, base, models, plan)
    weights = solve_plan(plan, deltas, normalized=normalized)
    out = opts.out_dir()
    _write_json(out / "weights.json", weights.to_json_dict())
    print(f"wrote weights: {out / 'weights.json'}")
    for g in weights.groups:
        alphas = ", ".join(f"{a:.4f}" for a in g.alpha)
        suffix = " (fallback)" if g.fallback else ""
        print(f"  {g.group_id}: [{alphas}]{suffix}")
    return any(g.fallback for g in weights.groups)


def cmd_merge(opts: Options) -> bool:
    method = opts.require("method", "--method")
    base, models, base_path, model_paths = opts.load_inputs()
    seed = opts.get("seed", 0)
    alpha = float(opts.get("alpha", 1.0 / len(models)))
    normalized = opts.get("normalized", True)
    sample_n = opts.get("samples_per_task", 30)
    out = opts.out_dir()
    degraded = False
    weights = None
    dataset_paths: list[Path] = []
    params: dict = {}
    if method == "weight_avg":
        merged = merge_weight_average(base, models)
    elif method == "task_arithmetic":
        merged = merge_task_arithmetic(base, models, alpha)
        params["alpha"] = alpha
    elif method == "dare":
        drop_p = float(opts.get("drop_p", 0.9))
        merged = merge_dare(base, models, alpha, drop_p, seed)
        params.update({"alpha": alpha, "drop_p": drop_p, "seed": seed})
    elif method == "linear_solve":
        datasets, dataset_paths = opts.load_datasets(len(models))
        level = Granularity.parse(opts.get("level", "layer"))
        config = opts.model_config(base)
        merged, weights = merge_linear_solve(
            base,
            models,
            level,
            datasets,
            samples_per_task=sample_n,
            seed=seed,
            normalized=normalized,
            config=config,
        )
        degraded = any(g.fallback for g in weights.groups)
        params.update(
            {
                "level": level.value,
                "normalized": normalized,
                "samples_per_task": sample_n,
                "seed": seed,
            }
        )
    else:
        raise ConfigError(
            f"unknown method {method!r}; choose weight_avg, task_arithmetic, dare "
            "or linear_solve"
        )
    merged_path = out / "merged.ta"
    write_archive(merged, merged_path)
    outputs = {"merged.ta": _sha256_file(merged_path)}
    if weights is not None:
        _write_json(out / "weights.json", weights.to_json_dict())
        outputs["weights.json"] = _sha256_file(out / "weights.json")
    manifest = {
        "command": "merge",
        "method": method,
        "params": params,
        "inputs": {
            "base": {"path": str(base_path), "sha256": _sha256_file(base_path)},
            "models": [
                {"path": str(p), "sha256": _sha256_file(p)} for p in model_paths
            ],
            "datasets": [
                {"path": str(p), "sha256": _sha256_file(p)} for p in dataset_paths
            ],
        },
        "outputs": outputs,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote merged archive: {merged_path}")
    print(f"wrote manifest: {out / 'manifest.json'}")
    return degraded


def cmd_eval(opts: Options) -> bool:
    archive_path = Path(opts.require("archive", "--archive"))
    archive = read_archive(archive_path)
    datasets, dataset_paths = opts.load_datasets()
    config = opts.model_config(archive)
    model = bind_weights(archive, config)
    per_task = {}
    for index, (dataset, path) in enumerate(zip(datasets, dataset_paths)):
        per_task[f"task{index}"] = {
            "dataset": str(path),
            "loss": eval_cross_entropy(model, dataset),
        }
    mean = float(np.mean([entry["loss"] for entry in per_task.values()]))
    metrics = {
        "archive": str(archive_path),
        "sha256": _sha256_file(archive_path),
        "per_task": per_task,
        "mean": mean,
    }
    out = opts.out_dir()
    _write_json(out / "metrics.json", metrics)
    print(f"wrote metrics: {out / 'metrics.json'}")
    for name in sorted(per_task):
        print(f"  {name}: {per_task[name]['loss']:.6f}")
    print(f"  mean: {mean:.6f}")
    return False


def cmd_compare(opts: Options) -> bool:
    base, models, _, _ = opts.load_inputs()
    datasets, _ = opts.load_datasets(len(models))
    config = opts.model_config(base)
    level = Granularity.parse(opts.get("level", "attn_mlp"))
    seed = opts.get("seed", 0)
    sample_n = opts.get("samples_per_task", 30)
    normalized = opts.get("normalized", True)
    tasks = [f"task{i}" for i in range(len(datasets))]
    degraded = False

    def losses_for(archive: TensorArchive) -> dict[str, float]:
        merged_model = bind_weights(archive, config)
        return {
            name: eval_cross_entropy(merged_model, dataset)
            for name, dataset in zip(tasks, datasets)
        }

    rows = []

    def add_row(row_id: str, method: str, params: dict, archive: TensorArchive) -> None:
        losses = losses_for(archive)
        rows.append(
            {
                "id": row_id,
                "method": method,
                "params": params,
                "losses": losses,
                "mean": float(np.mean(list(losses.values()))),
            }
        )

    add_row("weight_avg", "weight_avg", {}, merge_weight_average(base, models))
    for alpha in TA_GRID:
        add_row(
            f"task_arithmetic[alpha={alpha:g}]",
            "task_arithmetic",
            {"alpha": alpha},
            merge_task_arithmetic(base, models, alpha),
        )
    for drop_p in DARE_DROP_GRID:
        for alpha in DARE_ALPHA_GRID:
            add_row(
                f"dare[drop_p={drop_p:g},alpha={alpha:g}]",
                "dare",
                {"drop_p": drop_p, "alpha": alpha, "seed": seed},
                merge_dare(base, models, alpha, drop_p, seed),
            )
    merged, weights = merge_linear_solve(
        base,
        models,
        level,
        datasets,
        samples_per_task=sample_n,
        seed=seed,
        normalized=normalized,
        config=config,
    )
    degraded = any(g.fallback for g in weights.groups)
    add_row(
        f"linear_solve[level={level.value}]",
        "linear_solve",
        {"level": level.value, "normalized": normalized, "samples_per_task": sample_n},
        merged,
    )

    columns = [*tasks, "mean"]
    best = {}
    for column in columns:
        values = [
            row["mean"] if column == "mean" else row["losses"][column] for row in rows
        ]
        best[column] = rows[int(np.argmin(values))]["id"]
    out = opts.out_dir()
    _write_json(out / "compare.json", {"tasks": tasks, "rows": rows, "best": best})
    csv_rows = []
    for row in rows:
        cells = [row["id"], row["method"], json.dumps(row["params"], sort_keys=True)]
        for column in columns:
            value = row["mean"] if column == "mean" else row["losses"][column]
            cell = f"{value:.10g}"
            if best[column] == row["id"]:
                cell += "*"
            cells.append(cell)
        csv_rows.append(cells)
    _write_csv(out / "compare.csv", ["id", "method", "params", *columns], csv_rows)
    print(f"wrote comparison: {out / 'compare.json'} ({len(rows)} rows)")
    for column in columns:
        print(f"  best {column}: {best[column]}")
    return degraded


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON file of option defaults")
    common.add_argument("--seed", type=int)
    common.add_argument("--samples-per-task", dest="samples_per_task", type=int)
    common.add_argument("--level", choices=LEVEL_NAMES)
    common.add_argument(
        "--normalized", dest="normalized", action="store_true", default=None
    )
    common.add_argument("--plain-gram", dest="normalized", action="store_false")
    common.add_argument("--strict", action="store_true", default=None)
    common.add_argument("--out", type=Path, help="output directory (default: cwd)")

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--base", type=Path, help="base checkpoint archive")
    inputs.add_argument(
        "--model", dest="models", action="append", type=Path, help="fine-tuned archive"
    )
    inputs.add_argument(
        "--dataset", dest="datasets", action="append", type=Path, help="JSONL dataset"
    )

    parser = argparse.ArgumentParser(
        prog="submerge",
        description="Merge fine-tuned checkpoints by solving per-submodule weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", parents=[common], help="write a synthetic fixture")
    for key in FIXTURE_MODEL_DEFAULTS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    p.add_argument("--tasks", dest="n_tasks", type=int)
    p.add_argument("--tau-scale", dest="tau_scale", type=float)
    p.add_argument("--dataset-size", dest="dataset_size", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.set_defaults(func=cmd_gen_fixture)

    p = sub.add_parser(
        "analyze", parents=[common, inputs], help="linearity metrics and sweeps"
    )
    p.add_argument("--levels", help="comma-separated granularities")
    p.add_argument("--n-points", dest="n_points", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", parents=[common, inputs], help="solve merge weights")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("merge", parents=[common, inputs], help="produce a merged archive")
    p.add_argument(
        "--method",
        choices=["weight_avg", "task_arithmetic", "dare", "linear_solve"],
    )
    p.add_argument("--alpha", type=float)
    p.add_argument("--drop-p", dest="drop_p", type=float)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", parents=[common, inputs], help="cross entropy per task")
    p.add_argument("--archive", type=Path, help="archive to evaluate")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", parents=[common, inputs], help="method-by-task loss table"
    )
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = Options(args)
        degraded = args.func(opts)
    except SubmergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if degraded:
        if opts.get("strict", False):
            return 3
        print("note: some groups fell back to uniform weights or degenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
