"""Command line surface tying fixtures, analysis, solving and merging together.

Every option can come from three places, in priority order: the command
line, a --config JSON file of defaults, and built-in defaults. All outputs
are plain JSON/CSV/archive files with no timestamps, so a rerun with the
same inputs is byte-identical.

`analyze` measures each group of a level from nothing but the shared base
trace, so it splits a level's groups into contiguous shares, one per usable
CPU, and runs every share but the first in a forked worker process
(`_map_in_shares`); its outputs and errors are those of a one-process run.
The other commands run in one process.

Exit codes: 0 success, 2 configuration or input error, 3 when --strict is
set and any solver fell back or a metric degenerated.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import signal
import sys
import threading
import traceback
from collections import namedtuple
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn, Sequence

import numpy as np

from .archive import TaskVector, TensorArchive, read_archive, task_vector, write_archive
from .decompose import Granularity, SubmoduleGroup, plan_decomposition
from .errors import ConfigError, DegenerateError, SubmergeError, decode_json, io_boundary
from .errors import is_integer, is_real, require_integer, write_json
from .features import DeltaStore, FeatureStore, collect_base_features, compute_delta_outputs
from .fixtures import FixtureSpec, build_fixture, read_dataset, write_fixture
from .linearity import metric_sweep, non_linearity_score, require_n_points
from .merge import (
    config_for,
    merge_dare,
    merge_linear_solve,
    merge_task_arithmetic,
    merge_weight_average,
)
from .model import MODEL_SIZES, ModelConfig, bind_weights, eval_cross_entropy
from .solver import MergeWeights

# One row per merge method: its merge function, the options it takes as keyword
# arguments (a manifest's "params"), and the inputs it reads besides --base and
# --model (listed under "inputs"). --method refuses the other methods' flags.
Method = namedtuple("Method", "merge params inputs")
METHODS = {
    "weight_avg": Method(merge_weight_average, (), ()),
    "task_arithmetic": Method(merge_task_arithmetic, ("alpha",), ()),
    "dare": Method(merge_dare, ("alpha", "drop_p", "seed"), ()),
    "linear_solve": Method(
        merge_linear_solve, ("level", "normalized", "samples_per_task", "seed"), ("datasets",)
    ),
}
TA_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
DARE_DROP_GRID = [0.6, 0.7, 0.8, 0.9]
DARE_ALPHA_GRID = [0.6, 0.8, 1.0]
LEVEL_NAMES = [g.value for g in Granularity]
# The three per-group columns of the analyze heatmap and summary.
HEAT_COLUMNS = ("non_linearity", "cosine_merge_grid_mean", "projection_distance_grid_mean")


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# Flags are typed by argparse; a config value must have its option's JSON kind,
# so a string number, a float seed, a single string for a list, a NaN, an
# infinity or an integer past the float range exits 2 instead of being cast,
# iterated or overflowing.
JSON_TYPE_CHECKS = {
    "a boolean": lambda v: isinstance(v, bool),
    "an integer": is_integer,
    "a number": is_real,
    "a string": lambda v: isinstance(v, str),
    "a string or a list of strings": lambda v: isinstance(v, str) or _is_string_list(v),
    "a list of strings": _is_string_list,
}


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with io_boundary(f"cannot write {path}"), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class Options:
    """Merged view over parsed flags, the --config file, and the OPTIONS defaults.

    A config file may be shared by several commands: each of its keys is
    type-checked, and read only by the commands that read that option.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        # The directories `out_dir` made, innermost first.
        self.created: list[Path] = []
        if args.config is not None:
            with io_boundary("cannot read config file", ConfigError):
                blob = Path(args.config).read_bytes()
            payload = decode_json(blob, ConfigError, "config file is not valid JSON")
            if not isinstance(payload, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = sorted(set(payload) - set(CONFIG_TYPES))
            if unknown:
                raise ConfigError(f"unknown config key {unknown[0]!r}")
            for key, kind in CONFIG_TYPES.items():
                if key in payload and not JSON_TYPE_CHECKS[kind](payload[key]):
                    raise ConfigError(f"config key {key!r} must be {kind}, got {payload[key]!r}")
            self.file = payload
        # The options this run reads: its command's, less those of the other merge methods.
        self.reads = set(vars(args))
        if hasattr(args, "method"):
            method = self.require("method")
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}; choose one of {', '.join(METHODS)}")
            owned = {name: {*m.params, *m.inputs} for name, m in METHODS.items()}
            self.reads -= set().union(*owned.values()) - owned[method]
        if "seed" in self.reads:
            require_integer("seed", self.get("seed"), 0, ConfigError)
        for key in sorted(set(vars(args)) - self.reads):
            if getattr(args, key) is not None:
                flags = "/".join(OPTIONS[key].flags)
                raise ConfigError(f"{flags} is not read by --method {self.get('method')}")

    def get(self, key: str, default=None):
        """The flag, else the config-file value, else `default`, else the table default."""
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file.get(key, default)
        return OPTIONS[key].default if value is None else value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            flag = next(iter(OPTIONS[key].flags))
            raise ConfigError(f"missing required option {flag} (or config key {key!r})")
        return value

    def out_dir(self) -> Path:
        out = Path(self.get("out"))
        self.created += [path for path in (out, *out.parents) if not path.exists()]
        with io_boundary(f"cannot create output directory {out}"):
            out.mkdir(parents=True, exist_ok=True)
        return out

    def read_inputs(self, digests: dict[Path, str] | None = None):
        """Read and check every archive and dataset the command (for merge, its --method)
        reads, before the command creates --out: the --base or --archive archive, the
        --model archives, the datasets, that archive's model config, and the paths read.
        `digests`, if given, receives each path's sha256 of the bytes parsed."""
        paths = {"models": [], "datasets": []}
        for key in ("base", "archive", "models", "datasets"):
            if key in self.reads:
                value = self.require(key)
                if value == []:
                    flag = next(iter(OPTIONS[key].flags))
                    raise ConfigError(f"need at least one {flag} (config key {key!r} is empty)")
                paths[key] = [Path(p) for p in value] if isinstance(value, list) else Path(value)
        n_models, n_datasets = len(paths["models"]), len(paths["datasets"])
        if n_models and n_datasets and n_models != n_datasets:
            raise ConfigError(f"{n_models} models need {n_models} datasets, got {n_datasets}")
        archive = read_archive(paths.get("base") or paths["archive"], digests)
        models = [read_archive(p, digests) for p in paths["models"]]
        datasets = [read_dataset(p, digests) for p in paths["datasets"]]
        return archive, models, datasets, config_for(archive), paths


def _json_number(value: float) -> float | None:
    """`value`, or None (JSON null) if it is not finite."""
    return value if np.isfinite(value) else None


def _float_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.10g}"


def _losses(
    archive: TensorArchive, config: ModelConfig, datasets: Sequence[Sequence[Sequence[int]]]
) -> list[float]:
    """Cross entropy of `archive` under `config` on each dataset, in order."""
    model = bind_weights(archive, config)
    return [eval_cross_entropy(model, dataset) for dataset in datasets]


def cmd_gen_fixture(opts: Options) -> bool:
    fields = ("n_tasks", "tau_scale", "dataset_size", "seq_len", "seed")
    spec = FixtureSpec.from_json_dict(
        {"config": {key: opts.get(key) for key in MODEL_SIZES}}
        | {key: opts.get(key) for key in fields if opts.get(key) is not None}
    )
    fixture = build_fixture(spec)  # built before --out is made
    paths = write_fixture(fixture, opts.out_dir())
    print(f"wrote fixture: {paths['manifest']}")
    for entry in [paths["base"], *paths["models"], *paths["datasets"]]:
        print(f"  {entry}")
    return False


def _parse_levels(opts: Options) -> list[Granularity]:
    raw = opts.get("levels")
    if isinstance(raw, str):
        names = [part.strip() for part in raw.split(",") if part.strip()]
    else:
        names = list(raw)
    if not names:
        raise ConfigError("no analysis levels requested")
    levels = [Granularity.parse(name) for name in names]
    for index, level in enumerate(levels):
        if level in levels[:index]:
            raise ConfigError(f"analysis level {level.value!r} is requested more than once")
    return levels


def _finite_stats(values: Sequence[float | None]) -> dict:
    finite = [v for v in values if v is not None]
    if not finite:
        return {"mean": None, "std": None, "count": 0}
    return {
        "mean": float(np.mean(finite)),
        "std": float(np.std(finite)),
        "count": len(finite),
    }


# One group's analyze results: its non-linearity per data task (JSON numbers),
# its HEAT_COLUMNS means by name, its sweep CSV rows, and whether a metric degenerated.
GroupResult = namedtuple("GroupResult", "per_task means sweep_rows degraded")


def _analyze_group(
    store: FeatureStore,
    deltas: DeltaStore,
    base: TensorArchive,
    taus: Sequence[TaskVector],
    group: SubmoduleGroup,
    n_points: int,
) -> GroupResult:
    """One group's interpolation score per task and metric sweep; then the
    group is released, so a tap's arrays go with the last group that reads them."""
    degraded = False
    per_task = []
    for task in range(len(taus)):
        try:
            value, _ = non_linearity_score(
                store, base, taus[task], group, task=task, n_points=n_points
            )
        except DegenerateError:
            value = float("nan")
            degraded = True
        per_task.append(_json_number(value))
    means = {"non_linearity": _finite_stats(per_task)["mean"]}
    sweep_rows = []
    for record in metric_sweep(store, deltas, base, taus, group):
        if record.aux.get("degenerate"):
            degraded = True
        if record.metric.endswith("_grid_mean"):
            means[record.metric] = _json_number(record.value)
        else:
            alpha = record.aux.get("alpha", [])
            sweep_rows.append(
                [group.id, record.metric]
                + [f"{a:.10g}" for a in alpha]
                + [_float_cell(_json_number(record.value))]
            )
    store.release(group)
    return GroupResult(per_task, means, sweep_rows, degraded)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_shares(items: Sequence, run: Callable, release: Callable) -> list:
    """`[run(item) for item in items]`, one contiguous share of the items per
    usable CPU, each share but the first run in a forked worker process.

    A worker inherits this process's memory, so it reads what was computed
    before the fork without copying it. It calls `release` on every item
    outside its share, and this process calls it on every worker's items,
    so each process holds only its own share. A worker pickles its results,
    or the error that stopped it, back through a pipe, writes nothing to
    stdout or stderr, and ends only through `os._exit`. The results come back
    in item order, and the error raised is the one a one-process run would
    raise: the first failing item's, a `SubmergeError` with its class and
    message, any other error as a `RuntimeError` holding the worker's
    traceback. Every worker is killed and reaped before this returns or raises.

    With one usable CPU or one item, without `os.fork`, or while another
    Python thread runs (a forked child inherits no other thread, so a lock
    one held stays locked in the child), every item runs in this process;
    so do the shares left when a fork fails, after the workers' shares.
    """
    n_shares = min(_usable_cpus(), len(items))
    if n_shares < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [run(item) for item in items]
    bounds = [len(items) * share // n_shares for share in range(n_shares + 1)]
    workers: list[tuple[int, BinaryIO]] = []  # each worker's pid and the read end of its pipe
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # say, a process limit reached: this process runs the rest
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                os.close(read_end)
                _serve_share(write_end, items, start, stop, run, release)
            os.close(write_end)
            workers.append((pid, os.fdopen(read_end, "rb")))
        rest = bounds[1 + len(workers)]
        for item in items[bounds[1] : rest]:
            release(item)
        results = [run(item) for item in items[: bounds[1]]]
        for _, pipe in workers:
            with pipe:
                payload = pipe.read()
            try:
                share_results, error = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError("a worker process ended before sending its results") from None
            results += share_results
            if isinstance(error, str):
                raise RuntimeError(f"a worker process failed:\n{error}")
            if error is not None:
                raise error
        return results + [run(item) for item in items[rest:]]
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in workers:
            os.waitpid(pid, 0)


def _serve_share(
    write_end: int, items: Sequence, start: int, stop: int, run: Callable, release: Callable
) -> NoReturn:
    """A forked worker's whole life: release the items outside `items[start:stop]`,
    run the share in order until one fails, and send back through `write_end`
    the pickled results and the failing item's `SubmergeError`, or the
    traceback of any other error (None if none failed)."""
    status = 1
    try:
        for item in [*items[:start], *items[stop:]]:
            release(item)
        results, error = [], None
        for item in items[start:stop]:
            try:
                results.append(run(item))
            except SubmergeError as exc:
                error = exc
                break
            except BaseException:  # sent to the parent, which raises it
                error = traceback.format_exc()
                break
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps((results, error)))
        status = 0
    finally:
        os._exit(status)


def cmd_analyze(opts: Options) -> bool:
    base, models, datasets, config, _ = opts.read_inputs()
    levels = _parse_levels(opts)
    sample_n = opts.get("samples_per_task")
    seed = opts.get("seed")
    # Checked before --out is made and before any trace.
    n_points = require_n_points(opts.get("n_points"))
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
        # Every data task is traced before the groups are shared out, so no
        # process traces one again.
        for task in range(len(datasets)):
            store.group_inputs(plan.groups[0], task)
        results = _map_in_shares(
            plan.groups,
            lambda group: _analyze_group(store, deltas, base, taus, group, n_points),
            store.release,
        )
        group_entries = {}
        heat_rows = []  # per group, its HEAT_COLUMNS values as JSON numbers
        sweep_rows = []
        for group, result in zip(plan.groups, results):
            degraded = result.degraded or degraded
            sweep_rows += result.sweep_rows
            row = [result.means.get(column) for column in HEAT_COLUMNS]
            heat_rows.append(row)
            group_entries[group.id] = {
                **dict(zip(HEAT_COLUMNS, row)),
                "non_linearity": {"per_task": result.per_task, "mean": row[0]},
            }
        report["levels"][level.value] = {
            "groups": group_entries,
            "summary": {
                column: _finite_stats([row[i] for row in heat_rows])
                for i, column in enumerate(HEAT_COLUMNS)
            },
        }
        _write_csv(
            out / f"heatmap_{level.value}.csv",
            ["group", *HEAT_COLUMNS],
            [
                [group_id, *map(_float_cell, row)]
                for group_id, row in zip(group_entries, heat_rows)
            ],
        )
        alpha_header = [f"alpha_{t}" for t in range(len(models))]
        _write_csv(
            out / f"sweep_{level.value}.csv",
            ["group", "metric", *alpha_header, "value"],
            sweep_rows,
        )
    write_json(out / "report.json", report)
    print(f"wrote report: {out / 'report.json'}")
    for level in levels:
        summary = report["levels"][level.value]["summary"]["non_linearity"]
        print(f"  {level.value}: non-linearity mean {summary['mean']}")
    return degraded


def _solve_params(opts: Options, default_level: str | None = None) -> dict:
    """The linear-solve options, as the keyword arguments of `merge_linear_solve`."""
    params = {key: opts.get(key) for key in METHODS["linear_solve"].params}
    params["level"] = Granularity.parse(opts.get("level", default_level)).value
    return params


def _merged(
    method: str, params: dict, base: TensorArchive, models: list[TensorArchive], datasets
) -> tuple[TensorArchive, MergeWeights | None]:
    """The archive merged by `method` with its recorded `params`, and its
    solved weights (None for the methods that solve nothing)."""
    merge, _, inputs = METHODS[method]
    given = {"datasets": datasets}
    result = merge(base, models, **params, **{key: given[key] for key in inputs})
    # Only merge_linear_solve returns its solved weights with the archive.
    return result if isinstance(result, tuple) else (result, None)


def _file_entry(path: Path, digests: dict[Path, str]) -> dict:
    return {"path": str(path), "sha256": digests[path]}


def _fell_back(weights: MergeWeights | None) -> bool:
    return weights is not None and any(g.fallback for g in weights.groups)


def cmd_solve(opts: Options) -> bool:
    base, models, datasets, _, _ = opts.read_inputs()
    params = _solve_params(opts)
    out = opts.out_dir()
    _, weights = _merged("linear_solve", params, base, models, datasets)
    write_json(out / "weights.json", weights.to_json_dict())
    print(f"wrote weights: {out / 'weights.json'}")
    for g in weights.groups:
        alphas = ", ".join(f"{a:.4f}" for a in g.alpha)
        suffix = " (fallback)" if g.fallback else ""
        print(f"  {g.group_id}: [{alphas}]{suffix}")
    return _fell_back(weights)


def cmd_merge(opts: Options) -> bool:
    method = opts.get("method")
    digests: dict[Path, str] = {}
    base, models, datasets, _, paths = opts.read_inputs(digests)
    if method == "linear_solve":
        params = _solve_params(opts)
    else:
        alpha = float(opts.get("alpha", 1.0 / len(models)))
        values = {"alpha": alpha, "drop_p": float(opts.get("drop_p")), "seed": opts.get("seed")}
        params = {key: values[key] for key in METHODS[method].params}
    out = opts.out_dir()
    merged, weights = _merged(method, params, base, models, datasets)
    merged_path = out / "merged.ta"
    write_archive(merged, merged_path, digests)
    outputs = {"merged.ta": digests[merged_path]}
    if weights is not None:
        write_json(out / "weights.json", weights.to_json_dict(), digests)
        outputs["weights.json"] = digests[out / "weights.json"]
    manifest = {
        "command": "merge",
        "method": method,
        "params": params,
        "inputs": {
            "base": _file_entry(paths["base"], digests),
            "models": [_file_entry(p, digests) for p in paths["models"]],
            "datasets": [_file_entry(p, digests) for p in paths["datasets"]],
        },
        "outputs": outputs,
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote merged archive: {merged_path}")
    print(f"wrote manifest: {out / 'manifest.json'}")
    return _fell_back(weights)


def cmd_eval(opts: Options) -> bool:
    digests: dict[Path, str] = {}
    archive, _, datasets, config, paths = opts.read_inputs(digests)
    out = opts.out_dir()
    losses = _losses(archive, config, datasets)
    per_task = {
        f"task{index}": {"dataset": str(path), "loss": loss}
        for index, (path, loss) in enumerate(zip(paths["datasets"], losses))
    }
    mean = float(np.mean(losses))
    metrics = {
        "archive": str(paths["archive"]),
        "sha256": digests[paths["archive"]],
        "per_task": per_task,
        "mean": mean,
    }
    write_json(out / "metrics.json", metrics)
    print(f"wrote metrics: {out / 'metrics.json'}")
    for name in sorted(per_task):
        print(f"  {name}: {per_task[name]['loss']:.6f}")
    print(f"  mean: {mean:.6f}")
    return False


def cmd_compare(opts: Options) -> bool:
    # Every merged archive carries the base's meta, so its model_config.
    base, models, datasets, config, _ = opts.read_inputs()
    solve_params = _solve_params(opts, "attn_mlp")
    seed = solve_params["seed"]
    out = opts.out_dir()
    tasks = [f"task{i}" for i in range(len(datasets))]
    runs = [("weight_avg", "weight_avg", {})]
    runs += [(f"task_arithmetic[alpha={a:g}]", "task_arithmetic", {"alpha": a}) for a in TA_GRID]
    runs += [
        (f"dare[drop_p={p:g},alpha={a:g}]", "dare", {"drop_p": p, "alpha": a, "seed": seed})
        for p in DARE_DROP_GRID
        for a in DARE_ALPHA_GRID
    ]
    runs.append((f"linear_solve[level={solve_params['level']}]", "linear_solve", solve_params))
    rows = []
    degraded = False
    for row_id, method, params in runs:
        merged, weights = _merged(method, params, base, models, datasets)
        degraded = _fell_back(weights) or degraded
        losses = dict(zip(tasks, _losses(merged, config, datasets)))
        rows.append(
            {
                "id": row_id,
                "method": method,
                "params": params,
                "losses": losses,
                "mean": float(np.mean(list(losses.values()))),
            }
        )

    columns = [*tasks, "mean"]
    table = [{**row["losses"], "mean": row["mean"]} for row in rows]
    best = {
        column: rows[int(np.argmin([values[column] for values in table]))]["id"]
        for column in columns
    }
    write_json(out / "compare.json", {"tasks": tasks, "rows": rows, "best": best})
    csv_rows = [
        [row["id"], row["method"], json.dumps(row["params"], sort_keys=True)]
        + [f"{values[c]:.10g}" + ("*" if best[c] == row["id"] else "") for c in columns]
        for row, values in zip(rows, table)
    ]
    _write_csv(out / "compare.csv", ["id", "method", "params", *columns], csv_rows)
    print(f"wrote comparison: {out / 'compare.json'} ({len(rows)} rows)")
    for column in columns:
        print(f"  best {column}: {best[column]}")
    return degraded


COMMANDS = {
    "gen-fixture": (cmd_gen_fixture, "write a synthetic fixture"),
    "analyze": (cmd_analyze, "linearity metrics and sweeps"),
    "solve": (cmd_solve, "solve merge weights"),
    "merge": (cmd_merge, "produce a merged archive"),
    "eval": (cmd_eval, "cross entropy per task"),
    "compare": (cmd_compare, "method-by-task loss table"),
}
RUNS = ("analyze", "solve", "merge", "compare")  # the commands that merge or analyze
SOLVES = ("solve", "merge", "compare")  # the commands that read the linear-solve options

# One row per option: its config key, its flags with their argparse keywords, the
# JSON kind its config value must have, its default, and the commands that read
# it. A command takes only the flags of the options it reads.
Option = namedtuple("Option", "key flags kind default commands")
OPTIONS = {option.key: option for option in [
    # --config names the file, so it is no config key.
    Option("config", {"--config": {"type": Path, "help": "JSON file of option defaults"}},
           None, None, tuple(COMMANDS)),
    Option("out", {"--out": {"type": Path, "help": "output directory (default: cwd)"}},
           "a string", ".", tuple(COMMANDS)),
    Option("base", {"--base": {"type": Path, "help": "base checkpoint archive"}},
           "a string", None, RUNS),
    Option("models", {"--model": {"action": "append", "type": Path, "help": "fine-tuned archive"}},
           "a list of strings", None, RUNS),
    Option("datasets", {"--dataset": {"action": "append", "type": Path, "help": "JSONL dataset"}},
           "a list of strings", None, (*RUNS, "eval")),
    Option("archive", {"--archive": {"type": Path, "help": "archive to evaluate"}},
           "a string", None, ("eval",)),
    Option("seed", {"--seed": {"type": int}}, "an integer", 0, ("gen-fixture", *RUNS)),
    Option("samples_per_task", {"--samples-per-task": {"type": int}}, "an integer", 30, RUNS),
    Option("strict", {"--strict": {"action": "store_true"}}, "a boolean", False, RUNS),
    Option("level", {"--level": {"choices": LEVEL_NAMES}}, "a string", "layer", SOLVES),
    Option("normalized", {"--normalized": {"action": "store_true"},
                          "--plain-gram": {"action": "store_false"}}, "a boolean", True, SOLVES),
    Option("levels", {"--levels": {"help": "comma-separated granularities"}},
           "a string or a list of strings", "model,layer", ("analyze",)),
    Option("n_points", {"--n-points": {"type": int}}, "an integer", 10, ("analyze",)),
    Option("method", {"--method": {"choices": METHODS}}, "a string", None, ("merge",)),
    Option("alpha", {"--alpha": {"type": float}}, "a number", None, ("merge",)),
    Option("drop_p", {"--drop-p": {"type": float}}, "a number", 0.9, ("merge",)),
    # The fixture defaults are FixtureSpec's.
    Option("n_tasks", {"--tasks": {"type": int}}, "an integer", None, ("gen-fixture",)),
    Option("tau_scale", {"--tau-scale": {"type": float}}, "a number", None, ("gen-fixture",)),
    Option("dataset_size", {"--dataset-size": {"type": int}}, "an integer", None, ("gen-fixture",)),
    Option("seq_len", {"--seq-len": {"type": int}}, "an integer", None, ("gen-fixture",)),
    # The fixture's MODEL_SIZES.
    Option("d_model", {"--d-model": {"type": int}}, "an integer", 32, ("gen-fixture",)),
    Option("n_heads", {"--n-heads": {"type": int}}, "an integer", 4, ("gen-fixture",)),
    Option("n_layers", {"--n-layers": {"type": int}}, "an integer", 4, ("gen-fixture",)),
    Option("d_ff", {"--d-ff": {"type": int}}, "an integer", 64, ("gen-fixture",)),
    Option("vocab_size", {"--vocab-size": {"type": int}}, "an integer", 64, ("gen-fixture",)),
    Option("max_seq", {"--max-seq": {"type": int}}, "an integer", 64, ("gen-fixture",)),
]}
# The JSON kind each config-file key must have.
CONFIG_TYPES = {key: option.kind for key, option in OPTIONS.items() if option.kind}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submerge",
        description="Merge fine-tuned checkpoints by solving per-submodule weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in COMMANDS.items():
        # Without allow_abbrev=False, `analyze --level` would parse as --levels.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        for option in OPTIONS.values():
            if command in option.commands:
                for flag, keywords in option.flags.items():
                    p.add_argument(flag, dest=option.key, default=None, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = None
    try:
        opts = Options(args)
        degraded = args.func(opts)
    except SubmergeError as exc:
        # A failed run removes the --out it made, unless it wrote into it.
        for path in opts.created if opts else ():
            try:
                os.rmdir(path)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if degraded:
        if opts.get("strict"):
            return 3
        print("note: some groups fell back to uniform weights or degenerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
