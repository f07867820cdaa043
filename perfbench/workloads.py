"""Workload fixtures, job command lines, and output checks for the benchmark.

Each workload is one `submerge` CLI job run in-process through
`submerge.cli.main` on a fixture generated from the run's seed. Jobs are
checked against reference values recorded at the commit that defined the
benchmark (`references.json`, written by `record_references.py`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from submerge.archive import read_archive
from submerge.fixtures import FixtureSpec, read_dataset
from submerge.merge import config_for
from submerge.model import bind_weights, eval_cross_entropy

N_TASKS = 3
# Fixture seed = --seed modulo FIXTURE_SEEDS, so every seed the benchmark can
# be given has recorded reference outputs to be checked against.
FIXTURE_SEEDS = 16

FIXTURES = {
    "fx3": {
        "config": {"d_model": 64, "n_heads": 8, "n_layers": 4, "d_ff": 128, "vocab_size": 128, "max_seq": 64},
        "dataset_size": 30,
        "seq_len": 32,
    },
    # Smoke-mode stand-in for fx3: checks the harness, not speed.
    "tiny": {
        "config": {"d_model": 16, "n_heads": 2, "n_layers": 2, "d_ff": 32, "vocab_size": 32, "max_seq": 16},
        "dataset_size": 4,
        "seq_len": 8,
    },
}
SMOKE_FIXTURE = "tiny"
SMOKE_SAMPLES = 4

# Reference comparison tolerance. Group outputs and merged archives are
# stored as float32 (step 6e-8 relative), which swallows float64 rounding
# changes (about 1e-16 relative) such as a reordered sum or matmul blocking:
# such changes move these values by under 1e-12. Any real change to the
# computation moves them by far more than REL_TOL.
REL_TOL = 1e-7
ABS_TOL = 1e-10


def fixture_spec(fixture: str, seed: int) -> FixtureSpec:
    payload = dict(FIXTURES[fixture], n_tasks=N_TASKS, tau_scale=0.5, seed=seed % FIXTURE_SEEDS)
    return FixtureSpec.from_json_dict(payload)


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    args: tuple[str, ...]
    samples_per_task: int
    digest_files: tuple[str, ...]

    def argv(self, fixture_dir: Path, out_dir: Path, seed: int, samples: int | None = None) -> list[str]:
        return cli_argv(self.args, fixture_dir, out_dir, seed, samples or self.samples_per_task)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "merge_heads",
            "fx3",
            ("merge", "--method", "linear_solve", "--level", "head_mlp"),
            30,
            ("merged.ta", "weights.json"),
        ),
        Workload(
            "analyze_sweep",
            "fx3",
            ("analyze", "--levels", "attn_mlp"),
            10,
            ("report.json",),
        ),
    )
}
# analyze writes no merged archive; its merged_loss comes from this untimed
# linear_solve merge at the level it analyses.
QUALITY_MERGE = ("merge", "--method", "linear_solve", "--level", "attn_mlp")


def cli_argv(args, fixture_dir: Path, out_dir: Path, seed: int, samples: int) -> list[str]:
    """A CLI command line over the fixture's base, models and datasets."""
    argv = [*args, "--base", str(fixture_dir / "base.ta")]
    for t in range(N_TASKS):
        argv += ["--model", str(fixture_dir / f"task{t}.ta")]
    for t in range(N_TASKS):
        argv += ["--dataset", str(fixture_dir / f"task{t}.jsonl")]
    return argv + ["--seed", str(seed % FIXTURE_SEEDS), "--samples-per-task", str(samples), "--out", str(out_dir)]


def mean_loss(archive_path: Path, fixture_dir: Path) -> float:
    """Mean over tasks of next-token cross entropy (nats) on the task datasets."""
    archive = read_archive(archive_path)
    model = bind_weights(archive, config_for(archive))
    return float(
        np.mean([eval_cross_entropy(model, read_dataset(fixture_dir / f"task{t}.jsonl")) for t in range(N_TASKS)])
    )


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def job_outputs(workload: Workload, out_dir: Path, fixture_dir: Path) -> dict:
    """The values of one job's outputs that are checked against the reference."""
    command = workload.args[0]
    if command == "merge":
        weights = _read_json(out_dir / "weights.json")
        return {
            "alpha": {g["id"]: g["alpha"] for g in weights["groups"]},
            "fallback": {g["id"]: g["fallback"] for g in weights["groups"]},
            "merged_loss": mean_loss(out_dir / "merged.ta", fixture_dir),
        }
    report = _read_json(out_dir / "report.json")
    return {"summary": {level: entry["summary"] for level, entry in report["levels"].items()}}


def digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in workload.digest_files}


def mismatches(actual, expected, path: str = "") -> list[str]:
    """Where `actual` differs from `expected`: structure exactly, numbers within tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or 'outputs'}: keys differ"]
        return [m for key in expected for m in mismatches(actual[key], expected[key], f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected)) for m in mismatches(a, e, f"{path}[{i}]")]
    if isinstance(expected, (bool, str)) or expected is None:
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return [f"{path}: {actual!r} is not a number"]
    if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def reference_key(workload: str, fixture: str, seed: int) -> str:
    return f"{workload}/{fixture}/seed{seed % FIXTURE_SEEDS}"
