"""Known-answer outputs of the CLI on one tiny fixture.

    PYTHONPATH=src python tests/known_answers.py

writes tests/known_answers.json from the current code. `test_known_answers.py`
reruns the same commands and compares the numbers with the recorded ones, so
a change that moves an output value shows up as a failing test. Re-record
only when such a move is intended, and say in CHANGES.md which values moved,
by how much, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from submerge.archive import read_archive
from submerge.cli import LEVEL_NAMES, main
from submerge.decompose import Granularity, plan_decomposition
from submerge.features import collect_base_features
from submerge.fixtures import read_dataset
from submerge.merge import config_for
from submerge.model import bind_weights

RECORD = Path(__file__).resolve().parent / "known_answers.json"
N_TASKS = 2
FIXTURE_FLAGS = ["--tasks", str(N_TASKS), "--dataset-size", "8", "--seq-len", "12", "--seed", "5"]
SAMPLES_PER_TASK = 6
SEED = 1


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"submerge {' '.join(argv)} exited {code}")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def known_answers(work: Path) -> dict:
    """Run the recorded commands under `work` and return their output values."""
    fixture = work / "fixture"
    _run(["gen-fixture", *FIXTURE_FLAGS, "--out", str(fixture)])
    datasets = [fixture / f"task{t}.jsonl" for t in range(N_TASKS)]
    dataset_flags = [f for d in datasets for f in ("--dataset", str(d))]
    inputs = ["--base", str(fixture / "base.ta"), *dataset_flags]
    inputs += [f for t in range(N_TASKS) for f in ("--model", str(fixture / f"task{t}.ta"))]
    runs = ["--seed", str(SEED), "--samples-per-task", str(SAMPLES_PER_TASK)]

    alphas, digests = {}, {}
    for level in LEVEL_NAMES:
        out = work / f"merge_{level}"
        _run(["merge", *inputs, *runs, "--method", "linear_solve", "--level", level, "--out", str(out)])
        weights = _read_json(out / "weights.json")
        alphas[level] = {group["id"]: group["alpha"] for group in weights["groups"]}
        digests[level] = hashlib.sha256((out / "merged.ta").read_bytes()).hexdigest()

    _run(["analyze", *inputs, *runs, "--levels", ",".join(LEVEL_NAMES), "--out", str(work / "analyze")])
    analyze = _read_json(work / "analyze" / "report.json")["levels"]

    merged = str(work / "merge_attn_mlp" / "merged.ta")
    _run(["eval", "--archive", merged, *dataset_flags, "--out", str(work / "eval")])
    metrics = _read_json(work / "eval" / "metrics.json")
    eval_losses = {task: entry["loss"] for task, entry in metrics["per_task"].items()}
    eval_losses["mean"] = metrics["mean"]

    _run(["compare", *inputs, *runs, "--out", str(work / "compare")])
    compare = {
        row["id"]: {**row["losses"], "mean": row["mean"]}
        for row in _read_json(work / "compare" / "compare.json")["rows"]
    }

    base = read_archive(fixture / "base.ta")
    config = config_for(base)
    store = collect_base_features(
        bind_weights(base, config),
        [read_dataset(d) for d in datasets],
        plan_decomposition(config, Granularity.MODEL),
        SAMPLES_PER_TASK,
        seed=SEED,
    )
    sampled = {f"task{t}": store.sampled[t] for t in range(N_TASKS)}

    return {
        "alphas": alphas,
        "analyze": analyze,
        "eval": eval_losses,
        "compare": compare,
        "sampled": sampled,
        # Information only: BLAS rounding can flip a float32 entry of a merged archive.
        "merged_sha256": digests,
    }


def main_record() -> int:
    with tempfile.TemporaryDirectory() as work:
        answers = known_answers(Path(work))
    RECORD.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
