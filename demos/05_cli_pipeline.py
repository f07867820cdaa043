"""Drive the full pipeline through the command-line interface.

Every step the library exposes is also a subcommand: gen-fixture writes a
checkpoint family, analyze reports linearity metrics, solve writes merge
weights, merge produces a combined archive, eval scores it per task, and
compare runs every method side by side. This script shells through the
same entry point the `submerge` console script uses and then reads the
JSON artifacts the commands leave behind.
"""

import json
import tempfile
from pathlib import Path

from submerge.cli import main

tmp = Path(tempfile.mkdtemp(prefix="submerge-demo-"))
fixture_dir = tmp / "fixture"
out = tmp / "out"


def run(*argv: str) -> None:
    print(f"$ submerge {' '.join(argv)}")
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")
    print()


run(
    "gen-fixture",
    "--d-model", "32", "--n-heads", "4", "--n-layers", "2", "--d-ff", "64",
    "--vocab-size", "64", "--max-seq", "32",
    "--tasks", "2", "--tau-scale", "0.5",
    "--dataset-size", "8", "--seq-len", "12",
    "--seed", "5", "--out", str(fixture_dir),
)

datasets = [
    "--dataset", str(fixture_dir / "task0.jsonl"),
    "--dataset", str(fixture_dir / "task1.jsonl"),
]
inputs = [
    "--base", str(fixture_dir / "base.ta"),
    "--model", str(fixture_dir / "task0.ta"),
    "--model", str(fixture_dir / "task1.ta"),
    *datasets,
    "--samples-per-task", "6", "--seed", "0",
]

run("analyze", *inputs, "--levels", "model,attn_mlp", "--n-points", "4", "--out", str(out))
run("solve", *inputs, "--level", "attn_mlp", "--out", str(out))
run("merge", *inputs, "--method", "linear_solve", "--level", "attn_mlp", "--out", str(out))
# eval scores one archive and reads no base, models or solve options.
run("eval", "--archive", str(out / "merged.ta"), *datasets, "--out", str(out))
run("compare", *inputs, "--level", "attn_mlp", "--out", str(out))

weights = json.loads((out / "weights.json").read_text())
print("solved weights per group:")
for entry in weights["groups"]:
    print(f"  {entry['id']:>8}: {[round(a, 4) for a in entry['alpha']]}")

table = json.loads((out / "compare.json").read_text())
print("\nmethod comparison (mean loss):")
for row in table["rows"]:
    print(f"  {row['id']:>24}: {row['mean']:.4f}")
print(f"\nartifacts under {tmp}")
