"""End-to-end command line runs against generated fixtures."""

from __future__ import annotations

import argparse
import builtins
import errno
import hashlib
import io
import json
import math
import os
import shlex
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submerge.archive
import submerge.cli
from submerge import ConfigError, NumericError, SubmergeError, TensorArchive, read_archive, write_archive
from submerge.cli import (
    COMMANDS,
    CONFIG_TYPES,
    JSON_TYPE_CHECKS,
    METHODS,
    OPTIONS,
    Options,
    build_parser,
    main,
)
from submerge.decompose import Granularity, plan_decomposition
from submerge.errors import write_file
from submerge.features import FeatureStore
from submerge.fixtures import MAX_DATASET_SIZE, MAX_TASKS
from submerge.linearity import default_alpha_grid
from submerge.model import MAX_PARAMETERS, MODEL_SIZES, ModelConfig

from conftest import bad_scalars, byte_mutants

FIXTURE_FLAGS = [
    "--d-model", "16", "--n-heads", "2", "--n-layers", "2", "--d-ff", "32",
    "--vocab-size", "17", "--max-seq", "16", "--tasks", "2",
    "--dataset-size", "8", "--seq-len", "8", "--seed", "3",
]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    rc = main(["gen-fixture", *FIXTURE_FLAGS, "--tau-scale", "0.5", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def flat_fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("flat")
    rc = main(["gen-fixture", *FIXTURE_FLAGS, "--tau-scale", "0", "--out", str(out)])
    assert rc == 0
    return out


def io_flags(fixture_dir, n_models=2, datasets=True):
    """--base and --model flags, and with `datasets` one --dataset per model."""
    flags = ["--base", str(fixture_dir / "base.ta")]
    for t in range(n_models):
        flags += ["--model", str(fixture_dir / f"task{t}.ta")]
        if datasets:
            flags += ["--dataset", str(fixture_dir / f"task{t}.jsonl")]
    return flags


def on_cpus(monkeypatch, n: int) -> None:
    """Make the commands read `n` usable CPUs: `analyze` then runs a level's
    groups in one process for n = 1, else in this one and n - 1 forked workers."""
    monkeypatch.setattr(submerge.cli, "_usable_cpus", lambda: n)


def assert_no_child_left() -> None:
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Tally:
    """Lines added by this process and any forked from it: each `add` is one
    O_APPEND write of one short line, which writes from other processes do
    not interleave with."""

    def __init__(self, path: Path):
        self.path = path

    def add(self, text: str) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{text}\n".encode())
        finally:
            os.close(fd)

    def lines(self) -> list[str]:
        return self.path.read_text().splitlines() if self.path.exists() else []


# What a four-level `analyze` writes.
ANALYZE_OUTPUTS = [
    "report.json",
    *(f"{kind}_{level.value}.csv" for level in Granularity for kind in ("heatmap", "sweep")),
]


class TestGenFixture:
    def test_outputs_exist(self, fixture_dir):
        for name in ("base.ta", "task0.ta", "task1.ta", "task0.jsonl", "task1.jsonl", "fixture.json"):
            assert (fixture_dir / name).exists()

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        rc = main(["gen-fixture", *FIXTURE_FLAGS, "--tau-scale", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("base.ta", "task0.ta", "task1.jsonl", "fixture.json"):
            assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_model_sizes_in_config_match_the_flags(self, tmp_path):
        sizes = {"d_model": 16, "n_heads": 2, "n_layers": 2, "d_ff": 32, "vocab_size": 17, "max_seq": 16}
        flags = [part for key, value in sizes.items() for part in (f"--{key.replace('_', '-')}", str(value))]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**sizes, "seed": 4}))
        assert main(["gen-fixture", *flags, "--seed", "4", "--out", str(tmp_path / "flags")]) == 0
        assert main(["gen-fixture", "--config", str(config_path), "--out", str(tmp_path / "config")]) == 0
        for name in ("base.ta", "task0.ta", "task1.ta", "task0.jsonl", "task1.jsonl", "fixture.json"):
            assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_nested_model_config_object_exits_2_before_writing(self, tmp_path, capsys):
        # The model sizes are top-level keys; a "config" object is not read as defaults.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"config": {"d_model": 16, "n_heads": 2}}))
        out = tmp_path / "out"
        rc = main(["gen-fixture", "--config", str(config_path), "--out", str(out)])
        assert "unknown config key 'config'" in assert_input_error(rc, capsys)
        assert not out.exists()

    def test_invalid_spec_exits_2(self, tmp_path):
        rc = main(
            ["gen-fixture", *FIXTURE_FLAGS, "--seq-len", "99", "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "source, message",
        [
            pytest.param("--tau-scale=nan", "tau_scale must be finite, got nan", id="--tau-scale=nan"),
            pytest.param("--tau-scale=inf", "tau_scale must be finite, got inf", id="--tau-scale=inf"),
            pytest.param("config_nan", "config key 'tau_scale' must be a number, got nan", id="config_nan"),
        ],
    )
    def test_non_finite_tau_scale_exits_2_before_writing(self, tmp_path, capsys, source, message):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"tau_scale": NaN}')
        tau = ["--config", str(config_path)] if source == "config_nan" else [source]
        out = tmp_path / "out"
        rc = main(["gen-fixture", *FIXTURE_FLAGS, *tau, "--out", str(out)])
        err = assert_input_error(rc, capsys)
        assert message in err
        assert not out.exists()


    def test_tau_scale_overflowing_float32_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["gen-fixture", *FIXTURE_FLAGS, "--tau-scale", "1e300", "--out", str(out)])
        err = assert_input_error(rc, capsys)
        assert "tau_scale 1e+300 is too large: tensor '" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tasks", "100000000", f"n_tasks must be an integer >= 1 and <= {MAX_TASKS}"),
            (
                "--dataset-size",
                "100000000000",
                f"dataset_size must be an integer >= 1 and <= {MAX_DATASET_SIZE}",
            ),
        ],
        ids=["tasks", "dataset_size"],
    )
    def test_count_past_its_bound_exits_2_before_writing(self, tmp_path, capsys, flag, value, message):
        # Unbounded, --tasks 100000000 ended in a MemoryError traceback and
        # --dataset-size 100000000000 ran for minutes, each leaving an empty --out.
        out = tmp_path / "out"
        rc = main(["gen-fixture", flag, value, "--out", str(out)])
        assert f"{message}, got {value}" in assert_input_error(rc, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            (
                "--vocab-size",
                "1000000000",
                f"vocab_size must be an integer >= 1 and <= {MODEL_SIZES['vocab_size']}, got",
            ),
            (
                "--max-seq",
                "1000000000",
                f"max_seq must be an integer >= 1 and <= {MODEL_SIZES['max_seq']}, got",
            ),
            ("--d-model", "1024", f"parameters, more than {MAX_PARAMETERS}"),
        ],
        ids=["vocab_size", "max_seq", "parameters"],
    )
    def test_model_size_past_its_bound_exits_2_before_writing(
        self, tmp_path, capsys, flag, value, message
    ):
        # Unbounded, --vocab-size 1000000000 ended in a MemoryError traceback and
        # --max-seq 1000000000 wrote a fixture. Four default layers of width 1024
        # hold more than MAX_PARAMETERS.
        out = tmp_path / "out"
        rc = main(["gen-fixture", flag, value, "--out", str(out)])
        assert message in assert_input_error(rc, capsys)
        assert not out.exists()


class TestAnalyze:
    def test_report_and_csvs(self, fixture_dir, tmp_path):
        rc = main(
            [
                "analyze", *io_flags(fixture_dir),
                "--levels", "model,layer",
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["levels"]) == {"model", "layer"}
        assert report["samples_per_task"] == 4
        layer = report["levels"]["layer"]
        assert set(layer["groups"]) == {"embed", "layer.0", "layer.1", "lm_head"}
        for entry in layer["groups"].values():
            assert entry["non_linearity"]["mean"] is not None
        assert layer["summary"]["non_linearity"]["count"] == 4
        heat = (tmp_path / "heatmap_layer.csv").read_text().splitlines()
        assert len(heat) == 5  # header + 4 groups
        sweep = (tmp_path / "sweep_layer.csv").read_text().splitlines()
        assert len(sweep) == 1 + 4 * 25 * 2  # header + groups x grid x 2 metrics
        assert sweep[0] == "group,metric,alpha_0,alpha_1,value"

    def test_rows_evaluated_once_per_step(self, fixture_dir, tmp_path, monkeypatch):
        # Per group and task: N interpolation steps after the base rows (the
        # k = 0 step, reused as the subtrahend of every delta), one merged
        # delta per sweep alpha, and one delta per model unless the group is
        # a head above 0, whose deltas come from its layer's contexts. Counted
        # across processes, in one process and with a forked worker.
        rows = FeatureStore.rows
        levels, n_points = list(Granularity), 3
        config = ModelConfig.from_json(read_archive(fixture_dir / "base.ta").meta["model_config"])
        n_models = n_tasks = 2
        expected = 0
        for level in levels:
            for group in plan_decomposition(config, level).groups:
                from_contexts = group.output_kind == "head_branch" and group.head_index > 0
                per_task = 1 + n_points + len(default_alpha_grid(n_models))
                per_task += 0 if from_contexts else n_models
                expected += n_tasks * per_task
        for cpus in (1, 2):
            calls = Tally(tmp_path / f"calls{cpus}")

            def counting(self, group, task, weights, out=None):
                calls.add(group.id)
                return rows(self, group, task, weights, out)

            monkeypatch.setattr(FeatureStore, "rows", counting)
            on_cpus(monkeypatch, cpus)
            rc = main(
                [
                    "analyze", *io_flags(fixture_dir),
                    "--levels", ",".join(level.value for level in levels),
                    "--samples-per-task", "2", "--n-points", str(n_points),
                    "--out", str(tmp_path / f"out{cpus}"),
                ]
            )
            assert rc == 0
            assert_no_child_left()
            assert len(calls.lines()) == expected

    def test_task_vector_tensors_read_once_per_call(self, fixture_dir, tmp_path, monkeypatch):
        # Each task vector tensor is subtracted once when the vector is checked,
        # once per interpolation call of the group that owns it and once per
        # sweep, not once per coefficient set (at attn_mlp each tensor has one
        # owner): 351 reads on a 3-task, 39-tensor fixture instead of 4,446.
        # Counted across processes, in one process and with a forked worker.
        differences = submerge.archive._Differences.__getitem__
        n_tensors, n_models = len(read_archive(fixture_dir / "base.ta").tensors), 2
        for cpus in (1, 2):
            reads = Tally(tmp_path / f"reads{cpus}")

            def counting(self, name):
                reads.add(name)
                return differences(self, name)

            monkeypatch.setattr(submerge.archive._Differences, "__getitem__", counting)
            on_cpus(monkeypatch, cpus)
            rc = main(
                [
                    "analyze", *io_flags(fixture_dir), "--levels", "attn_mlp",
                    "--samples-per-task", "2", "--n-points", "4",
                    "--out", str(tmp_path / f"out{cpus}"),
                ]
            )
            assert rc == 0
            assert_no_child_left()
            assert len(reads.lines()) == 3 * n_tensors * n_models

    def test_forked_outputs_equal_one_process_bytes(self, fixture_dir, tmp_path, monkeypatch):
        # Every level's groups in one process, then shared with one and with
        # two forked workers: the same bytes.
        args = [
            "analyze", *io_flags(fixture_dir),
            "--levels", ",".join(level.value for level in Granularity),
            "--samples-per-task", "3", "--n-points", "3",
        ]
        for cpus in (1, 2, 3):
            on_cpus(monkeypatch, cpus)
            assert main([*args, "--out", str(tmp_path / str(cpus))]) == 0
            assert_no_child_left()
        for name in ANALYZE_OUTPUTS:
            one = (tmp_path / "1" / name).read_bytes()
            assert one == (tmp_path / "2" / name).read_bytes() == (tmp_path / "3" / name).read_bytes(), name

    def test_each_process_releases_every_group_once(self, fixture_dir, tmp_path, monkeypatch):
        # Each process holds only its own share: it releases its own groups once
        # measured, and every other group of the level as soon as it is forked.
        released = Tally(tmp_path / "released")
        release = FeatureStore.release

        def counting(self, group):
            released.add(f"{os.getpid()} {group.id}")
            return release(self, group)

        monkeypatch.setattr(FeatureStore, "release", counting)
        on_cpus(monkeypatch, 3)
        flags = ["--levels", "attn_mlp", "--samples-per-task", "2", "--out", str(tmp_path / "out")]
        assert main(["analyze", *io_flags(fixture_dir), *flags]) == 0
        assert_no_child_left()
        by_process = {}
        for line in released.lines():
            pid, group_id = line.split()
            by_process.setdefault(pid, []).append(group_id)
        config = ModelConfig.from_json(read_archive(fixture_dir / "base.ta").meta["model_config"])
        group_ids = sorted(plan_decomposition(config, Granularity.ATTN_MLP).group_ids())
        assert len(by_process) == 3 and str(os.getpid()) in by_process
        assert all(sorted(ids) == group_ids for ids in by_process.values())

    @pytest.mark.parametrize(
        "failing",
        [[4], [4, 5], [1, 4], [2]],
        ids=["second_share", "second_and_third_share", "first_and_second_share", "first_share"],
    )
    def test_first_failing_group_raises_its_error(
        self, fixture_dir, tmp_path, capsys, monkeypatch, failing
    ):
        # attn_mlp has 6 groups: on 2 CPUs the shares are groups 0-2 and 3-5,
        # on 3 CPUs 0-1, 2-3 and 4-5. The run exits 2 with the error of the
        # first failing group, as in one process, and removes the --out it made.
        plan = plan_decomposition(
            ModelConfig.from_json(read_archive(fixture_dir / "base.ta").meta["model_config"]),
            Granularity.ATTN_MLP,
        )
        failing_ids = {plan.groups[index].id for index in failing}
        sweep = submerge.cli.metric_sweep

        def failing_sweep(store, deltas, base, taus, group):
            if group.id in failing_ids:
                raise NumericError(f"non-finite rows in group {group.id!r}")
            return sweep(store, deltas, base, taus, group)

        monkeypatch.setattr(submerge.cli, "metric_sweep", failing_sweep)
        args = ["analyze", *io_flags(fixture_dir), "--levels", "attn_mlp", "--samples-per-task", "2"]
        messages = []
        for cpus in (1, 2, 3):
            on_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus) / "out"
            messages.append(assert_input_error(main([*args, "--out", str(out)]), capsys))
            assert_no_child_left()
            assert not (tmp_path / str(cpus)).exists()
        first = plan.groups[min(failing)].id
        assert messages == [f"error: non-finite rows in group {first!r}\n"] * 3

    def test_other_error_in_a_worker_raises_with_its_traceback(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        sweep = submerge.cli.metric_sweep

        def failing_sweep(store, deltas, base, taus, group):
            if group.id == "lm_head":
                raise ValueError("not a library error")
            return sweep(store, deltas, base, taus, group)

        monkeypatch.setattr(submerge.cli, "metric_sweep", failing_sweep)
        args = ["analyze", *io_flags(fixture_dir), "--levels", "attn_mlp", "--samples-per-task", "2"]
        on_cpus(monkeypatch, 1)
        with pytest.raises(ValueError, match="not a library error"):
            main([*args, "--out", str(tmp_path / "one")])
        on_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="ValueError: not a library error"):
            main([*args, "--out", str(tmp_path / "forked")])
        assert_no_child_left()

    @pytest.mark.parametrize("forks", [0, 1], ids=["first_fork_fails", "second_fork_fails"])
    def test_shares_left_by_a_failed_fork_run_here(self, fixture_dir, tmp_path, monkeypatch, forks):
        # On 3 CPUs, a fork that fails (say, at a process limit) leaves its share
        # and the next to this process: the same bytes as one process.
        args = [
            "analyze", *io_flags(fixture_dir), "--levels", "layer,attn_mlp",
            "--samples-per-task", "2", "--n-points", "3",
        ]
        on_cpus(monkeypatch, 1)
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
        fork, calls = os.fork, []

        def failing_fork():
            calls.append(None)
            if len(calls) > forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        on_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert main([*args, "--out", str(tmp_path / "forked")]) == 0
        assert_no_child_left()
        written = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "forked").iterdir())
        for name in written:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["one_cpu", "one_group", "other_thread"])
    def test_one_process_when_forking_cannot_help_or_is_unsafe(
        self, fixture_dir, tmp_path, monkeypatch, case
    ):
        def no_fork():
            raise AssertionError("forked")

        on_cpus(monkeypatch, 1 if case == "one_cpu" else 2)
        monkeypatch.setattr(os, "fork", no_fork)
        level = "model" if case == "one_group" else "layer"
        args = ["analyze", *io_flags(fixture_dir), "--levels", level, "--samples-per-task", "2"]
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        if case == "other_thread":
            waiting.start()
        try:
            assert main([*args, "--out", str(tmp_path)]) == 0
        finally:
            release.set()
            if case == "other_thread":
                waiting.join(timeout=10)
        assert not waiting.is_alive()

    def test_deterministic_outputs(self, fixture_dir, tmp_path):
        args = [
            "analyze", *io_flags(fixture_dir),
            "--levels", "layer",
            "--samples-per-task", "3",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        for name in ("report.json", "heatmap_layer.csv", "sweep_layer.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_inputs_exit_2(self, tmp_path):
        rc = main(["analyze", "--out", str(tmp_path)])
        assert rc == 2

    def test_zero_tau_report_is_all_null(self, flat_fixture_dir, tmp_path, capsys):
        args = [
            "analyze", *io_flags(flat_fixture_dir),
            "--levels", "model,layer",
            "--samples-per-task", "3",
            "--n-points", "3",
        ]
        assert main([*args, "--out", str(tmp_path)]) == 0
        assert "note: some groups fell back" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        for level in ("model", "layer"):
            entry = report["levels"][level]
            for group in entry["groups"].values():
                assert group["non_linearity"] == {"per_task": [None, None], "mean": None}
                assert group["cosine_merge_grid_mean"] is None
                assert group["projection_distance_grid_mean"] is None
            columns = ["non_linearity", "cosine_merge_grid_mean", "projection_distance_grid_mean"]
            empty = {"mean": None, "std": None, "count": 0}
            assert entry["summary"] == dict.fromkeys(columns, empty)
            heat = (tmp_path / f"heatmap_{level}.csv").read_text().splitlines()
            assert heat[0] == ",".join(["group", *columns])
            assert [line.split(",", 1)[1] for line in heat[1:]] == [",,"] * len(entry["groups"])
        assert main([*args, "--strict", "--out", str(tmp_path / "strict")]) == 3


class TestSolve:
    def test_weights_file_shape(self, fixture_dir, tmp_path):
        rc = main(
            [
                "solve", *io_flags(fixture_dir),
                "--level", "layer",
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "weights.json").read_text())
        assert payload["level"] == "layer"
        assert payload["normalized"] is True
        assert [g["id"] for g in payload["groups"]] == ["embed", "layer.0", "layer.1", "lm_head"]
        for group in payload["groups"]:
            assert len(group["alpha"]) == 2

    def test_plain_gram_flag(self, fixture_dir, tmp_path):
        rc = main(
            [
                "solve", *io_flags(fixture_dir),
                "--plain-gram",
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "weights.json").read_text())
        assert payload["normalized"] is False

    def test_single_model_alphas_near_one(self, fixture_dir, tmp_path):
        rc = main(
            [
                "solve", *io_flags(fixture_dir, n_models=1),
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "weights.json").read_text())
        for group in payload["groups"]:
            assert group["alpha"][0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("gram", [[], ["--plain-gram"]], ids=["normalized", "plain"])
    def test_weights_match_merge_linear_solve(self, fixture_dir, tmp_path, gram):
        args = [*io_flags(fixture_dir), "--level", "head_mlp", "--samples-per-task", "4", *gram]
        assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
        assert main(["merge", "--method", "linear_solve", *args, "--out", str(tmp_path / "merge")]) == 0
        solved = (tmp_path / "solve" / "weights.json").read_bytes()
        assert solved == (tmp_path / "merge" / "weights.json").read_bytes()

    def test_zero_tau_uniform_fallback_and_strict_exit(self, flat_fixture_dir, tmp_path):
        args = [
            "solve", *io_flags(flat_fixture_dir),
            "--samples-per-task", "4",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        payload = json.loads((tmp_path / "weights.json").read_text())
        for group in payload["groups"]:
            assert group["fallback"] is True
            assert group["alpha"] == [0.5, 0.5]
        assert main([*args, "--strict"]) == 3


def assert_input_error(rc, capsys):
    """Exit code 2 with one `error:` line on stderr, not a crash."""
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


class TestBadInputs:
    @pytest.mark.parametrize(
        "tokens",
        # vocab 17, max_seq 16
        [[3, -1, 4], [3, 99, 4], list(range(16)) + [1], [3, 2**70, 4], [True, False, 4]],
        ids=["negative_id", "id_past_vocab", "longer_than_max_seq", "id_past_int64", "boolean_ids"],
    )
    def test_bad_sampled_tokens_exit_2(self, fixture_dir, tmp_path, capsys, tokens):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"task": 0, "tokens": tokens}) + "\n")
        rc = main(
            [
                "solve",
                "--base", str(fixture_dir / "base.ta"),
                "--model", str(fixture_dir / "task0.ta"),
                "--dataset", str(bad),
                "--samples-per-task", "1",
                "--out", str(tmp_path),
            ]
        )
        assert_input_error(rc, capsys)

    def test_empty_model_list_exits_2(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"base": str(fixture_dir / "base.ta"), "models": []}))
        rc = main(
            ["merge", "--config", str(config_path), "--method", "task_arithmetic", "--out", str(tmp_path)]
        )
        assert_input_error(rc, capsys)

    def test_empty_dataset_list_exits_2(self, fixture_dir, tmp_path, capsys):
        # Without the check, eval would average no losses into "mean": NaN.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"datasets": []}))
        rc = main(
            ["eval", "--archive", str(fixture_dir / "base.ta"), "--config", str(config_path), "--out", str(tmp_path)]
        )
        assert_input_error(rc, capsys)
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("key", ["normalized", "strict"])
    def test_string_boolean_in_config_exits_2(self, fixture_dir, tmp_path, capsys, key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: "false", "samples_per_task": 4}))
        rc = main(["solve", *io_flags(fixture_dir), "--config", str(config_path), "--out", str(tmp_path)])
        assert_input_error(rc, capsys)

    @pytest.mark.parametrize(
        "argv, payload",
        [
            pytest.param(["solve"], {"samples_per_task": "abc"}, id="string_samples_per_task"),
            pytest.param(["analyze"], {"n_points": "x"}, id="string_n_points"),
            pytest.param(["solve"], {"seed": 1.5}, id="float_seed"),
            pytest.param(
                ["merge", "--method", "task_arithmetic"], {"models": "task0.ta"}, id="string_models"
            ),
            pytest.param(["solve"], {"levl": "model"}, id="unknown_key_levl"),
            pytest.param(["solve"], {"normalised": False}, id="unknown_key_normalised"),
            pytest.param(["solve"], {"model_config": {"d_model": 16}}, id="removed_key_model_config"),
            # Every key is type-checked, read by the command or not.
            *(
                pytest.param(["solve"], {case.values[0]: case.values[1]}, id=case.id)
                for case in [
                    *bad_scalars(["samples_per_task", "seed"], "integer"),
                    *bad_scalars(["alpha", "tau_scale"], "real"),
                ]
            ),
        ],
    )
    def test_mistyped_config_value_exits_2(self, fixture_dir, tmp_path, capsys, argv, payload):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"samples_per_task": 4, **payload}))
        flags = ["--base", str(fixture_dir / "base.ta")] if "models" in payload else io_flags(fixture_dir)
        out = tmp_path / "out"
        rc = main([*argv, *flags, "--config", str(config_path), "--out", str(out)])
        key = next(iter(payload))
        assert f"config key {key!r}" in assert_input_error(rc, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["merge", "--method", "task_arithmetic"], "alpha"),
            (["merge", "--method", "dare"], "drop_p"),
            (["gen-fixture"], "tau_scale"),
        ],
    )
    def test_integer_past_float_range_in_config_exits_2(self, fixture_dir, tmp_path, capsys, argv, key):
        # float(10**400) raises OverflowError, which once ended in a traceback.
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: 10**400}))
        inputs = [] if argv[0] == "gen-fixture" else io_flags(fixture_dir)
        rc = main([*argv, *inputs, "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert f"config key {key!r} must be a number" in assert_input_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--levels", "bogus"], ["analyze", "--levels", "model,bogus"], ["solve"]],
        ids=["levels_flag", "levels_flag_list", "level_config_key"],
    )
    def test_unknown_level_name_exits_2(self, fixture_dir, tmp_path, capsys, argv):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"level": "bogus", "samples_per_task": 4}))
        rc = main([*argv, *io_flags(fixture_dir), "--config", str(config_path), "--out", str(tmp_path)])
        assert "unknown granularity 'bogus'" in assert_input_error(rc, capsys)

    def test_no_analysis_levels_exits_2(self, fixture_dir, tmp_path, capsys):
        rc = main(["analyze", *io_flags(fixture_dir), "--levels", ",", "--out", str(tmp_path)])
        assert "no analysis levels requested" in assert_input_error(rc, capsys)

    @pytest.mark.parametrize(
        "argv, payload, repeated",
        [(["--levels", "model,layer,model"], {}, "model"), ([], {"levels": ["layer", "layer"]}, "layer")],
        ids=["levels_flag", "levels_config_key"],
    )
    def test_repeated_level_exits_2(self, fixture_dir, tmp_path, capsys, argv, payload, repeated):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"samples_per_task": 4, **payload}))
        out = tmp_path / "out"
        rc = main(
            ["analyze", *io_flags(fixture_dir), *argv, "--config", str(config_path), "--out", str(out)]
        )
        err = assert_input_error(rc, capsys)
        assert f"analysis level {repeated!r} is requested more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_points", ["1", "0"])
    def test_n_points_below_two_exits_2(self, fixture_dir, tmp_path, capsys, n_points):
        rc = main(
            [
                "analyze", *io_flags(fixture_dir),
                "--levels", "layer",
                "--samples-per-task", "4",
                "--n-points", n_points,
                "--out", str(tmp_path),
            ]
        )
        assert "n_points must be an integer >= 2" in assert_input_error(rc, capsys)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, payload",
        [(["--n-points", "101"], {}), ([], {"n_points": 10**400})],
        ids=["flag", "config_key_past_float_range"],
    )
    def test_n_points_above_the_bound_exits_2_before_any_trace(
        self, fixture_dir, tmp_path, capsys, argv, payload
    ):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"samples_per_task": 4, **payload}))
        out = tmp_path / "out"
        rc = main(
            ["analyze", *io_flags(fixture_dir), *argv, "--config", str(config_path), "--out", str(out)]
        )
        assert "n_points must be an integer >= 2 and <= 100" in assert_input_error(rc, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--samples-per-task=0", "--samples-per-task=-1"])
    def test_sample_count_below_one_exits_2(self, fixture_dir, tmp_path, capsys, flag):
        rc = main(["solve", *io_flags(fixture_dir), flag, "--out", str(tmp_path)])
        assert "sample count must be an integer >= 1" in assert_input_error(rc, capsys)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command",
        [["solve"], ["merge", "--method", "dare"], ["gen-fixture"]],
        ids=["solve", "merge_dare", "gen_fixture"],
    )
    def test_negative_seed_exits_2(self, fixture_dir, tmp_path, capsys, command, source):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"seed": -1, "samples_per_task": 4}))
        seed = ["--seed=-1"] if source == "flag" else ["--config", str(config_path)]
        inputs = [] if command[0] == "gen-fixture" else io_flags(fixture_dir)
        rc = main([*command, *inputs, *seed, "--out", str(tmp_path / "out")])
        assert "seed must be an integer >= 0, got -1" in assert_input_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_models, n_datasets", [(2, 1), (1, 2)], ids=["more_models", "more_datasets"])
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["solve"], ["merge", "--method", "linear_solve"], ["compare"]],
        ids=["analyze", "solve", "merge_linear_solve", "compare"],
    )
    def test_model_and_dataset_counts_must_match(
        self, fixture_dir, tmp_path, capsys, command, n_models, n_datasets
    ):
        flags = ["--base", str(fixture_dir / "base.ta")]
        flags += [f for t in range(n_models) for f in ("--model", str(fixture_dir / f"task{t}.ta"))]
        flags += [f for t in range(n_datasets) for f in ("--dataset", str(fixture_dir / f"task{t}.jsonl"))]
        rc = main([*command, *flags, "--samples-per-task", "4", "--out", str(tmp_path)])
        expected = f"{n_models} models need {n_models} datasets, got {n_datasets}"
        assert expected in assert_input_error(rc, capsys)

    @pytest.mark.parametrize("case", ["out_is_file", "out_below_file", "output_is_directory"])
    @pytest.mark.parametrize(
        "command, output, writer",
        [
            (["solve", "--samples-per-task", "4"], "weights.json", "cannot write"),
            (
                ["analyze", "--levels", "layer", "--n-points", "2", "--samples-per-task", "4"],
                "heatmap_layer.csv",
                "cannot write",
            ),
            (["eval"], "metrics.json", "cannot write"),
            (["compare", "--samples-per-task", "4"], "compare.json", "cannot write"),
            (["merge", "--method", "weight_avg"], "merged.ta", "cannot write archive to"),
            (["gen-fixture"], "base.ta", "cannot write archive to"),
            (["gen-fixture"], "task1.jsonl", "cannot write dataset"),
            (["gen-fixture"], "fixture.json", "cannot write"),
        ],
        ids=[
            "solve", "analyze", "eval", "compare", "merge", "gen_fixture",
            "gen_fixture_dataset", "gen_fixture_manifest",
        ],
    )
    def test_unwritable_out_exits_2(
        self, fixture_dir, tmp_path, capsys, command, output, writer, case
    ):
        # Each error names the path the OS refused; an --out made before the
        # failed write stays only if it existed before the run.
        taken = tmp_path / "taken"
        taken.write_text("")
        out = {"out_is_file": taken, "out_below_file": taken / "sub"}.get(case, tmp_path / "out")
        if case == "output_is_directory":
            (out / output).mkdir(parents=True)
            message = f"error: {writer} {out / output}: "
        else:
            message = f"error: cannot create output directory {out}: "
        if command[0] == "gen-fixture":
            inputs = []
        elif command[0] == "eval":
            inputs = ["--archive", str(fixture_dir / "base.ta"), "--dataset", str(fixture_dir / "task0.jsonl")]
        else:
            inputs = io_flags(fixture_dir, datasets=command[0] != "merge")
        rc = main([*command, *inputs, "--out", str(out)])
        assert assert_input_error(rc, capsys).startswith(message)
        assert out.is_dir() == (case == "output_is_directory")

    @pytest.mark.parametrize(
        "case, reader", [("base_is_directory", "archive from"), ("dataset_missing", "dataset")]
    )
    def test_unreadable_input_exits_2_before_out(self, fixture_dir, tmp_path, capsys, case, reader):
        flags = io_flags(fixture_dir)
        path = {"base_is_directory": tmp_path, "dataset_missing": tmp_path / "nope.jsonl"}[case]
        flags[flags.index("--base" if case == "base_is_directory" else "--dataset") + 1] = str(path)
        out = tmp_path / "made" / "out"
        rc = main(["solve", *flags, "--out", str(out)])
        assert assert_input_error(rc, capsys).startswith(f"error: cannot read {reader} {path}: ")
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["made_out", "existing_out"])
    @pytest.mark.parametrize("case", ["eval_token_past_vocab", "solve_too_few_sequences"])
    def test_error_during_the_work_removes_the_out_it_made(
        self, fixture_dir, tmp_path, capsys, case, existing
    ):
        # Both checks run in the library, after --out is made. The failed run
        # removes the directories it made, innermost first; an --out that
        # existed before the run stays.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"task": 0, "tokens": [3, 999, 4]}) + "\n")
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
        if case == "eval_token_past_vocab":
            argv = ["eval", "--archive", str(fixture_dir / "base.ta"), "--dataset", str(bad)]
            message = "token id out of range"
        else:
            argv = ["solve", *io_flags(fixture_dir), "--samples-per-task", "99"]
            message = "has 8 sequences, need 99"
        rc = main([*argv, "--out", str(out)])
        assert message in assert_input_error(rc, capsys)
        assert out.is_dir() == existing
        assert (tmp_path / "made").exists() == existing

    @pytest.mark.parametrize(
        "command, costly",
        [
            (["solve"], ["merge_linear_solve"]),
            (["eval"], ["eval_cross_entropy"]),
            (["compare"], ["eval_cross_entropy", "merge_linear_solve"]),
        ],
        ids=["solve", "eval", "compare"],
    )
    def test_out_naming_a_file_exits_before_the_work(
        self, fixture_dir, tmp_path, capsys, monkeypatch, command, costly
    ):
        def never_called(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        for name in costly:
            monkeypatch.setattr(f"submerge.cli.{name}", never_called)
        taken = tmp_path / "taken"
        taken.write_text("")
        if command[0] == "eval":
            inputs = ["--archive", str(fixture_dir / "base.ta"), "--dataset", str(fixture_dir / "task0.jsonl")]
        else:
            inputs = [*io_flags(fixture_dir), "--samples-per-task", "4"]
        rc = main([*command, *inputs, "--out", str(taken)])
        assert "cannot create output directory" in assert_input_error(rc, capsys)

    @pytest.mark.parametrize("method", ["task_arithmetic", "dare"])
    @pytest.mark.parametrize(
        "source, message",
        [
            *(pytest.param(flag, "alpha must be finite", id=flag)
              for flag in ("--alpha=inf", "--alpha=-inf", "--alpha=1e309")),
            pytest.param("config_nan", "config key 'alpha' must be a number, got nan", id="config_nan"),
        ],
    )
    def test_non_finite_alpha_exits_2(self, fixture_dir, tmp_path, capsys, method, source, message):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"alpha": NaN}')
        alpha = ["--config", str(config_path)] if source == "config_nan" else [source]
        inputs = io_flags(fixture_dir, datasets=False)
        rc = main(["merge", *inputs, "--method", method, *alpha, "--out", str(tmp_path / "out")])
        err = assert_input_error(rc, capsys)
        assert message in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out" / "merged.ta").exists()

    @pytest.mark.parametrize("method", ["task_arithmetic", "dare"])
    @pytest.mark.parametrize("alpha", ["1e300", "1.7e308"])
    def test_alpha_overflowing_float32_exits_2(self, fixture_dir, tmp_path, capsys, method, alpha):
        out = tmp_path / "out"
        inputs = io_flags(fixture_dir, datasets=False)
        rc = main(["merge", *inputs, "--method", method, "--alpha", alpha, "--out", str(out)])
        err = assert_input_error(rc, capsys)
        assert "overflows float32" in err
        assert not (out / "merged.ta").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "--levels", "attn_mlp", "--n-points", "2", "--samples-per-task", "4"],
            ["merge", "--method", "task_arithmetic"],
        ],
    )
    def test_task_vector_overflowing_float32_exits_2(self, fixture_dir, tmp_path, capsys, command):
        # 3e38 - (-3e38) overflows the float32 task vector; analyze once wrote null metrics.
        # Archives are read-only, so each patched one is built anew.
        name = "layers.0.norm1"
        for stem, value in (("base", 3e38), ("task0", -3e38)):
            arc = read_archive(fixture_dir / f"{stem}.ta")
            patched = arc.tensors[name].copy()
            patched[0] = value
            patched_arc = TensorArchive({**arc.tensors, name: patched}, arc.meta)
            write_archive(patched_arc, tmp_path / f"{stem}.ta")
        inputs = io_flags(fixture_dir, datasets=command[0] != "merge")
        inputs[1], inputs[3] = str(tmp_path / "base.ta"), str(tmp_path / "task0.ta")
        out = tmp_path / "out"
        rc = main([*command, *inputs, "--out", str(out)])
        assert "tensor 'layers.0.norm1' overflows float32" in assert_input_error(rc, capsys)
        assert not list(out.glob("*.json")) and not (out / "merged.ta").exists()

    # The model config of --base or --archive with one field of the wrong kind or
    # out of range. norm_eps or rope_theta past the float range once passed and
    # then overflowed in rms_norm or the RoPE tables, with a traceback.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(
                "d_model",
                16.0,
                f"d_model must be an integer >= 1 and <= {MODEL_SIZES['d_model']}, got 16.0",
                id="archive_meta",
            ),
            pytest.param("norm_eps", 10**400, "norm_eps must be finite", id="archive_meta_norm_eps_10e400"),
            pytest.param(
                "rope_theta", 10**400, "rope_theta must be finite", id="archive_meta_rope_theta_10e400"
            ),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["merge", "--method", "linear_solve", "--level", "head_mlp"],
            ["merge", "--method", "weight_avg"],
            ["merge", "--method", "task_arithmetic"],
            ["merge", "--method", "dare"],
            ["eval"],
            ["solve"],
            ["compare"],
            ["analyze"],
        ],
        ids=[
            "merge_head_mlp", "merge_weight_avg", "merge_task_arithmetic", "merge_dare",
            "eval", "solve", "compare", "analyze",
        ],
    )
    def test_float_model_size_exits_2(self, fixture_dir, tmp_path, capsys, command, field, value, message):
        # Every command reads the model config before it makes --out.
        base = read_archive(fixture_dir / "base.ta")
        model_config = dict(json.loads(base.meta["model_config"]), **{field: value})
        base_path = tmp_path / "base.ta"
        meta = dict(base.meta, model_config=json.dumps(model_config))
        write_archive(TensorArchive(base.tensors, meta), base_path)
        if command[0] == "eval":
            inputs = ["--archive", str(base_path), "--dataset", str(fixture_dir / "task0.jsonl")]
        elif command[0] == "merge" and command[2] != "linear_solve":
            inputs = ["--base", str(base_path), *io_flags(fixture_dir, datasets=False)[2:]]
        else:
            inputs = ["--base", str(base_path), *io_flags(fixture_dir)[2:]]
            inputs += ["--samples-per-task", "4"]
        rc = main([*command, *inputs, "--out", str(tmp_path / "out")])
        assert message in assert_input_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    def test_unknown_method_in_config_exits_2_before_the_work(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"method": "bogus"}))
        out = tmp_path / "out"
        rc = main(["merge", *io_flags(fixture_dir), "--config", str(config_path), "--out", str(out)])
        err = assert_input_error(rc, capsys)
        assert "'bogus'" in err
        assert all(method in err for method in METHODS)
        assert not out.exists()

    def test_boolean_extent_in_archive_exits_2(self, fixture_dir, tmp_path, capsys):
        blob = (fixture_dir / "base.ta").read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob)
        header = json.loads(blob[8 : 8 + header_len])
        entry = header["tensors"][sorted(header["tensors"])[0]]
        entry["shape"] = [True, *entry["shape"]]  # same element count, so only the type is wrong
        raw = json.dumps(header).encode()
        path = tmp_path / "bool_shape.ta"
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob[8 + header_len :])
        rc = main(["eval", "--archive", str(path), "--dataset", str(fixture_dir / "task0.jsonl"), "--out", str(tmp_path)])
        assert "invalid shape" in assert_input_error(rc, capsys)

    def test_boolean_in_config_is_used(self, fixture_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"normalized": False, "samples_per_task": 4}))
        rc = main(["solve", *io_flags(fixture_dir), "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "weights.json").read_text())["normalized"] is False


class TestMerge:
    def test_weight_avg_outputs(self, fixture_dir, tmp_path):
        rc = main(
            [
                "merge", *io_flags(fixture_dir, datasets=False),
                "--method", "weight_avg",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["method"] == "weight_avg"
        import hashlib

        digest = hashlib.sha256((tmp_path / "merged.ta").read_bytes()).hexdigest()
        assert manifest["outputs"]["merged.ta"] == digest

    def test_alpha_zero_matches_base_bytes(self, fixture_dir, tmp_path):
        rc = main(
            [
                "merge", *io_flags(fixture_dir, datasets=False),
                "--method", "task_arithmetic",
                "--alpha", "0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "merged.ta").read_bytes() == (fixture_dir / "base.ta").read_bytes()

    def test_dare_zero_drop_matches_task_arithmetic(self, fixture_dir, tmp_path):
        ta_dir, dare_dir = tmp_path / "ta", tmp_path / "dare"
        assert main(
            [
                "merge", *io_flags(fixture_dir, datasets=False),
                "--method", "task_arithmetic", "--alpha", "0.4",
                "--out", str(ta_dir),
            ]
        ) == 0
        assert main(
            [
                "merge", *io_flags(fixture_dir, datasets=False),
                "--method", "dare", "--alpha", "0.4", "--drop-p", "0",
                "--out", str(dare_dir),
            ]
        ) == 0
        assert (ta_dir / "merged.ta").read_bytes() == (dare_dir / "merged.ta").read_bytes()

    def test_linear_solve_writes_weights(self, fixture_dir, tmp_path):
        rc = main(
            [
                "merge", *io_flags(fixture_dir),
                "--method", "linear_solve",
                "--level", "attn_mlp",
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "merged.ta").exists()
        payload = json.loads((tmp_path / "weights.json").read_text())
        assert payload["level"] == "attn_mlp"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "weights.json" in manifest["outputs"]
        assert manifest["params"]["level"] == "attn_mlp"

    def test_manifest_records_the_input_bytes_read_when_an_output_replaces_them(
        self, fixture_dir, tmp_path
    ):
        # A merge whose --base is the merged.ta it overwrites records the digest
        # of the bytes it read as the input, and of the bytes it wrote as the output.
        flags = [*io_flags(fixture_dir, datasets=False), "--method", "task_arithmetic", "--out", str(tmp_path)]
        assert main(["merge", *flags]) == 0
        merged = tmp_path / "merged.ta"
        before = hashlib.sha256(merged.read_bytes()).hexdigest()
        flags[flags.index("--base") + 1] = str(merged)
        assert main(["merge", *flags]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["inputs"]["base"] == {"path": str(merged), "sha256": before}
        after = hashlib.sha256(merged.read_bytes()).hexdigest()
        assert manifest["outputs"] == {"merged.ta": after}
        assert after != before

    def test_missing_method_exits_2(self, fixture_dir, tmp_path):
        rc = main(["merge", *io_flags(fixture_dir), "--out", str(tmp_path)])
        assert rc == 2

    @staticmethod
    def count_opens(monkeypatch):
        """The number of times each file is opened, keyed by its path; archive
        reads and every write go through `open`, dataset reads through `pathlib`'s
        `io.open`."""
        opens: dict[str, int] = {}
        real_open = io.open

        def counting(file, *args, **kwargs):
            if isinstance(file, (str, Path)):
                opens[str(file)] = opens.get(str(file), 0) + 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        monkeypatch.setattr(io, "open", counting)
        return opens

    def test_each_file_is_read_once_and_hashed_from_its_bytes(
        self, fixture_dir, tmp_path, monkeypatch
    ):
        # The manifest's digests are of the bytes the run parsed or wrote: no
        # input is opened a second time to hash it, and no output is read back.
        opens = self.count_opens(monkeypatch)
        out = tmp_path / "merge"
        rc = main(
            [
                "merge", *io_flags(fixture_dir),
                "--method", "linear_solve", "--samples-per-task", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        monkeypatch.undo()
        inputs = [fixture_dir / name for name in ("base.ta", "task0.ta", "task1.ta", "task0.jsonl", "task1.jsonl")]
        outputs = [out / name for name in ("merged.ta", "weights.json", "manifest.json")]
        assert opens == {str(path): 1 for path in inputs + outputs}
        manifest = json.loads((out / "manifest.json").read_text())
        entries = [manifest["inputs"]["base"], *manifest["inputs"]["models"], *manifest["inputs"]["datasets"]]
        assert [entry["path"] for entry in entries] == [str(path) for path in inputs]
        for path, entry in zip(inputs, entries):
            assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
        # `eval` reads its archive once too.
        opens = self.count_opens(monkeypatch)
        flags = ["--archive", str(out / "merged.ta"), "--dataset", str(inputs[3])]
        assert main(["eval", *flags, "--out", str(tmp_path / "eval")]) == 0
        monkeypatch.undo()
        assert opens[str(out / "merged.ta")] == 1
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert metrics["sha256"] == manifest["outputs"]["merged.ta"]

    def test_analyze_hashes_nothing(self, fixture_dir, tmp_path, monkeypatch):
        # Counted across processes, in one process and with a forked worker.
        real = hashlib.sha256
        for cpus in (1, 2):
            hashed = Tally(tmp_path / f"hashed{cpus}")
            monkeypatch.setattr(hashlib, "sha256", lambda *args: hashed.add(repr(args)) or real(*args))
            on_cpus(monkeypatch, cpus)
            flags = ["--levels", "attn_mlp", "--samples-per-task", "2", "--out", str(tmp_path / f"out{cpus}")]
            assert main(["analyze", *io_flags(fixture_dir), *flags]) == 0
            assert_no_child_left()
            assert hashed.lines() == []


class TestRerun:
    """A command rerun into its own existing --out writes the same bytes as a run
    into a fresh one: every output is replaced whole, none is left over."""

    @pytest.mark.parametrize(
        "command",
        [
            ["gen-fixture", *FIXTURE_FLAGS],
            ["solve", "--samples-per-task", "2"],
            ["merge", "--method", "weight_avg"],
            ["merge", "--method", "task_arithmetic", "--alpha", "0.3"],
            ["merge", "--method", "dare", "--seed", "1"],
            ["merge", "--method", "linear_solve", "--level", "head_mlp", "--samples-per-task", "2"],
            ["analyze", "--levels", "model,attn_mlp", "--n-points", "2", "--samples-per-task", "2"],
            ["compare", "--samples-per-task", "2"],
            ["eval"],
        ],
        ids=[
            "gen_fixture", "solve", "merge_weight_avg", "merge_task_arithmetic", "merge_dare",
            "merge_linear_solve", "analyze", "compare", "eval",
        ],
    )
    def test_rerun_into_existing_out_writes_fresh_bytes(self, fixture_dir, tmp_path, monkeypatch, command):
        on_cpus(monkeypatch, 1)
        if command[0] == "gen-fixture":
            inputs = []
        elif command[0] == "eval":
            inputs = ["--archive", str(fixture_dir / "task0.ta"), "--dataset", str(fixture_dir / "task1.jsonl")]
        else:
            inputs = io_flags(fixture_dir, datasets=command[-1] not in ("weight_avg", "0.3", "1"))
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        for out in (fresh, rerun, rerun):
            assert main([*command, *inputs, "--out", str(out)]) == 0
        written = sorted(path.name for path in fresh.iterdir())
        assert sorted(path.name for path in rerun.iterdir()) == written
        for name in written:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


class TestEval:
    def test_uniform_logits_give_log_vocab(self, fixture_dir, tmp_path):
        config = ModelConfig(
            d_model=16, n_heads=2, n_layers=2, d_ff=32, vocab_size=17, max_seq=16
        )
        zero = TensorArchive(
            tensors={
                name: np.zeros(shape, dtype=np.float32)
                for name, shape in config.param_shapes().items()
            },
            meta={"model_config": config.to_json()},
        )
        archive_path = tmp_path / "zero.ta"
        write_archive(zero, archive_path)
        rc = main(
            [
                "eval",
                "--archive", str(archive_path),
                "--dataset", str(fixture_dir / "task0.jsonl"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["mean"] == pytest.approx(math.log(17), abs=1e-9)

    def test_tuned_model_beats_base_on_its_task(self, fixture_dir, tmp_path):
        means = {}
        for name in ("base", "task0"):
            out = tmp_path / name
            rc = main(
                [
                    "eval",
                    "--archive", str(fixture_dir / f"{name}.ta"),
                    "--dataset", str(fixture_dir / "task0.jsonl"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            means[name] = json.loads((out / "metrics.json").read_text())["mean"]
        assert means["task0"] < means["base"]

    def test_missing_archive_exits_2(self, fixture_dir, tmp_path):
        rc = main(
            [
                "eval",
                "--archive", str(tmp_path / "nope.ta"),
                "--dataset", str(fixture_dir / "task0.jsonl"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2


@pytest.fixture(scope="module")
def compare_dir(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    rc = main(
        [
            "compare", *io_flags(fixture_dir),
            "--samples-per-task", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestCompare:
    def test_row_inventory(self, compare_dir):
        payload = json.loads((compare_dir / "compare.json").read_text())
        methods = [row["method"] for row in payload["rows"]]
        assert len(payload["rows"]) == 24
        assert methods.count("weight_avg") == 1
        assert methods.count("task_arithmetic") == 10
        assert methods.count("dare") == 12
        assert methods.count("linear_solve") == 1
        csv_lines = (compare_dir / "compare.csv").read_text().splitlines()
        assert len(csv_lines) == 25

    def test_uniform_alpha_row_matches_weight_avg(self, compare_dir):
        payload = json.loads((compare_dir / "compare.json").read_text())
        by_id = {row["id"]: row for row in payload["rows"]}
        wa = by_id["weight_avg"]
        ta = by_id["task_arithmetic[alpha=0.5]"]
        for task in payload["tasks"]:
            assert abs(wa["losses"][task] - ta["losses"][task]) <= 1e-6

    def test_best_marks_are_minima(self, compare_dir):
        payload = json.loads((compare_dir / "compare.json").read_text())
        for task in payload["tasks"]:
            losses = {row["id"]: row["losses"][task] for row in payload["rows"]}
            assert losses[payload["best"][task]] == min(losses.values())
        means = {row["id"]: row["mean"] for row in payload["rows"]}
        assert means[payload["best"]["mean"]] == min(means.values())

    @pytest.mark.parametrize(
        "row_id, flags",
        [
            ("weight_avg", ["--method", "weight_avg"]),
            ("task_arithmetic[alpha=0.5]", ["--method", "task_arithmetic", "--alpha", "0.5"]),
            ("dare[drop_p=0.9,alpha=1]", ["--method", "dare", "--drop-p", "0.9", "--alpha", "1"]),
            (
                "linear_solve[level=attn_mlp]",
                ["--method", "linear_solve", "--level", "attn_mlp", "--samples-per-task", "4"],
            ),
        ],
        ids=list(METHODS),
    )
    def test_row_is_merge_then_eval(self, fixture_dir, compare_dir, tmp_path, row_id, flags):
        payload = json.loads((compare_dir / "compare.json").read_text())
        row = {row["id"]: row for row in payload["rows"]}[row_id]
        merged = tmp_path / "merge"
        inputs = io_flags(fixture_dir, datasets=row_id.startswith("linear_solve"))
        assert main(["merge", *inputs, *flags, "--out", str(merged)]) == 0
        datasets = [f for t in range(2) for f in ("--dataset", str(fixture_dir / f"task{t}.jsonl"))]
        rc = main(["eval", "--archive", str(merged / "merged.ta"), *datasets, "--out", str(tmp_path / "eval")])
        assert rc == 0
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert row["losses"] == {task: entry["loss"] for task, entry in metrics["per_task"].items()}
        manifest = json.loads((merged / "manifest.json").read_text())
        assert row["params"] == manifest["params"]

    def test_deterministic(self, fixture_dir, compare_dir, tmp_path):
        rc = main(
            [
                "compare", *io_flags(fixture_dir),
                "--samples-per-task", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        for name in ("compare.json", "compare.csv"):
            assert (tmp_path / name).read_bytes() == (compare_dir / name).read_bytes()


class TestConfigFile:
    def test_config_supplies_options_and_flags_override(self, fixture_dir, tmp_path):
        config_payload = {
            "base": str(fixture_dir / "base.ta"),
            "models": [str(fixture_dir / "task0.ta"), str(fixture_dir / "task1.ta")],
            "datasets": [
                str(fixture_dir / "task0.jsonl"),
                str(fixture_dir / "task1.jsonl"),
            ],
            "level": "layer",
            "samples_per_task": 4,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_payload))
        out_a = tmp_path / "a"
        assert main(["solve", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert json.loads((out_a / "weights.json").read_text())["level"] == "layer"
        out_b = tmp_path / "b"
        assert (
            main(
                [
                    "solve",
                    "--config", str(config_path),
                    "--level", "attn_mlp",
                    "--out", str(out_b),
                ]
            )
            == 0
        )
        assert json.loads((out_b / "weights.json").read_text())["level"] == "attn_mlp"

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "config file is not valid JSON"),
            (None, "cannot read config file: [Errno 2]"),
            ("directory", "cannot read config file: [Errno 21]"),
        ],
        ids=["not_json", "unreadable", "directory"],
    )
    def test_config_that_cannot_be_loaded_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        if text == "directory":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert message in assert_input_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    def test_unknown_level_flag_is_usage_error(self, fixture_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", *io_flags(fixture_dir), "--level", "bogus"])
        assert excinfo.value.code == 2


DEEP = b"[" * 100_000  # nesting past the JSON parser's recursion limit


class TestDecodeBoundary:
    """Bytes that are not UTF-8 or JSON nested too deep exit 2, from every JSON reader."""

    @pytest.mark.parametrize(
        "source, payload, message",
        [
            ("dataset", b'{"tokens": [1, 2]}\n{"tokens": [3\xff]}\n', "bad.jsonl:2: malformed"),
            ("dataset", DEEP, "bad.jsonl:1: malformed dataset line"),
            ("config", b'{"seed": 1\xff}', "config file is not valid JSON"),
            ("config", DEEP, "config file is not valid JSON"),
            ("config", b'{"seed": ' + b"1" * 5000 + b"}", "config file is not valid JSON"),
            ("header", DEEP, "malformed JSON header"),
            ("model_config", DEEP, "model_config is not valid JSON"),
            ("solve_base_model_config", DEEP, "model_config is not valid JSON"),
        ],
        ids=[
            "dataset_not_utf8", "dataset_deep", "config_not_utf8", "config_deep",
            "config_5000_digit_int", "header_deep", "model_config_deep",
            "solve_base_model_config_deep",
        ],
    )
    def test_undecodable_input_exits_2(
        self, fixture_dir, tmp_path, capsys, source, payload, message
    ):
        archive = fixture_dir / "base.ta"
        dataset = fixture_dir / "task0.jsonl"
        config = []
        if source == "dataset":
            dataset = tmp_path / "bad.jsonl"
            dataset.write_bytes(payload)
        elif source == "config":
            (tmp_path / "run.json").write_bytes(payload)
            config = ["--config", str(tmp_path / "run.json")]
        elif source == "header":
            archive = tmp_path / "deep.ta"
            archive.write_bytes(struct.pack("<Q", len(payload)) + payload)
        else:
            base = read_archive(archive)
            archive = tmp_path / "deep.ta"
            write_archive(TensorArchive(base.tensors, {"model_config": payload.decode()}), archive)
        argv = ["eval", "--archive", str(archive), "--dataset", str(dataset), *config]
        if source == "solve_base_model_config":
            argv = ["solve", "--base", str(archive), "--model", str(fixture_dir / "task0.ta")]
            argv += ["--dataset", str(dataset)]
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        assert message in assert_input_error(rc, capsys)
        assert not out.exists()


CONFIG_BYTES = json.dumps({"seed": 3, "levels": ["layer"], "d_model": 16}).encode()


@settings(max_examples=300, deadline=None)
@given(blob=byte_mutants(CONFIG_BYTES))
def test_mutated_config_file_loads_or_config_error(config_path, blob):
    """A config file with bytes replaced, inserted or deleted loads or raises a SubmergeError."""
    write_file(config_path, blob)
    try:
        Options(argparse.Namespace(config=config_path))
    except SubmergeError:
        pass


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """One path that each example writes with `write_file`: a new file per example,
    where rewriting the old one in place can wait on the disk for each example."""
    return tmp_path_factory.mktemp("config") / "run.json"


@settings(max_examples=150, deadline=None)
@given(
    key=st.sampled_from(sorted(CONFIG_TYPES)),
    value=JSON_VALUES | st.lists(st.text(max_size=8), max_size=3),
)
def test_config_value_is_of_declared_kind_or_config_error(config_path, key, value):
    """Options takes a config value of the key's declared JSON kind, or raises
    ConfigError; no other exception escapes."""
    write_file(config_path, json.dumps({key: value}).encode())
    args = build_parser().parse_args(["solve", "--config", str(config_path)])
    well_typed = JSON_TYPE_CHECKS[CONFIG_TYPES[key]](value)
    try:
        opts = Options(args)
    except ConfigError:
        assert not well_typed or (key == "seed" and value < 0)
    else:
        assert well_typed
        assert opts.file == {key: value}


def test_config_types_match_parser_options():
    """Each command's parser has exactly the flags of the OPTIONS rows that name
    the command as a reader, and every row but --config is a config key, so a
    new option is a flag and a config key at once."""
    parser = build_parser()
    for command in COMMANDS:
        dests = set(vars(parser.parse_args([command]))) - {"func", "command"}
        assert dests == {key for key, option in OPTIONS.items() if command in option.commands}
    assert set(CONFIG_TYPES) == set(OPTIONS) - {"config"}


def command_inputs(fixture_dir, command):
    """The input flags `command` reads, for a run that would succeed."""
    if command == "gen-fixture":
        return []
    datasets = io_flags(fixture_dir)[4:6]
    if command == "eval":
        return ["--archive", str(fixture_dir / "base.ta"), *datasets]
    return io_flags(fixture_dir)


# The flags each command took and ignored before it took only the flags it reads.
UNREAD_FLAGS = {
    "gen-fixture": [
        "--samples-per-task=4", "--level=layer", "--normalized", "--plain-gram", "--strict",
    ],
    "analyze": ["--level=head_mlp", "--normalized", "--plain-gram"],
    "eval": [
        "--seed=0", "--samples-per-task=4", "--level=layer", "--normalized", "--plain-gram",
        "--strict", "--base=/nonexistent.ta", "--model=/nope.ta",
    ],
}
# Abbreviations are refused too, so `--level` cannot stand for `--levels`.
ABBREVIATED_FLAGS = [
    ("analyze", "--level=model"), ("analyze", "--n-point=3"), ("solve", "--samples=4"),
]


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags]
    + ABBREVIATED_FLAGS,
)
def test_flag_the_command_does_not_read_is_usage_error(
    fixture_dir, tmp_path, capsys, command, flag
):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, *command_inputs(fixture_dir, command), flag, "--out", str(out)])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "method, flag",
    [
        ("task_arithmetic", "--drop-p=0.5"),
        ("task_arithmetic", "--level=head_mlp"),
        ("task_arithmetic", "--plain-gram"),
        ("task_arithmetic", "--seed=1"),
        ("weight_avg", "--alpha=0.5"),
        ("weight_avg", "--samples-per-task=4"),
        ("dare", "--level=layer"),
        ("linear_solve", "--alpha=0.5"),
        ("weight_avg", "--dataset=/nonexistent.jsonl"),
        ("task_arithmetic", "--dataset=/nonexistent.jsonl"),
        ("dare", "--dataset=/nonexistent.jsonl"),
    ],
)
def test_merge_flag_of_another_method_exits_2_before_the_work(
    fixture_dir, tmp_path, capsys, method, flag
):
    out = tmp_path / "out"
    inputs = io_flags(fixture_dir, datasets=method == "linear_solve")
    rc = main(["merge", *inputs, "--method", method, flag, "--out", str(out)])
    err = assert_input_error(rc, capsys)
    assert flag.split("=")[0] in err and f"is not read by --method {method}" in err
    assert not out.exists()


def test_config_file_is_shared_across_commands_and_methods(fixture_dir, tmp_path):
    """A config key a command or method does not read is type-checked and ignored."""
    config_path = tmp_path / "run.json"
    shared = {"drop_p": 0.5, "level": "head_mlp", "levels": "layer", "archive": "x", "strict": True}
    # task_arithmetic reads no seed and no dataset, and eval no seed, so neither
    # checks a seed's range or reads a dataset path from the file.
    shared.update(seed=-1, datasets=["/nonexistent.jsonl"])
    config_path.write_text(json.dumps(shared))
    rc = main(
        ["merge", *io_flags(fixture_dir, datasets=False), "--method", "task_arithmetic", "--alpha", "0",
         "--config", str(config_path), "--out", str(tmp_path / "merge")]
    )
    assert rc == 0
    assert (tmp_path / "merge" / "merged.ta").read_bytes() == (fixture_dir / "base.ta").read_bytes()
    datasets = io_flags(fixture_dir)[4:6]
    rc = main(
        ["eval", "--archive", str(fixture_dir / "base.ta"), *datasets,
         "--config", str(config_path), "--out", str(tmp_path / "eval")]
    )
    assert rc == 0


def test_defaults_come_from_the_option_table():
    opts = Options(build_parser().parse_args(["analyze"]))
    for key in ("samples_per_task", "n_points", "levels", "seed", "strict", "out"):
        assert opts.get(key) == OPTIONS[key].default
    assert opts.get("level", "attn_mlp") == "attn_mlp"


def readme_command_lines():
    """The `submerge` command lines of README's "Command line" block, each as an
    argv with the block's shell variables expanded and continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    variables, lines = {}, []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if len(words) == 1 and "=" in words[0]:
            name, value = words[0].split("=", 1)
            variables[name] = value
        elif words and words[0] == "submerge":
            expanded = " ".join(words[1:])
            for name, value in variables.items():
                expanded = expanded.replace(f"${name}", value)
            lines.append(expanded.split())
    return lines


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert [line[0] for line in lines] == list(COMMANDS)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv)
