"""End-to-end command line runs against generated fixtures."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submerge import ConfigError, TensorArchive, read_archive, write_archive
from submerge.cli import CONFIG_TYPES, JSON_TYPE_CHECKS, Options, build_parser, main
from submerge.model import ModelConfig

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


def io_flags(fixture_dir, n_models=2):
    flags = ["--base", str(fixture_dir / "base.ta")]
    for t in range(n_models):
        flags += ["--model", str(fixture_dir / f"task{t}.ta")]
        flags += ["--dataset", str(fixture_dir / f"task{t}.jsonl")]
    return flags


class TestGenFixture:
    def test_outputs_exist(self, fixture_dir):
        for name in ("base.ta", "task0.ta", "task1.ta", "task0.jsonl", "task1.jsonl", "fixture.json"):
            assert (fixture_dir / name).exists()

    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path):
        rc = main(["gen-fixture", *FIXTURE_FLAGS, "--tau-scale", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("base.ta", "task0.ta", "task1.jsonl", "fixture.json"):
            assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path):
        rc = main(
            ["gen-fixture", *FIXTURE_FLAGS, "--seq-len", "99", "--out", str(tmp_path)]
        )
        assert rc == 2


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
        [[3, -1, 4], [3, 99, 4], list(range(16)) + [1], [3, 2**70, 4]],  # vocab 17, max_seq 16
        ids=["negative_id", "id_past_vocab", "longer_than_max_seq", "id_past_int64"],
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

    @pytest.mark.parametrize("key", ["normalized", "strict"])
    def test_string_boolean_in_config_exits_2(self, fixture_dir, tmp_path, capsys, key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: "false", "samples_per_task": 4}))
        rc = main(["solve", *io_flags(fixture_dir), "--config", str(config_path), "--out", str(tmp_path)])
        assert_input_error(rc, capsys)

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["solve"], {"samples_per_task": "abc"}),
            (["analyze"], {"n_points": "x"}),
            (["solve"], {"seed": 1.5}),
            (["merge", "--method", "task_arithmetic"], {"models": "task0.ta"}),
        ],
        ids=["string_samples_per_task", "string_n_points", "float_seed", "string_models"],
    )
    def test_mistyped_config_value_exits_2(self, fixture_dir, tmp_path, capsys, argv, payload):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"samples_per_task": 4, **payload}))
        flags = ["--base", str(fixture_dir / "base.ta")] if "models" in payload else io_flags(fixture_dir)
        rc = main([*argv, *flags, "--config", str(config_path), "--out", str(tmp_path)])
        key = next(iter(payload))
        assert f"config key {key!r}" in assert_input_error(rc, capsys)

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
        assert "n_points must be >= 2" in assert_input_error(rc, capsys)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--samples-per-task=0", "--samples-per-task=-1"])
    def test_sample_count_below_one_exits_2(self, fixture_dir, tmp_path, capsys, flag):
        rc = main(["solve", *io_flags(fixture_dir), flag, "--out", str(tmp_path)])
        assert "sample count must be >= 1" in assert_input_error(rc, capsys)

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
        assert "seed must be >= 0" in assert_input_error(rc, capsys)
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
                "merge", *io_flags(fixture_dir),
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
                "merge", *io_flags(fixture_dir),
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
                "merge", *io_flags(fixture_dir),
                "--method", "task_arithmetic", "--alpha", "0.4",
                "--out", str(ta_dir),
            ]
        ) == 0
        assert main(
            [
                "merge", *io_flags(fixture_dir),
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

    def test_missing_method_exits_2(self, fixture_dir, tmp_path):
        rc = main(["merge", *io_flags(fixture_dir), "--out", str(tmp_path)])
        assert rc == 2


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

    def test_unknown_level_flag_is_usage_error(self, fixture_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", *io_flags(fixture_dir), "--level", "bogus"])
        assert excinfo.value.code == 2


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
    return tmp_path_factory.mktemp("config") / "run.json"


@settings(max_examples=150, deadline=None)
@given(
    key=st.sampled_from(sorted(CONFIG_TYPES)),
    value=JSON_VALUES | st.lists(st.text(max_size=8), max_size=3),
)
def test_config_value_is_of_declared_kind_or_config_error(config_path, key, value):
    """Options takes a config value of the key's declared JSON kind, or raises
    ConfigError; no other exception escapes."""
    config_path.write_text(json.dumps({key: value}))
    args = build_parser().parse_args(["solve", "--config", str(config_path)])
    well_typed = JSON_TYPE_CHECKS[CONFIG_TYPES[key]](value)
    try:
        opts = Options(args)
    except ConfigError:
        assert not well_typed or (key == "seed" and value < 0)
    else:
        assert well_typed
        assert opts.file == {key: value}
