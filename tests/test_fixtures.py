"""Synthetic fixture generation: determinism, geometry, dataset bias."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings

from submerge import DataError, ParamError, SubmergeError, read_archive, task_vector
from submerge.decompose import Granularity, plan_decomposition
from submerge.errors import write_file
from submerge.features import collect_base_features
from submerge.fixtures import (
    MAX_DATASET_SIZE,
    MAX_TASKS,
    FixtureSpec,
    build_fixture,
    gen_fixture,
    read_dataset,
    write_dataset,
)
from submerge.linearity import non_linearity_score
from submerge.model import ModelConfig, bind_weights, eval_cross_entropy

from conftest import bad_scalars, byte_mutants


def small_config(**overrides) -> ModelConfig:
    defaults = dict(
        d_model=16, n_heads=2, n_layers=2, d_ff=32, vocab_size=17, max_seq=16
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def small_spec(**overrides) -> FixtureSpec:
    defaults = dict(
        config=small_config(), n_tasks=2, tau_scale=0.5, dataset_size=4, seq_len=8, seed=1
    )
    defaults.update(overrides)
    return FixtureSpec(**defaults)


class TestSpecValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ParamError):
            small_spec(n_tasks=0)
        # 10**400 once passed and then overflowed in build_fixture.
        for tau_scale in (-0.1, float("nan"), float("inf"), 10**400):
            with pytest.raises(ParamError, match="tau_scale"):
                small_spec(tau_scale=tau_scale)
        with pytest.raises(ParamError):
            small_spec(dataset_size=0)
        with pytest.raises(ParamError):
            small_spec(seq_len=1)
        with pytest.raises(ParamError):
            small_spec(seq_len=99)
        with pytest.raises(ParamError, match="seed must be an integer >= 0, got -1"):
            small_spec(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.9),
            ("seed", True),
            ("n_tasks", 2.7),
            ("n_tasks", 2.0),
            ("dataset_size", "4"),
            ("seq_len", 8.0),
            ("tau_scale", "0.5"),
            ("tau_scale", True),
            ("tau_scale", None),
            *bad_scalars(("n_tasks", "dataset_size", "seq_len", "seed"), "integer", "minimum"),
            *bad_scalars(("tau_scale",), "real", "minimum"),
        ],
    )
    def test_mistyped_values_rejected(self, field, value):
        with pytest.raises(ParamError, match=f"{field} must be"):
            small_spec(**{field: value})
        payload = small_spec().to_json_dict()
        payload[field] = value
        with pytest.raises(ParamError, match=f"{field} must be"):
            FixtureSpec.from_json_dict(payload)

    @pytest.mark.parametrize(
        "field, maximum", [("n_tasks", MAX_TASKS), ("dataset_size", MAX_DATASET_SIZE)]
    )
    def test_counts_past_their_bound_rejected(self, field, maximum):
        # Unbounded, 10**8 tasks ended in a MemoryError and 10**11 sequences ran for minutes.
        assert getattr(small_spec(**{field: maximum}), field) == maximum
        message = f"{field} must be an integer >= 1 and <= {maximum}, got {maximum + 1}"
        with pytest.raises(ParamError, match=message):
            small_spec(**{field: maximum + 1})
        payload = dict(small_spec().to_json_dict(), **{field: 10**11})
        with pytest.raises(ParamError, match=f"{field} must be an integer >= 1 and <= {maximum}"):
            FixtureSpec.from_json_dict(payload)

    def test_integer_tau_scale_accepted(self):
        assert small_spec(tau_scale=1).tau_scale == 1

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        # `to_json_dict` feeds json.dumps, which refuses NumPy scalars.
        spec = small_spec(n_tasks=np.int64(2), seed=np.int32(1), tau_scale=np.float32(0.5))
        assert json.dumps(spec.to_json_dict()) == json.dumps(small_spec().to_json_dict())
        assert type(spec.seed) is int and type(spec.tau_scale) is float

    def test_json_round_trip(self):
        spec = small_spec(tau_scale=0.25, seed=7)
        payload = spec.to_json_dict()
        assert payload == {
            "config": json.loads(spec.config.to_json()),
            "n_tasks": 2,
            "tau_scale": 0.25,
            "dataset_size": 4,
            "seq_len": 8,
            "seed": 7,
        }
        assert FixtureSpec.from_json_dict(payload) == spec

    def test_malformed_payload(self):
        with pytest.raises(ParamError):
            FixtureSpec.from_json_dict({"n_tasks": 2})

    def test_unknown_key_rejected(self):
        payload = dict(small_spec().to_json_dict(), sed=9)
        with pytest.raises(ParamError, match="sed"):
            FixtureSpec.from_json_dict(payload)


class TestBuildFixture:
    def test_zero_tau_models_equal_base(self):
        fixture = build_fixture(small_spec(tau_scale=0.0))
        for model in fixture.models:
            assert model == fixture.base

    def test_base_init_statistics(self):
        fixture = build_fixture(small_spec())
        base = fixture.base
        for name, arr in base.tensors.items():
            if arr.ndim == 1:
                np.testing.assert_array_equal(arr, np.ones_like(arr))
        matrix = base.tensors["layers.0.attn.q_proj"]
        assert matrix.std() == pytest.approx(0.02 / np.sqrt(16), rel=0.25)

    def test_task_vectors_have_global_norm_tau_scale(self):
        spec = small_spec(tau_scale=0.3)
        fixture = build_fixture(spec)
        for model in fixture.models:
            tau = task_vector(model, fixture.base)
            total = np.sqrt(
                sum(float(np.sum(np.square(arr))) for arr in tau.tensors.values())
            )
            assert total == pytest.approx(0.3, rel=1e-3)

    def test_direction_mass_concentrates_on_output_projections(self):
        fixture = build_fixture(small_spec(tau_scale=1.0))
        tau = task_vector(fixture.models[0], fixture.base)
        out_mass = sum(
            float(np.sum(np.square(arr)))
            for name, arr in tau.tensors.items()
            if name.endswith(("o_proj", "down_proj"))
        )
        total = sum(float(np.sum(np.square(arr))) for arr in tau.tensors.values())
        assert out_mass / total > 0.8

    def test_datasets_shapes_and_range(self):
        spec = small_spec(dataset_size=5, seq_len=6)
        fixture = build_fixture(spec)
        assert len(fixture.datasets) == 2
        for seqs in fixture.datasets:
            assert len(seqs) == 5
            for seq in seqs:
                assert len(seq) == 6
                assert all(0 <= t < 17 for t in seq)

    def test_tasks_have_distinct_token_bias(self):
        fixture = build_fixture(small_spec(dataset_size=32, seq_len=12))
        histograms = []
        for seqs in fixture.datasets:
            counts = np.bincount(np.concatenate(seqs), minlength=17)
            histograms.append(counts / counts.sum())
        correlation = np.corrcoef(histograms[0], histograms[1])[0, 1]
        assert correlation < 0.9

    def test_deterministic_per_seed(self):
        a = build_fixture(small_spec(seed=5))
        b = build_fixture(small_spec(seed=5))
        c = build_fixture(small_spec(seed=6))
        assert a.base == b.base
        assert all(x == y for x, y in zip(a.models, b.models))
        assert a.datasets == b.datasets
        assert a.base != c.base


class TestTrainedStyleBehavior:
    def test_models_beat_base_on_their_own_task(self):
        fixture = build_fixture(small_spec(tau_scale=0.5, dataset_size=8, seed=3))
        config = fixture.spec.config
        base_model = bind_weights(fixture.base, config)
        for task in range(2):
            tuned = bind_weights(fixture.models[task], config)
            base_loss = eval_cross_entropy(base_model, fixture.datasets[task])
            tuned_loss = eval_cross_entropy(tuned, fixture.datasets[task])
            assert tuned_loss < base_loss
            assert tuned_loss < np.log(config.vocab_size)

    def test_non_linearity_grows_with_tau_scale(self):
        # The whole-model interpolation score rises with displacement size.
        for seed in (1, 2, 3):
            scores = {}
            for tau_scale in (1e-3, 1.0):
                spec = small_spec(tau_scale=tau_scale, dataset_size=3, seed=seed)
                fixture = build_fixture(spec)
                plan = plan_decomposition(spec.config, Granularity.MODEL)
                store = collect_base_features(
                    bind_weights(fixture.base, spec.config),
                    fixture.datasets,
                    plan,
                    sample_n=2,
                    seed=0,
                )
                tau = task_vector(fixture.models[0], fixture.base)
                value, _ = non_linearity_score(
                    store, fixture.base, tau, plan.group("model"), task=0
                )
                scores[tau_scale] = value
            assert scores[1e-3] < scores[1.0]


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, "task0", [[1, 2, 3], [4, 5, 6]])
        assert read_dataset(path) == [[1, 2, 3], [4, 5, 6]]

    @settings(max_examples=300, deadline=None)
    @given(blob=byte_mutants(b'{"task": "t", "tokens": [1, 2, 3]}\n{"task": "t", "tokens": [4]}\n'))
    def test_mutated_file_reads_or_data_error(self, tmp_path_factory, blob):
        """A dataset with bytes replaced, inserted or deleted reads, or raises a SubmergeError."""
        # A new file per example: rewriting one in place can wait on the disk.
        path = tmp_path_factory.getbasetemp() / "mutant.jsonl"
        write_file(path, blob)
        try:
            sequences = read_dataset(path)
        except SubmergeError:
            return
        assert all(isinstance(t, int) for seq in sequences for t in seq)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "x", "tokens": [1]}\nnot json\n')
        with pytest.raises(DataError):
            read_dataset(path)

    def test_non_int_tokens(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "x", "tokens": [1.5]}\n')
        with pytest.raises(DataError):
            read_dataset(path)

    @pytest.mark.parametrize("field, value", bad_scalars(["tokens"], "integer"))
    def test_bad_scalar_token(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"task": "x", field: [1, value]}) + "\n")
        with pytest.raises(DataError, match="tokens must be a list of ints"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            read_dataset(path)


class TestGenFixture:
    def test_files_written_and_loadable(self, tmp_path):
        spec = small_spec()
        paths = gen_fixture(spec, tmp_path / "fx")
        base = read_archive(paths["base"])
        assert base.shapes() == spec.config.param_shapes()
        for model_path in paths["models"]:
            assert read_archive(model_path).shapes() == base.shapes()
        for dataset_path in paths["datasets"]:
            seqs = read_dataset(dataset_path)
            assert len(seqs) == spec.dataset_size

    def test_failed_build_leaves_no_directory(self, tmp_path):
        # tau_scale 1e300 passes the spec check and overflows float32 in the build.
        out = tmp_path / "made" / "fx"
        with pytest.raises(ParamError, match="tau_scale 1e\\+300 is too large"):
            gen_fixture(small_spec(tau_scale=1e300), out)
        assert not (tmp_path / "made").exists()

    def test_manifest_digests_match_files(self, tmp_path):
        paths = gen_fixture(small_spec(), tmp_path / "fx")
        manifest = json.loads(paths["manifest"].read_text())
        for name, digest in manifest["digests"].items():
            actual = hashlib.sha256((tmp_path / "fx" / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_reruns_byte_identical(self, tmp_path):
        spec = small_spec(seed=9)
        first = gen_fixture(spec, tmp_path / "a")
        second = gen_fixture(spec, tmp_path / "b")
        for key in ("base", "manifest"):
            assert first[key].read_bytes() == second[key].read_bytes()
        for a, b in zip(first["models"] + first["datasets"], second["models"] + second["datasets"]):
            assert a.read_bytes() == b.read_bytes()
