"""Container format: round trips, canonical bytes, and archive algebra."""

from __future__ import annotations

import copy
import json
import math
import os
import pickle
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submerge import (
    CoeffError,
    CompatError,
    DataError,
    FormatError,
    IoError,
    TensorArchive,
    TruncationError,
    archive_bytes,
    linear_combine,
    read_archive,
    task_vector,
    write_archive,
)
from submerge.archive import combine
from submerge.cli import _write_csv
from submerge.errors import write_json
from submerge.fixtures import FixtureSpec, gen_fixture, read_dataset, write_dataset
from submerge.model import ModelConfig, bind_weights, eval_cross_entropy

from conftest import bad_scalars


def small_archive() -> TensorArchive:
    rng = np.random.default_rng(42)
    return TensorArchive(
        tensors={
            "w": rng.normal(size=(2, 2)).astype(np.float32),
            "layers.0.bias": rng.normal(size=(3,)).astype(np.float32),
            "a.long.dotted.name": rng.normal(size=(2, 3, 4)).astype(np.float32),
        },
        meta={"model_config": "{}", "kind": "test"},
    )


class TestRoundTrip:
    def test_read_back_equal(self, tmp_path):
        arc = small_archive()
        path = tmp_path / "a.ta"
        write_archive(arc, path)
        assert read_archive(path) == arc

    def test_write_is_deterministic(self, tmp_path):
        arc = small_archive()
        p1, p2 = tmp_path / "one.ta", tmp_path / "two.ta"
        write_archive(arc, p1)
        write_archive(arc, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rewrite_after_read_is_byte_identical(self, tmp_path):
        path = tmp_path / "a.ta"
        write_archive(small_archive(), path)
        again = tmp_path / "b.ta"
        write_archive(read_archive(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_empty_archive(self, tmp_path):
        arc = TensorArchive(tensors={}, meta={"note": "empty"})
        path = tmp_path / "empty.ta"
        write_archive(arc, path)
        header = json.loads(path.read_bytes()[8:].decode("utf-8"))
        assert header["tensors"] == {}
        assert read_archive(path) == arc

    def test_single_tensor_file_size(self, tmp_path):
        arc = TensorArchive(tensors={"w": np.zeros((2, 2), dtype=np.float32)}, meta={})
        path = tmp_path / "w.ta"
        write_archive(arc, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob)
        assert len(blob) == 8 + header_len + 16  # 4 floats of payload
        assert read_archive(path).tensors["w"].shape == (2, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh.xyz_0123456789", min_size=1, max_size=12).filter(
                lambda s: s.strip(".")
            ),
            st.tuples(
                st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
                st.integers(),
            ),
            max_size=4,
        ),
        st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
    )
    def test_round_trip_property(self, tmp_path_factory, specs, meta):
        tensors = {}
        for name, (shape, seed) in specs.items():
            rng = np.random.default_rng(abs(seed) % 2**32)
            tensors[name] = rng.normal(size=shape).astype(np.float32)
        arc = TensorArchive(tensors=tensors, meta=meta)
        path = tmp_path_factory.mktemp("rt") / "x.ta"
        write_archive(arc, path)
        back = read_archive(path)
        assert back == arc
        assert archive_bytes(back) == archive_bytes(arc)


class TestFloat32Boundary:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_construction_rejects_non_finite(self, value):
        # 1e39 is a finite float64 beyond the float32 range; its cast must not warn.
        with pytest.raises(DataError, match="tensor 'w' overflows float32"):
            TensorArchive(tensors={"a": [1.0], "w": np.array([0.5, value])}, meta={})

    def test_float64_input_is_rounded_to_float32(self):
        arc = TensorArchive(tensors={"w": np.array([0.1])}, meta={})
        assert arc.tensors["w"].dtype == np.float32
        assert arc.tensors["w"][0] == np.float32(0.1)


class TestFormatErrors:
    def test_nan_rejected_before_write(self, tmp_path):
        path = tmp_path / "bad.ta"
        with pytest.raises(DataError):
            write_archive(TensorArchive(tensors={"w": np.array([np.nan])}, meta={}), path)
        assert not path.exists()

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "bad.ta"
        with pytest.raises(DataError):
            write_archive(TensorArchive(tensors={"w": np.array([np.inf])}, meta={}), path)
        assert not path.exists()

    def test_tensor_replaced_after_construction_refused(self):
        # The construction check is the only one, so a built archive refuses replacement.
        arc = TensorArchive(tensors={"w": np.array([1.0])}, meta={})
        with pytest.raises(TypeError):
            arc.tensors["w"] = np.array([np.nan], dtype=np.float32)
        assert arc == TensorArchive(tensors={"w": np.array([1.0])}, meta={})

    def test_zero_extent_rejected(self):
        with pytest.raises(FormatError, match="non-positive extent"):
            TensorArchive(tensors={"w": np.zeros((0, 2), dtype=np.float32)}, meta={})

    @pytest.mark.parametrize("name", ["", 7])
    def test_bad_tensor_name_rejected(self, name):
        with pytest.raises(FormatError, match="tensor name must be a non-empty string"):
            TensorArchive(tensors={name: [1.0]}, meta={})

    @pytest.mark.parametrize("meta", [{"kind": 1}, {2: "x"}])
    def test_non_string_meta_rejected(self, meta):
        with pytest.raises(FormatError, match="meta must map strings to strings"):
            TensorArchive(tensors={"w": [1.0]}, meta=meta)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.ta"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError):
            read_archive(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ta"
        path.write_bytes(struct.pack("<Q", 100) + b"{}")
        with pytest.raises(TruncationError):
            read_archive(path)

    def test_malformed_json(self, tmp_path):
        body = b"{not json"
        path = tmp_path / "bad.ta"
        path.write_bytes(struct.pack("<Q", len(body)) + body)
        with pytest.raises(FormatError):
            read_archive(path)

    def _patched_file(self, tmp_path, mutate):
        arc = small_archive()
        blob = archive_bytes(arc)
        (header_len,) = struct.unpack_from("<Q", blob)
        header = json.loads(blob[8 : 8 + header_len].decode())
        payload = blob[8 + header_len :]
        header, payload = mutate(header, payload)
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "patched.ta"
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + payload)
        return path

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda h: h.update(tensors=[]), "'tensors' must be an object"),
            (lambda h: h.update(meta={"kind": 1}), "'meta' must map strings to strings"),
            (lambda h: h.update(meta=[]), "'meta' must map strings to strings"),
            (lambda h: h["tensors"]["w"].update(extra=0), "tensor entry 'w' has unexpected fields"),
            (lambda h: h.pop("tensors"), "exactly 'tensors' and 'meta'"),
            (lambda h: h.pop("meta"), "exactly 'tensors' and 'meta'"),
        ],
    )
    def test_malformed_header_fields(self, tmp_path, mutate, message):
        def patch(header, payload):
            mutate(header)
            return header, payload

        with pytest.raises(FormatError, match=message):
            read_archive(self._patched_file(tmp_path, patch))

    def test_offsets_past_payload(self, tmp_path):
        def mutate(header, payload):
            return header, payload[:-4]  # drop the tail of the last tensor

        with pytest.raises(TruncationError):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_gap_in_payload(self, tmp_path):
        def mutate(header, payload):
            last = sorted(header["tensors"])[-1]
            entry = header["tensors"][last]
            entry["offsets"] = [entry["offsets"][0] + 4, entry["offsets"][1] + 4]
            return header, payload + b"\x00" * 4

        with pytest.raises(FormatError):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_trailing_bytes(self, tmp_path):
        def mutate(header, payload):
            return header, payload + b"\x00\x00\x00\x00"

        with pytest.raises(FormatError):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_unknown_dtype(self, tmp_path):
        def mutate(header, payload):
            first = sorted(header["tensors"])[0]
            header["tensors"][first]["dtype"] = "f64"
            return header, payload

        with pytest.raises(FormatError):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_shape_offset_mismatch(self, tmp_path):
        def mutate(header, payload):
            first = sorted(header["tensors"])[0]
            header["tensors"][first]["shape"][0] += 1
            return header, payload

        with pytest.raises(FormatError):
            read_archive(self._patched_file(tmp_path, mutate))

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("shape", True, id="boolean_extent"),
            pytest.param("offsets", False, id="boolean_offset"),
            *bad_scalars(("shape", "offsets"), "integer", "minimum"),
        ],
    )
    def test_boolean_in_header_rejected(self, tmp_path, field, value):
        # `value` as the first extent of shape [1, 3] or the first of offsets [0, 96]:
        # True would pass as extent 1 and False as offset 0 if bools counted as ints.
        tensor, entry = {
            "shape": ("layers.0.bias", [value, 3]),
            "offsets": ("a.long.dotted.name", [value, 96]),
        }[field]

        def mutate(header, payload):
            header["tensors"][tensor][field] = entry
            return header, payload

        with pytest.raises(FormatError, match=f"invalid {field}"):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_nan_in_payload(self, tmp_path):
        def mutate(header, payload):
            nan = struct.pack("<f", float("nan"))
            return header, nan + payload[4:]

        with pytest.raises(DataError):
            read_archive(self._patched_file(tmp_path, mutate))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_archive(tmp_path / "nope.ta")


class TestIoBoundary:
    """Every file reader and writer turns an `OSError` into an `IoError` that names
    the path, the `OSError` as its cause. Each path is refused whoever runs the test:
    missing, a directory, or below a regular file."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("read_archive_directory", "cannot read archive from {path}"),
            ("write_archive_below_file", "cannot write archive to {path}"),
            ("read_dataset_missing", "cannot read dataset {path}"),
            ("write_dataset_below_file", "cannot write dataset {path}"),
            ("gen_fixture_below_file", "cannot create fixture dir {path}"),
            ("gen_fixture_manifest_directory", "cannot write {path}"),
            ("write_json_below_file", "cannot write {path}"),
            ("write_archive_directory", "cannot write archive to {path}"),
            ("write_dataset_directory", "cannot write dataset {path}"),
            ("write_json_directory", "cannot write {path}"),
        ],
    )
    def test_os_error_becomes_io_error(self, tmp_path, case, message):
        taken = tmp_path / "taken"
        taken.write_text("")
        (tmp_path / "fx" / "fixture.json").mkdir(parents=True)
        spec = FixtureSpec(
            ModelConfig(d_model=8, n_heads=2, n_layers=1, d_ff=16, vocab_size=11, max_seq=8),
            dataset_size=2,
            seq_len=4,
        )
        call, path = {
            "read_archive_directory": (read_archive, tmp_path),
            "write_archive_below_file": (lambda p: write_archive(small_archive(), p), taken / "a.ta"),
            "read_dataset_missing": (read_dataset, tmp_path / "nope.jsonl"),
            "write_dataset_below_file": (lambda p: write_dataset(p, "t", [[1]]), taken / "d.jsonl"),
            "gen_fixture_below_file": (lambda p: gen_fixture(spec, p), taken / "fx"),
            "gen_fixture_manifest_directory": (
                lambda p: gen_fixture(spec, p.parent), tmp_path / "fx" / "fixture.json"
            ),
            "write_json_below_file": (lambda p: write_json(p, {}), taken / "x.json"),
            "write_archive_directory": (lambda p: write_archive(small_archive(), p), tmp_path / "fx"),
            "write_dataset_directory": (lambda p: write_dataset(p, "t", [[1]]), tmp_path / "fx"),
            "write_json_directory": (lambda p: write_json(p, {}), tmp_path / "fx"),
        }[case]
        with pytest.raises(IoError) as excinfo:
            call(path)
        assert str(excinfo.value).startswith(message.format(path=path) + ": ")
        assert isinstance(excinfo.value.__cause__, OSError)


# Each output writer, called with a path and a version number: each version
# writes different bytes.
WRITERS = {
    "archive": lambda path, k: write_archive(
        TensorArchive(tensors={"w": np.full((k,), k, np.float32)}, meta={}), path
    ),
    "dataset": lambda path, k: write_dataset(path, "t", [[k]] * k),
    "json": lambda path, k: write_json(path, {"k": [k] * k}),
    "csv": lambda path, k: _write_csv(path, ["k"], [[str(k)]] * k),
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
class TestReplaceNotTruncate:
    """Every writer unlinks what is at its path and writes a new file: it never
    truncates, follows or reopens the old entry."""

    @staticmethod
    def fresh_bytes(tmp_path, writer, k) -> bytes:
        path = tmp_path / f"fresh{k}"
        writer(path, k)
        return path.read_bytes()

    def test_hard_link_to_the_old_output_keeps_its_bytes(self, tmp_path, writer):
        path, old = tmp_path / "out", tmp_path / "old"
        writer(path, 1)
        os.link(path, old)
        writer(path, 2)
        assert old.read_bytes() == self.fresh_bytes(tmp_path, writer, 1)
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer, 2)
        assert path.stat().st_nlink == old.stat().st_nlink == 1

    @pytest.mark.parametrize("dangling", [False, True], ids=["target", "dangling"])
    def test_symlink_is_replaced_and_its_target_untouched(self, tmp_path, writer, dangling):
        path, target = tmp_path / "out", tmp_path / "target"
        if not dangling:
            target.write_bytes(b"keep")
        path.symlink_to(target)
        writer(path, 1)
        assert not path.is_symlink()
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer, 1)
        if dangling:
            assert not target.exists()
        else:
            assert target.read_bytes() == b"keep"

    def test_read_only_output_in_a_writable_directory_is_replaced(self, tmp_path, writer):
        path = tmp_path / "out"
        writer(path, 1)
        path.chmod(0o444)
        writer(path, 2)
        assert path.read_bytes() == self.fresh_bytes(tmp_path, writer, 2)
        assert path.stat().st_mode & stat.S_IWUSR


class TestReadOnly:
    def test_meta_elements_and_fields_refuse_writes(self):
        arc = small_archive()
        with pytest.raises(TypeError):
            arc.meta["kind"] = "other"
        with pytest.raises(ValueError, match="read-only"):
            arc.tensors["w"][0, 0] = 1.0
        with pytest.raises(AttributeError):
            arc.tensors = {}
        assert arc == small_archive()

    def test_construction_copies_its_inputs(self):
        w, meta = np.ones(2, dtype=np.float32), {"kind": "test"}
        arc = TensorArchive(tensors={"w": w}, meta=meta)
        w[0], meta["kind"] = np.nan, "other"
        assert arc == TensorArchive(tensors={"w": np.ones(2)}, meta={"kind": "test"})

    @pytest.mark.parametrize("clone", [lambda arc: pickle.loads(pickle.dumps(arc)), copy.deepcopy])
    def test_pickle_and_deepcopy_round_trip_read_only(self, clone):
        arc = small_archive()
        back = clone(arc)
        assert back == arc and archive_bytes(back) == archive_bytes(arc)
        assert not any(arr.flags.writeable for arr in back.tensors.values())
        with pytest.raises(TypeError):
            back.meta["kind"] = "other"

    def test_read_archive_refuses_nan_and_float64_writes(self, tmp_path, tiny_config, tiny_checkpoint):
        # A read archive once took a NaN written into a tensor (eval_cross_entropy
        # then returned nan) and a float64 lm_head of 1e30 (it then returned 0.0).
        path = tmp_path / "base.ta"
        write_archive(tiny_checkpoint, path)
        arc = read_archive(path)
        with pytest.raises(ValueError, match="read-only"):
            arc.tensors["layers.0.norm1"][0] = np.nan
        with pytest.raises(TypeError):
            arc.tensors["lm_head"] = np.full(arc.tensors["lm_head"].shape, 1e30)
        loss = eval_cross_entropy(bind_weights(arc, tiny_config), [[1, 2, 3, 4, 5]])
        assert math.isfinite(loss) and loss > 0
        assert loss == eval_cross_entropy(bind_weights(tiny_checkpoint, tiny_config), [[1, 2, 3, 4, 5]])


def _arc(values: dict[str, list[float]], meta=None) -> TensorArchive:
    return TensorArchive(
        tensors={k: np.array(v, dtype=np.float32) for k, v in values.items()},
        meta=meta or {},
    )


class TestTaskVector:
    def test_identity_is_zero(self):
        base = small_archive()
        tau = task_vector(base, base)
        assert all(not arr.any() for arr in tau.tensors.values())
        assert tau.meta["kind"] == "task_vector"

    def test_elementwise_subtraction(self):
        tau = task_vector(_arc({"n": [1.0, 2.0]}), _arc({"n": [0.5, 2.0]}))
        np.testing.assert_array_equal(tau.tensors["n"], np.array([0.5, 0.0], dtype=np.float32))

    def test_missing_tensor(self):
        with pytest.raises(CompatError):
            task_vector(_arc({"n": [1.0], "extra": [1.0]}), _arc({"n": [1.0]}))

    def test_shape_mismatch(self):
        with pytest.raises(CompatError):
            task_vector(_arc({"n": [1.0, 2.0]}), _arc({"n": [1.0]}))

    def test_overflowing_difference_names_the_tensor(self):
        # 3e38 - (-3e38) leaves the float32 range; the subtraction must not warn.
        fine = _arc({"n": [1.0], "m": [3e38]})
        with pytest.raises(DataError, match="tensor 'm' overflows float32"):
            task_vector(fine, _arc({"n": [1.0], "m": [-3e38]}))

    def test_first_overflow_in_name_order_raises_at_construction(self):
        fine = _arc({"z": [3e38], "n": [1.0], "b": [-3e38]})
        with pytest.raises(DataError, match="tensor 'b' overflows float32"):
            task_vector(fine, _arc({"z": [-3e38], "n": [1.0], "b": [3e38]}))

    def test_view_reads_each_difference_and_holds_no_array(self):
        rng = np.random.default_rng(5)
        shapes = {"w": (3, 4), "b": (4,), "e": (2, 3, 2)}
        base, fine = (
            _arc({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()})
            for _ in range(2)
        )
        tau = task_vector(fine, base)
        assert list(tau.tensors) == sorted(shapes) and len(tau.tensors) == len(shapes)
        assert tau.shapes() == base.shapes()
        for name in shapes:
            want = fine.tensors[name] - base.tensors[name]
            got = tau.tensors[name]
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)
            # Computed on each read, not stored.
            assert got is not tau.tensors[name]
        held = [*vars(tau).values(), *vars(tau.tensors).values()]
        assert not any(isinstance(value, np.ndarray) for value in held)
        with pytest.raises(TypeError):
            tau.tensors["w"] = base.tensors["w"]
        with pytest.raises(TypeError):
            tau.meta["kind"] = "archive"


class TestCombine:
    def test_accumulates_in_float64_in_order_without_touching_base(self):
        base = np.array([1.0, 2.0], dtype=np.float32)
        terms = [np.array([0.1, 0.2], dtype=np.float32), np.array([3.0, -1.0])]
        out = combine(base, terms, [0.5, 2])
        expected = base.astype(np.float64)
        expected = expected + 0.5 * terms[0].astype(np.float64)
        expected = expected + 2.0 * terms[1]
        assert out.dtype == np.float64
        assert np.array_equal(out, expected)
        assert np.array_equal(base, np.array([1.0, 2.0], dtype=np.float32))


class TestLinearCombine:
    def test_zero_coeffs_recover_base(self):
        base = small_archive()
        out = linear_combine(base, [base], [0.0])
        assert out.tensors.keys() == base.tensors.keys()
        for name in base.tensors:
            np.testing.assert_array_equal(out.tensors[name], base.tensors[name])

    def test_single_vector_full_weight(self):
        rng = np.random.default_rng(7)
        base = _arc({"w": rng.normal(size=8).tolist()})
        fine = _arc({"w": rng.normal(size=8).tolist()})
        tau = task_vector(fine, base)
        out = linear_combine(base, [tau], [1.0])
        np.testing.assert_allclose(out.tensors["w"], fine.tensors["w"], atol=1e-7)

    def test_arithmetic_example(self):
        base = _arc({"n": [1.0]})
        out = linear_combine(
            base,
            [_arc({"n": [2.0]}), _arc({"n": [4.0]})],
            [0.5, 0.25],
        )
        np.testing.assert_array_equal(out.tensors["n"], np.array([3.0], dtype=np.float32))

    def test_missing_coefficient(self):
        base = _arc({"n": [1.0], "m": [2.0]})
        with pytest.raises(CoeffError):
            linear_combine(base, [base, base], [1.0])

    def test_wrong_length(self):
        base = _arc({"n": [1.0]})
        with pytest.raises(CoeffError):
            linear_combine(base, [base], [1.0, 2.0])

    @pytest.mark.parametrize("coeffs", [[1e300, 0.0], [1.7e308, 1.7e308]])
    def test_overflow_names_the_tensor(self, coeffs):
        # 1e300 overflows only the float32 cast; at 1.7e308 the float64 sum
        # reaches inf and then inf - inf.
        base = _arc({"n": [1.0], "m": [0.5]})
        vectors = [_arc({"n": [0.0], "m": [2.0]}), _arc({"n": [0.0], "m": [-4.0]})]
        with pytest.raises(DataError, match="tensor 'm' overflows float32"):
            linear_combine(base, vectors, coeffs)

    def test_uniform_combination_matches_mean(self):
        rng = np.random.default_rng(3)
        base = _arc({"w": rng.normal(size=16).tolist()})
        fine = [_arc({"w": rng.normal(size=16).tolist()}) for _ in range(3)]
        taus = [task_vector(f, base) for f in fine]
        out = linear_combine(base, taus, [1 / 3] * 3)
        mean = np.mean([f.tensors["w"] for f in fine], axis=0)
        np.testing.assert_allclose(out.tensors["w"], mean, atol=1e-7)

    def test_combining_is_additive(self):
        rng = np.random.default_rng(11)
        base = _arc({"w": rng.normal(size=32).tolist()})
        vecs = [_arc({"w": rng.normal(size=32).tolist()}) for _ in range(2)]
        c1, c2 = [0.3, -0.7], [0.2, 0.5]
        via_sum = linear_combine(base, vecs, [a + b for a, b in zip(c1, c2)])
        first = linear_combine(base, vecs, c1)
        second = linear_combine(first, vecs, c2)
        np.testing.assert_allclose(via_sum.tensors["w"], second.tensors["w"], atol=1e-6)
