"""Bit-exact container for named float32 tensors plus string metadata.

File layout (version 1): bytes 0..7 hold the header length as a
little-endian u64; the UTF-8 JSON header follows; the raw payload starts
immediately after. The header is minified JSON with sorted keys:

    {"tensors": {name: {"dtype": "f32", "shape": [...],
                        "offsets": [begin, end]}},
     "meta": {...}}

Offsets are byte positions relative to the payload start. Tensors are
stored row-major little-endian f32, in lexicographic name order with no
gaps, so a given archive always serializes to the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CoeffError, CompatError, DataError, FormatError, TruncationError
from .errors import decode_json, io_boundary, is_integer, record_digest

_HEADER_PREFIX = struct.Struct("<Q")
_DTYPE_TAG = "f32"
_ITEM_SIZE = 4


@dataclass(frozen=True)
class TensorArchive:
    """Named float32 tensors with string metadata, kept in name order. Construction, the one
    check, copies each tensor to float32, raises FormatError for a non-positive extent and
    DataError naming the first that is not finite, and leaves the archive read-only."""

    tensors: Mapping[str, np.ndarray]
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ordered: dict[str, np.ndarray] = {}
        # Overflow to inf in the cast is reported below, by tensor name.
        with np.errstate(over="ignore"):
            for name in sorted(self.tensors):
                if not isinstance(name, str) or not name:
                    raise FormatError(f"tensor name must be a non-empty string, got {name!r}")
                arr = np.array(self.tensors[name], dtype=np.float32, order="C", ndmin=1)
                if any(extent <= 0 for extent in arr.shape):
                    raise FormatError(f"tensor {name!r} has a non-positive extent {arr.shape}")
                if not np.isfinite(arr).all():
                    raise DataError(f"tensor {name!r} overflows float32 or is not finite")
                arr.setflags(write=False)
                ordered[name] = arr
        meta = dict(self.meta)
        for key, value in meta.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise FormatError("meta must map strings to strings")
        object.__setattr__(self, "tensors", MappingProxyType(ordered))
        object.__setattr__(self, "meta", MappingProxyType(meta))

    def __reduce__(self):
        """Pickle and copy through the constructor; a mappingproxy cannot be pickled."""
        return TensorArchive, (dict(self.tensors), dict(self.meta))

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: arr.shape for name, arr in self.tensors.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorArchive):
            return NotImplemented
        if self.meta != other.meta or list(self.tensors) != list(other.tensors):
            return False
        return all(map(np.array_equal, self.tensors.values(), other.tensors.values()))


def archive_bytes(archive: TensorArchive) -> bytes:
    """Canonical serialization; equal archives yield identical bytes."""
    entries: dict[str, dict] = {}
    chunks: list[bytes] = []
    cursor = 0
    for name, arr in archive.tensors.items():
        raw = arr.astype("<f4", copy=False).tobytes(order="C")
        entries[name] = {
            "dtype": _DTYPE_TAG,
            "shape": [int(extent) for extent in arr.shape],
            "offsets": [cursor, cursor + len(raw)],
        }
        chunks.append(raw)
        cursor += len(raw)
    header = json.dumps(
        {"tensors": entries, "meta": dict(archive.meta)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _HEADER_PREFIX.pack(len(header)) + header + b"".join(chunks)


def archive_digest(archive: TensorArchive) -> str:
    return hashlib.sha256(archive_bytes(archive)).hexdigest()


def write_archive(archive: TensorArchive, path, digests: dict | None = None) -> None:
    """The canonical bytes of `archive` written to `path`; `record_digest` records them."""
    data = archive_bytes(archive)
    with io_boundary(f"cannot write archive to {path}"), open(path, "wb") as fh:
        fh.write(data)
    record_digest(digests, path, data)


def _parse_header(blob: bytes) -> tuple[dict, bytes]:
    if len(blob) < _HEADER_PREFIX.size:
        raise FormatError("file too short to hold a header length")
    (header_len,) = _HEADER_PREFIX.unpack_from(blob)
    body = blob[_HEADER_PREFIX.size :]
    if len(body) < header_len:
        raise TruncationError("header truncated")
    header = decode_json(body[:header_len], FormatError, "malformed JSON header")
    if not isinstance(header, dict) or set(header) != {"tensors", "meta"}:
        raise FormatError("header must contain exactly 'tensors' and 'meta'")
    return header, body[header_len:]


def read_archive(path, digests: dict | None = None) -> TensorArchive:
    """The archive in the file at `path`; `record_digest` records the bytes parsed."""
    with io_boundary(f"cannot read archive from {path}"), open(path, "rb") as fh:
        blob = fh.read()
    record_digest(digests, path, blob)
    header, payload = _parse_header(blob)

    entries = header["tensors"]
    meta = header["meta"]
    if not isinstance(entries, dict):
        raise FormatError("'tensors' must be an object")
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise FormatError("'meta' must map strings to strings")

    tensors: dict[str, np.ndarray] = {}
    cursor = 0
    for name in sorted(entries):
        entry = entries[name]
        if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "offsets"}:
            raise FormatError(f"tensor entry {name!r} has unexpected fields")
        if entry["dtype"] != _DTYPE_TAG:
            raise FormatError(f"tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        shape, offsets = entry["shape"], entry["offsets"]
        if not isinstance(shape, list) or not all(is_integer(n) and n > 0 for n in shape):
            raise FormatError(f"tensor {name!r} has invalid shape {shape!r}")
        if not (isinstance(offsets, list) and len(offsets) == 2) or not all(
            is_integer(o) and o >= 0 for o in offsets
        ):
            raise FormatError(f"tensor {name!r} has invalid offsets {offsets!r}")
        begin, end = offsets
        if begin != cursor:
            raise FormatError(f"tensor {name!r} breaks the gapless lexicographic layout")
        if end - begin != _ITEM_SIZE * math.prod(shape):
            raise FormatError(f"tensor {name!r} offsets disagree with its shape")
        if end > len(payload):
            raise TruncationError(f"tensor {name!r} ends past the payload")
        tensors[name] = np.frombuffer(payload[begin:end], dtype="<f4").reshape(shape)
        cursor = end
    if cursor != len(payload):
        raise FormatError("payload has trailing bytes past the last tensor")
    return TensorArchive(tensors=tensors, meta=meta)


def require_compatible(
    a: TensorArchive | TaskVector, b: TensorArchive | TaskVector, what: str
) -> None:
    """Raise CompatError, naming a tensor that differs, unless `a` and `b` have equal shapes."""
    ours, theirs = a.shapes(), b.shapes()
    if ours == theirs:
        return
    missing = sorted(set(ours) ^ set(theirs))
    if missing:
        raise CompatError(f"{what}: tensor names differ, e.g. {missing[:3]}")
    off = next(n for n in ours if ours[n] != theirs[n])
    raise CompatError(f"{what}: tensor {off!r} shapes differ ({ours[off]} vs {theirs[off]})")


class _Differences(Mapping[str, np.ndarray]):
    """fine[n] - base[n] in float32 for every name n of `base`, computed on each read."""

    def __init__(self, fine: Mapping[str, np.ndarray], base: Mapping[str, np.ndarray]) -> None:
        self._fine, self._base = fine, base

    def __getitem__(self, name: str) -> np.ndarray:
        return self._fine[name] - self._base[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: arr.shape for name, arr in self._base.items()}


@dataclass(frozen=True, eq=False)
class TaskVector:
    """A read-only view fine_tuned - base of two compatible archives, in name order.

    It holds no array of its own: `tensors[n]` computes the float32 difference
    each time it is read, so a task vector costs no memory beyond its two
    archives. `meta` is the base's plus `kind: task_vector`.
    """

    tensors: _Differences
    meta: Mapping[str, str]

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return self.tensors.shapes()


def task_vector(fine_tuned: TensorArchive, base: TensorArchive) -> TaskVector:
    """The view fine_tuned - base. Every difference is checked once here, in name order,
    and discarded; one that overflows float32 raises DataError naming the tensor."""
    require_compatible(fine_tuned, base, "task_vector")
    tensors = _Differences(fine_tuned.tensors, base.tensors)
    # Overflow to inf is reported here, by tensor name; a difference that is
    # finite once is finite on every later read, so reads need no errstate.
    with np.errstate(over="ignore"):
        for name, diff in tensors.items():
            if not np.isfinite(diff).all():
                raise DataError(f"tensor {name!r} overflows float32 or is not finite")
    return TaskVector(tensors, MappingProxyType({**base.meta, "kind": "task_vector"}))


def combine(base: np.ndarray, terms: Sequence[np.ndarray], coeffs: Sequence[float]) -> np.ndarray:
    """base + sum_t coeffs[t] * terms[t] in float64, accumulated in that order: the one
    weighted sum of every merge, over whole tensors or owned parameter slices."""
    out = np.array(base, dtype=np.float64)
    for coeff, term in zip(coeffs, terms, strict=True):
        out += float(coeff) * np.asarray(term, dtype=np.float64)
    return out


def linear_combine(
    base: TensorArchive, vectors: Sequence[TensorArchive | TaskVector], coeffs: Sequence[float]
) -> TensorArchive:
    """out[n] = base[n] + sum_t coeffs[t] * vectors[t][n] for every name n.

    Accumulates in float64 and rounds once back to f32. A tensor that leaves
    the float32 range raises DataError naming it.
    """
    for t, vec in enumerate(vectors):
        require_compatible(vec, base, f"linear_combine vector {t}")
    if len(coeffs) != len(vectors):
        raise CoeffError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    # The float64 sum can overflow too (inf, then inf - inf); the archive names the tensor.
    with np.errstate(over="ignore", invalid="ignore"):
        tensors = {
            name: combine(arr, [vec.tensors[name] for vec in vectors], coeffs)
            for name, arr in base.tensors.items()
        }
    return TensorArchive(tensors=tensors, meta=base.meta)
