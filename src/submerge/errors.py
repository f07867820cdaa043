"""Exception types shared across the package, and its boundary with the outside:
`io_boundary` maps OS errors, `write_file` is the one file writer, `decode_json`
reads JSON, `write_json` writes it, `record_digest` hashes the bytes a reader or
writer already holds, and `require_integer` and `require_real` check an outside
scalar.

Every error raised by the library derives from SubmergeError so callers
(and the CLI) can distinguish our failures from genuine bugs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class SubmergeError(Exception):
    """Base class for all library errors."""


class FormatError(SubmergeError):
    """Archive bytes violate the container format."""


class TruncationError(SubmergeError):
    """Archive file ends before the declared payload does."""


class DataError(SubmergeError):
    """Non-finite tensor values at an I/O boundary."""


class CompatError(SubmergeError):
    """Archives disagree on tensor names or shapes."""


class CoeffError(SubmergeError):
    """Combination coefficients missing or of the wrong length."""


class IoError(SubmergeError):
    """Underlying file read/write failure."""


class BindError(SubmergeError):
    """Archive does not supply the parameters a model config requires."""


class InputError(SubmergeError):
    """Invalid tokens, sequence lengths, datasets, or metric arguments."""


class PlanError(SubmergeError):
    """Unknown submodule group or out-of-range head/layer index."""


class SampleError(SubmergeError):
    """Dataset smaller than the requested sample count."""


class DegenerateError(SubmergeError):
    """Every sample was filtered out of a metric or Gram computation."""


class NumericError(SubmergeError):
    """Non-finite values reached the solver."""


class ParamError(SubmergeError):
    """Invalid merge hyperparameter (e.g. drop probability >= 1)."""


class ConfigError(SubmergeError):
    """Invalid run configuration handed to the CLI."""


@contextmanager
def io_boundary(what: str, error: type[SubmergeError] = IoError):
    """An `OSError` raised in the block raises `error` with the message
    `what: reason`, the `OSError` as its cause."""
    try:
        yield
    except OSError as exc:
        raise error(f"{what}: {exc}") from exc


def record_digest(digests: dict | None, path, data: bytes) -> None:
    """If `digests` is given, map `path` to the sha256 of `data`, the bytes
    read from or written to it, so no file is read a second time to hash it."""
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()


def write_file(path, data: bytes, digests: dict | None = None, what: str | None = None) -> None:
    """`data` written to `path` as a new file; `record_digest` records it. Any entry
    already at `path` is unlinked first, so a symlink there is replaced, not followed,
    and a hard link to it keeps the old bytes. Rewriting a file in place (a truncating
    open, or a new file renamed over it) can wait tens of milliseconds on a filesystem
    that flushes a replaced file's data first. An `OSError` raises `IoError` with the
    message `what: reason`, by default `cannot write {path}: reason`."""
    with io_boundary(what or f"cannot write {path}"):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        with open(path, "xb") as fh:
            fh.write(data)
    record_digest(digests, path, data)


def write_json(path: str | Path, payload, digests: dict | None = None) -> None:
    """`payload` written to `path` by `write_file` as indented, sorted-key JSON and
    a newline."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    write_file(path, data, digests)


def decode_json(data: bytes | str, error: type[SubmergeError], context: str):
    """`data` (UTF-8 bytes or text) parsed as JSON. Bytes that are not UTF-8,
    text that is not JSON, nesting too deep for the parser and integers too
    long to convert raise `error` with the message `context: reason`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"{context}: {exc}") from exc


def is_integer(value) -> bool:
    """An int or NumPy integer, and not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite integer (`is_integer`), float or NumPy float; an integer past the
    float range is not finite."""
    try:
        number = is_integer(value) or isinstance(value, (float, np.floating))
        return number and math.isfinite(value)
    except OverflowError:
        return False


def require_integer(
    name: str, value, minimum: int, error: type[Exception], maximum: int | None = None
) -> int:
    """`value` as a Python int if it is an integer (`is_integer`) >= `minimum`,
    and <= `maximum` if one is given, else `error`."""
    if not (is_integer(value) and minimum <= value and (maximum is None or value <= maximum)):
        bound = f">= {minimum}" if maximum is None else f">= {minimum} and <= {maximum}"
        raise error(f"{name} must be an integer {bound}, got {reprlib.repr(value)}")
    return int(value)


def require_real(name: str, value, error: type[Exception]) -> int | float:
    """`value` as a Python int or float if it is a real (`is_real`), else `error`,
    checked before any arithmetic."""
    if not (is_integer(value) or isinstance(value, (float, np.floating))):
        raise error(f"{name} must be a real number, got {reprlib.repr(value)}")
    if not is_real(value):
        raise error(f"{name} must be finite, got {reprlib.repr(value)}")
    return int(value) if is_integer(value) else float(value)
