"""A fixed piece of work, timed between jobs, that tracks the machine's speed.

On a VM that shares its host, the same job runs up to 1.6x slower for
minutes at a time, and a run's median job time follows those spells more
than the program. The probe runs the kinds of work the fx3 jobs spend their
time on: small-array NumPy kernels shaped like one attention layer, a
stream over arrays larger than the last-level cache, and a pure-Python loop.
Its time rises and falls with the job's, so `speed_scale` can read a run's
job times at one machine speed.

The probe is the benchmark's own code and imports nothing from `submerge`,
so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# A typical probe time on the machine the benchmark was defined on (2-core
# VM, 1 BLAS thread; run means of 0.18 s to 0.46 s). A run whose probes
# average this is left as measured.
PROBE_REF_S = 0.25
# Jobs swing less than the probe when the machine's speed changes. Over two
# sets of ten runs per workload, 0.7 kept both the run-to-run spread and the
# shift between the sets low on both workloads (README.md, "Why the times
# are scaled").
PROBE_EXPONENT = 0.7

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 64))
_W = _rng.standard_normal((64, 64)) / 8
_COS = np.cos(_rng.standard_normal((32, 4)))
_SIN = np.sin(_rng.standard_normal((32, 4)))
_MASK = np.triu(np.full((32, 32), -np.inf), 1)
# Three float64 arrays of 16 MB, written once here so that no probe pays
# for first-touch page faults.
_A = _rng.standard_normal(2_000_000)
_B = _rng.standard_normal(2_000_000)
_OUT = _A + _B


def _kernels() -> None:
    for _ in range(160):
        h = _X / np.sqrt((_X * _X).mean(-1, keepdims=True) + 1e-6)
        q, k, v = h @ _W, h @ _W.T, h @ _W
        for i in range(0, 64, 8):
            rotated = []
            for x in (q[:, i : i + 8], k[:, i : i + 8]):
                x1, x2 = x[:, :4], x[:, 4:]
                rotated.append(np.concatenate([x1 * _COS - x2 * _SIN, x1 * _SIN + x2 * _COS], -1))
            s = rotated[0] @ rotated[1].T / np.sqrt(8) + _MASK
            s = np.exp(s - s.max(-1, keepdims=True))
            (s / s.sum(-1, keepdims=True)) @ v[:, i : i + 8]


def _stream() -> None:
    for _ in range(18):
        np.add(_A, _B, out=_OUT)
        _OUT.sum()


def _interpreter() -> None:
    counts: dict[int, int] = {}
    for i in range(450_000):
        counts[i & 255] = counts.get(i & 255, 0) + i * 3 % 7


def speed_probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    _kernels()
    _stream()
    _interpreter()
    return time.perf_counter() - start


def speed_scale(probes: list[float]) -> float:
    """Factor that reads a run's samples at the speed where the probe takes PROBE_REF_S."""
    return (PROBE_REF_S / (sum(probes) / len(probes))) ** PROBE_EXPONENT
