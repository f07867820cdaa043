"""Closed-loop measurement of one workload, its output checks, and its report.

One process runs one job after another through `submerge.cli.main`. The
first job is a warm-up that also serves as the peak-memory pass (under
tracemalloc); the timed jobs that follow run with tracing and tracemalloc
off, and their times are scaled by a speed probe timed between them.
A traced run (--trace 1) alternates plain and traced jobs so that the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import scipy

from submerge import cli
from submerge.errors import SubmergeError
from submerge.fixtures import gen_fixture
from probe import PROBE_EXPONENT, PROBE_REF_S, speed_probe, speed_scale
from spans import MB, PER_LAYER, Tracer, layer_metrics
from workloads import (
    FIXTURE_SEEDS,
    QUALITY_MERGE,
    SMOKE_FIXTURE,
    SMOKE_SAMPLES,
    WORKLOADS,
    Workload,
    cli_argv,
    digests,
    fixture_spec,
    job_outputs,
    mean_loss,
    mismatches,
    reference_key,
)

END_TO_END = [
    ("job_s", "s"),
    ("peak_mem_mb", "MB"),
    ("merged_loss", "nats"),
    ("setup_s", "s"),
]
MIN_TIMED_JOBS = 3
# gen_fixture takes under a tenth of a job, so each job gets two set-up samples.
SETUPS_PER_JOB = 2
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_job(fn) -> tuple[int, float]:
    """Run one CLI job (a zero-argument callable); returns (exit code, seconds)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = fn()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing job is counted as failed, and the run goes on
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


class Checker:
    """Counts jobs and checks each one's outputs against the reference."""

    def __init__(self, workload: Workload, fixture: str, seed: int, fixture_dir: Path):
        self.workload = workload
        self.fixture_dir = fixture_dir
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.expected = references.get(reference_key(workload.name, fixture, seed))
        self.attempted = 0
        self.failed = 0
        self.losses: list[float] = []
        self.digests_match: dict[str, bool] = {}

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:5]:
            print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)

    def job(self, code: int, out_dir: Path) -> None:
        self.attempted += 1
        if code != 0:
            return self._fail([f"exit code {code}"])
        if self.expected is None:
            return self._fail(["no reference values recorded for this fixture"])
        try:
            outputs = job_outputs(self.workload, out_dir, self.fixture_dir)
            found = digests(self.workload, out_dir)
        except (OSError, KeyError, ValueError, SubmergeError) as exc:
            return self._fail([f"unreadable outputs: {exc!r}"])
        for name, digest in found.items():
            same = digest == self.expected["digests"][name]
            self.digests_match[name] = self.digests_match.get(name, True) and same
        problems = mismatches(outputs, self.expected["outputs"])
        if problems:
            return self._fail(problems)
        if "merged_loss" in outputs:
            self.losses.append(outputs["merged_loss"])

    def quality(self, code: int, out_dir: Path) -> None:
        """The untimed merge that gives analyze_sweep its merged_loss."""
        self.attempted += 1
        if code != 0:
            return self._fail([f"quality merge exit code {code}"])
        if self.expected is None:
            return self._fail(["no reference values recorded for this fixture"])
        try:
            loss = mean_loss(out_dir / "merged.ta", self.fixture_dir)
        except (OSError, SubmergeError) as exc:
            return self._fail([f"unreadable quality merge: {exc!r}"])
        problems = mismatches(loss, self.expected["merged_loss"], "merged_loss")
        if problems:
            return self._fail(problems)
        self.losses.append(loss)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: int, work: Path,
            fixture: str | None = None, samples: int | None = None,
            min_jobs: int | None = None) -> dict:
    """One run of one workload; returns the result record.

    At least `min_jobs` timed jobs run (default MIN_TIMED_JOBS, or one
    plain/traced pair in a traced run). After those, another job starts only
    if it would end within `seconds`, taking it to be as long as the last.
    """
    if min_jobs is None:
        min_jobs = MIN_TIMED_JOBS if trace == 0 else 1
    fixture = fixture or workload.fixture
    spec = fixture_spec(fixture, seed)
    fixture_dir, out_dir = work / "fixture", work / "out"

    def setup(target: Path) -> float:
        start = time.perf_counter()
        gen_fixture(spec, target)
        return time.perf_counter() - start

    setup(fixture_dir)
    argv = workload.argv(fixture_dir, out_dir, seed, samples)
    checker = Checker(workload, fixture, seed, fixture_dir)
    record = {
        "workload": workload.name,
        "seed": seed,
        "fixture": fixture,
        "fixture_seed": seed % FIXTURE_SEEDS,
        "fixture_spec": spec.to_json_dict(),
        "argv": argv,
        "trace": trace,
        "seconds": seconds,
        "env": environment(),
    }

    if trace == 0:
        tracemalloc.start()
        code, _ = run_job(lambda: cli.main(argv))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        checker.job(code, out_dir)
        times: list[float] = []
        setup_times: list[float] = []
        probes = [speed_probe()]
        start, step = time.perf_counter(), 0.0
        while len(times) < min_jobs or time.perf_counter() - start + step <= seconds:
            step_start = time.perf_counter()
            # Set-up samples are spread over the run like the job samples, so
            # that both means see the same spells of a shared machine.
            setup_times += [setup(work / "setup") for _ in range(SETUPS_PER_JOB)]
            code, elapsed = run_job(lambda: cli.main(argv))
            times.append(elapsed)
            checker.job(code, out_dir)
            probes.append(speed_probe())
            step = time.perf_counter() - step_start
        if workload.args[0] == "analyze":
            quality_dir = work / "quality"
            quality_argv = cli_argv(QUALITY_MERGE, fixture_dir, quality_dir, seed, samples or workload.samples_per_task)
            code, _ = run_job(lambda: cli.main(quality_argv))
            checker.quality(code, quality_dir)
        # Means, not medians: the machine flips between two speeds many times
        # within one job, and the mean follows the share of time spent slow,
        # which the probe measures, where a median of a few jobs jumps
        # between the two speeds. A mean job time is also the run's
        # throughput, inverted.
        scale = speed_scale(probes)
        values = {
            "job_s": statistics.fmean(times) * scale,
            "peak_mem_mb": peak / MB,
            "merged_loss": _median(checker.losses),
            "setup_s": statistics.fmean(setup_times) * scale,
        }
        units = dict(END_TO_END)
        record["job_times_s"] = times
        record["setup_times_s"] = setup_times
        record["probe_times_s"] = probes
        record["scale"] = scale
    else:
        code, _ = run_job(lambda: cli.main(argv))
        checker.job(code, out_dir)
        tracer = Tracer()
        plain: list[float] = []
        traced: list[float] = []
        start, step = time.perf_counter(), 0.0
        while len(traced) < min_jobs or time.perf_counter() - start + step <= seconds:
            step_start = time.perf_counter()
            code, elapsed = run_job(lambda: cli.main(argv))
            plain.append(elapsed)
            checker.job(code, out_dir)
            job = len(traced)
            with tracer.installed():
                code, elapsed = run_job(lambda: tracer.call(job, cli.main, argv))
            traced.append(elapsed)
            checker.job(code, out_dir)
            step = time.perf_counter() - step_start
        per_job = [layer_metrics(tracer.job_totals(job)) for job in range(len(traced))]
        values = {name: _median([m[name] for m in per_job]) for name, _ in PER_LAYER}
        values["trace.overhead_ratio"] = _median(traced) / _median(plain)
        units = dict(PER_LAYER)
        record["plain_job_times_s"] = plain
        record["traced_job_times_s"] = traced
        record["spans"] = len(tracer.spans)
        tracer.write(work.parent / "traces" / f"{workload.name}-{fixture}-seed{seed}.json")

    record["metrics"] = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["correct"] = checker.correct
    record["error_rate"] = checker.failed / checker.attempted
    record["digests_match"] = checker.digests_match
    return record


def report(record: dict) -> None:
    """Human-readable lines; the caller prints the JSON result line last."""
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"fixture {record['fixture']} (seed {record['fixture_seed']}): {json.dumps(record['fixture_spec'], sort_keys=True)}")
    print(f"workload {record['workload']}, seed {record['seed']}, trace {record['trace']}, "
          f"closed loop of one client, {record['seconds']:g} s measured")
    if record["trace"] == 0:
        times, setups, probes = record["job_times_s"], record["setup_times_s"], record["probe_times_s"]
        print(f"  job_s sample count: {len(times)} timed jobs after 1 warm-up; unscaled wall mean "
              f"{statistics.fmean(times):.4f} s, median {_median(times):.4f} s "
              f"(min {min(times):.4f} s, max {max(times):.4f} s)")
        print(f"  setup_s sample count: {len(setups)} fixture generations, {SETUPS_PER_JOB} before "
              f"each timed job; unscaled mean {statistics.fmean(setups):.4f} s")
        print(f"  speed probe: {len(probes)} samples, one before the first job and one after each, "
              f"mean {statistics.fmean(probes):.4f} s; scale {record['scale']:.4f} "
              f"(1 at {PROBE_REF_S} s, exponent {PROBE_EXPONENT})")
    else:
        print(f"  {len(record['traced_job_times_s'])} traced and {len(record['plain_job_times_s'])} "
              f"plain jobs, {record['spans']} spans")
    for name, metric in record["metrics"].items():
        label = " (computed from shapes)" if name.startswith("model.forward_pass.gflop") else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{label}")
    print(f"  error_rate = {record['failed']}/{record['attempted']} = {record['error_rate']:g}")
    for name, same in sorted(record["digests_match"].items()):
        print(f"  sha256 of {name}: {'matches' if same else 'DIFFERS from'} the recorded reference (information only)")


def _work_dir(root: Path, label: str) -> Path:
    return root / ".perfbench_work" / f"{label}-{os.getpid()}"


def bench(root: Path, name: str, seed: int, seconds: float, trace: int) -> int:
    work = _work_dir(root, f"{name}-seed{seed}-trace{trace}")
    try:
        record = measure(WORKLOADS[name], seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = work.parent / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    report(record)
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0


def smoke(root: Path, seed: int) -> int:
    """Every workload in both modes on the tiny fixture with the fewest jobs.

    Checks that each run emits exactly the metrics BENCHMARK.json names, with
    their units, and that no job failed.
    """
    contract = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in contract["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name, workload in WORKLOADS.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            work = _work_dir(root, f"smoke-{name}-trace{trace}")
            try:
                record = measure(workload, seed, 0.0, trace, work, SMOKE_FIXTURE, SMOKE_SAMPLES, 1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            wanted = {m["name"]: m["unit"] for m in contract[section]}
            got = {key: metric["unit"] for key, metric in record["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(wanted))} differ")
            if record["failed"] or not record["correct"]:
                problems.append(f"{name} trace {trace}: error_rate {record['error_rate']:g}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics, "
                  f"error_rate {record['failed']}/{record['attempted']}")
    for problem in problems:
        print(f"smoke failed: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0
