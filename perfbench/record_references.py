"""Record the reference outputs that benchmark jobs are checked against.

    python3 perfbench/record_references.py

Runs every workload once per fixture seed (0 .. FIXTURE_SEEDS-1), on its own
fixture and on the smoke fixture, and writes perfbench/references.json. Run
it only when a change to the program's outputs is intended and explained;
the benchmark then checks later commits against the new values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BLAS_THREADS, ROOT, SRC, THREAD_VARS


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from harness import REFERENCES, run_job
    from submerge import cli
    from submerge.fixtures import gen_fixture
    from workloads import (
        FIXTURE_SEEDS, QUALITY_MERGE, SMOKE_FIXTURE, SMOKE_SAMPLES, WORKLOADS,
        cli_argv, digests, fixture_spec, job_outputs, mean_loss, reference_key,
    )

    work = ROOT / ".perfbench_work" / f"references-{os.getpid()}"
    fixture_dir, out_dir, quality_dir = work / "fixture", work / "out", work / "quality"
    references = {}
    try:
        for workload in WORKLOADS.values():
            for fixture, samples in ((workload.fixture, workload.samples_per_task), (SMOKE_FIXTURE, SMOKE_SAMPLES)):
                for seed in range(FIXTURE_SEEDS):
                    gen_fixture(fixture_spec(fixture, seed), fixture_dir)
                    argv = workload.argv(fixture_dir, out_dir, seed, samples)
                    code, _ = run_job(lambda: cli.main(argv))
                    if code != 0:
                        raise SystemExit(f"{workload.name} on {fixture} seed {seed} exited {code}")
                    entry = {
                        "outputs": job_outputs(workload, out_dir, fixture_dir),
                        "digests": digests(workload, out_dir),
                    }
                    if workload.args[0] == "analyze":
                        quality = cli_argv(QUALITY_MERGE, fixture_dir, quality_dir, seed, samples)
                        code, _ = run_job(lambda: cli.main(quality))
                        if code != 0:
                            raise SystemExit(f"quality merge on {fixture} seed {seed} exited {code}")
                        entry["merged_loss"] = mean_loss(quality_dir / "merged.ta", fixture_dir)
                    references[reference_key(workload.name, fixture, seed)] = entry
                    print(f"recorded {reference_key(workload.name, fixture, seed)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
