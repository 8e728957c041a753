"""glaug benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed drives `generate_synthetic`; glaug
itself only sees the TUDataset files written from it. The workload is
measured in a child process with BLAS pinned to one thread (the README's
one-core-per-fold contract), so its peak memory is its own. The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one glaug benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _run_child(cmd: list[str], env: dict, timeout: float) -> int:
    """Run cmd in its own process group and stop the whole group when it
    exits or times out."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # also stops fold workers left behind
        except ProcessLookupError:
            pass
        proc.wait()


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse_args(argv)
    if not (SRC / "glaug" / "__init__.py").is_file():
        print(f"error: glaug source tree not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import workloads  # imports glaug from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        (work / "data").mkdir()
        workloads.generate(workload, args.seed, work / "data")
        env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
        cmd = [
            sys.executable, str(BENCH / "workloads.py"),
            "--workload", args.workload, "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = _run_child(cmd, env, TIME_LIMIT_S - (time.monotonic() - started))
        if code != 0:
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
