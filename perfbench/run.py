"""Run one workload of the cld benchmark and print its metrics.

    python3 perfbench/run.py --workload train_serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every step runs in a fresh Python process
with BLAS pinned to one thread and cld imported from the checkout's src/:

1. set-up, five times: import cld and write the workload's inputs (with
   ``--trace 1`` only once, since set-up time is not reported there);
2. the measured run: train, verify, save, reload and serve, checking every
   output (``perfbench/workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a run with every cld function
wrapped in a span. Details of the last run of each workload and seed
(sample counts, percentiles, checks, environment, spans) are kept under
``.perfbench_work/``. Exits non-zero, without a result line, when a step
fails or cld's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_serve", "oracle_small", "exact_enum")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0   # whole run, set-up included


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def step(argv, deadline: float, capture: bool) -> str:
    """Run one child to completion and return its stdout.

    SystemExit if it fails or overruns. The wait blocks in waitpid rather
    than polling (as a wait with a timeout does, in 50 ms steps), so the
    caller can time the child to the microsecond; a timer kills it at the
    deadline instead.
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), kill)
    timer.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        timer.cancel()
    if expired.is_set():
        raise SystemExit(f"perfbench: {argv[0]} overran the {TIME_LIMIT_S:.0f}s limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {argv[0]} failed with exit code {proc.returncode}")
    return stdout or ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cld benchmark: run one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "cld" / "__init__.py").is_file():
        print(f"perfbench: no cld source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]

    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        step(["setup", *common], deadline, capture=False)
        setup_s.append(time.perf_counter() - t0)

    stdout = step(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline, capture=True)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit("perfbench: the workload printed no result line")
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                             **result["metrics"]}
    report = json.loads((work / "report.json").read_text())
    for path in work.iterdir():   # keep the report and spans, not the inputs
        if path.name not in ("report.json", "spans.jsonl"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for failure in report["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
