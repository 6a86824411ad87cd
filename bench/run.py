"""Benchmark of the ``hinterland`` package: solve, enumerate and multistart.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

Each workload runs in a worker process of its own (``worker.py``), one at a
time, with the package imported from ``src/``. The worker's inputs are
generated from ``--seed`` (``workloads.py``). Set-up time is measured from
process start to the worker's ``ready`` line, SETUP_SAMPLES times after
one untimed set-up that fills the file cache and ``__pycache__``, and
reported as the median. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics derived from the spans of ``tracer.py``, and the spans
are written to ``.bench_work/``. The command exits nonzero, without a JSON
result, when an output check fails or the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve", "enumerate", "multistart")
SETUP_SAMPLES = 5
# One workload must end within 180 s. Its workers are killed at this many
# seconds after it started, so an overrun ends as an error, not as a
# process left behind.
WORKLOAD_LIMIT_S = 175.0

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Worker:
    """A worker process whose start-to-ready time is the set-up time."""

    def __init__(self, root: Path, argv: list[str], deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=root,
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise BenchError(f"worker did not get ready: {line!r}")

    def finish(self) -> str:
        """Wait for the worker; returns its remaining standard output."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"workload did not end within "
                             f"{WORKLOAD_LIMIT_S:g} s") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: int) -> dict:
    work = root / ".bench_work" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    argv = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--work", str(work / "ops"),
            "--spans", str(work / "spans.jsonl")]
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    setups = []
    for _ in range(SETUP_SAMPLES):
        worker = Worker(root, argv + ["--setup-only"], deadline)
        worker.finish()
        setups.append(worker.setup_s)
    # the first set-up of a checkout also compiles the sources; not counted
    setups = setups[1:]
    worker = Worker(root, argv, deadline)
    setups.append(worker.setup_s)
    lines = worker.finish().strip().splitlines()
    shutil.rmtree(work / "ops", ignore_errors=True)
    summary = json.loads(lines[-1])
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples"] = len(setups)
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary


def report(name: str, summary: dict, trace: int) -> dict:
    """Print the human-readable lines; return the metrics of the result."""
    env = summary["environment"]
    print(f"[{name}] python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}")
    print(f"[{name}] setup_s {summary['setup_s']:.4f} s "
          f"(median of {summary['setup_samples']})")
    print(f"[{name}] wall_s {summary['wall_s']:.4f} s over "
          f"{summary['ops']} ops; op_p50_s {summary['op_p50_s']:.4f} s "
          f"(n={summary['ops']}); op_max_s {summary['op_max_s']:.4f} s")
    print(f"[{name}] fail_ratio {summary['fail_ratio']:.4f}; "
          f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"[{name}] exit codes {summary['exit_codes']}")
    if any(summary["details"]):
        print(f"[{name}] per-op details {summary['details']}")
    for violation in summary["violations"]:
        print(f"[{name}] CHECK FAILED: {violation}")
    if not trace:
        return {key: {"value": summary[key], "unit": unit}
                for key, unit in END_TO_END.items()}
    shares = ", ".join(f"{k} {v:.1%}" for k, v in summary["shares"].items())
    print(f"[{name}] traced time shares: {shares}")
    for key, value in summary["layers"].items():
        print(f"[{name}] {key} = {value}")
    return {key: {"value": value, "unit": tracer.unit_of(key)}
            for key, value in summary["layers"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded solve / enumerate / multistart benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hinterland" / "__init__.py").is_file():
        print("error: run from the repository root; src/hinterland is "
              "missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            summary = run_workload(root, name, args.seed, args.seconds,
                                   args.trace)
            result = report(name, summary, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in result.items()})
            attempted += summary["ops"]
            failed += len(summary["violations"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failed:
        print(f"error: {failed} output check(s) failed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
