"""One workload of the benchmark, in its own process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
The worker imports the package, prepares the workload's cycle of inputs
and prints ``ready``; the parent times that as set-up. With
``--setup-only`` it exits there. Otherwise it runs the workload as a closed
loop with a single client and prints one JSON summary line.

Operation ``i`` runs input ``i % cycle``, so every run measures the same
seeded inputs whatever its speed. Untraced runs repeat whole cycles until
``--seconds`` have passed (at least one). Traced runs execute a fixed
number of cycles twice, first untraced and then under the span tracer, so
that every count repeats exactly for a seed and the two passes give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from hinterland import analysis, cli
from hinterland.config import load_config

import tracer
import workloads

# The damped iteration stops once a step is below ``tol``; the tests accept
# recovered residuals up to 1e4·tol (weights 1e-8 at tol 1e-12).
RESIDUAL_FACTOR = 1e4
POPULATION_TOL = 1e-12
EXIT_FOR_ERROR = {"NotConverged": 2, "LeftFeasibleSet": 3}


@dataclass
class Outcome:
    """What one operation did, as seen from outside the package."""

    exit_code: int
    solves: int = 1
    solve_failures: int = 0
    violations: list[str] = field(default_factory=list)
    detail: str | None = None


def _quiet_main(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _write_yaml(path: Path, config: dict) -> Path:
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# workloads: prepare (untimed), run (timed), check (untimed)

class SolveWorkload:
    cycle = workloads.SOLVE_CYCLE
    trace_cycles = 1

    def prepare(self, seed, index, work: Path):
        return _write_yaml(work / f"solve-{index}.yaml",
                           workloads.solve_config(seed, index))

    def run(self, config_path, out: Path):
        return _quiet_main(["solve", "--config", str(config_path),
                            "--out", str(out)])

    def check(self, config_path, code, out: Path) -> Outcome:
        if code == 0:
            doc = json.loads((out / "solution.json").read_text())
            return Outcome(0, violations=_check_solution(doc))
        if code in EXIT_FOR_ERROR.values():
            diag = out / "diagnostics.json"
            if not diag.exists():
                return Outcome(code, 1, 1, ["no diagnostics.json"])
            error = json.loads(diag.read_text())["error"]["type"]
            bad = ([] if EXIT_FOR_ERROR.get(error) == code
                   else [f"exit {code} with error {error}"])
            return Outcome(code, 1, 1, bad)
        return Outcome(code, 1, 1, [f"unexpected exit code {code}"])


def _check_solution(doc) -> list[str]:
    bad = []
    tol = doc["solver"]["tol"]
    for key in ("weights", "market"):
        if not doc["residuals"][key] <= RESIDUAL_FACTOR * tol:
            bad.append(f"{key} residual {doc['residuals'][key]!r} above "
                       f"{RESIDUAL_FACTOR:g}·tol")
    if not doc["residuals"]["population"] <= POPULATION_TOL:
        bad.append(f"population residual {doc['residuals']['population']!r}")
    total = doc["params"]["total_labor"]
    if not abs(math.fsum(doc["labor"]) - total) <= POPULATION_TOL * total:
        bad.append(f"labor sums to {math.fsum(doc['labor'])!r}, not {total!r}")
    if not doc["converged"]:
        bad.append("solution.json says not converged")
    return bad


class EnumerateWorkload:
    cycle = workloads.ENUMERATE_CYCLE
    trace_cycles = 1

    def prepare(self, seed, index, work: Path):
        return _write_yaml(work / f"enumerate-{index}.yaml",
                           workloads.enumerate_config(seed, index))

    def run(self, config_path, out: Path):
        return _quiet_main(["enumerate", "--config", str(config_path),
                            "--out", str(out)])

    def check(self, config_path, code, out: Path) -> Outcome:
        n_subsets = sum(math.comb(workloads.ENUMERATE_SITES, k)
                        for k in workloads.ENUMERATE_SIZES)
        if code != 0:
            return Outcome(code, n_subsets, n_subsets,
                           [f"unexpected exit code {code}"])
        doc = json.loads((out / "catalog.json").read_text())
        bad = []
        listed = len(doc["entries"]) + len(doc["rejected"]) + len(doc["failures"])
        # duplicates of a kept equilibrium are dropped from the catalog
        if listed > n_subsets:
            bad.append(f"catalog lists {listed} of {n_subsets} subsets")
        total = doc["params"]["total_labor"]
        for entry in doc["entries"]:
            if not abs(math.fsum(entry["labor"]) - total) <= POPULATION_TOL * total:
                bad.append(f"labor of {entry['subset']} sums to "
                           f"{math.fsum(entry['labor'])!r}")
        return Outcome(0, n_subsets, len(doc["failures"]), bad,
                       detail=f"{len(doc['entries'])} sustainable")


class MultistartWorkload:
    cycle = workloads.MULTISTART_CYCLE
    trace_cycles = 2

    def prepare(self, seed, index, work: Path):
        config, args = workloads.multistart_inputs(seed, index)
        run_config = load_config(_write_yaml(
            work / f"multistart-{index}.yaml", config))
        return run_config.require_geography(), run_config.require_params(), args

    def run(self, prepared, out: Path):
        geography, params, args = prepared
        return analysis.multistart_probe(geography, params, **args)

    def check(self, prepared, report, out: Path) -> Outcome:
        n_starts = prepared[2]["n_starts"]
        out.mkdir(parents=True, exist_ok=True)
        (out / "probe.json").write_text(json.dumps({
            "clusters": [{"representative": c.representative.tolist(),
                          "count": c.count, "residual": c.residual,
                          "welfare": c.welfare} for c in report.clusters],
            "n_converged": report.n_converged,
            "failures": [list(f) for f in report.failures]},
            sort_keys=True))
        bad = []
        if report.n_converged + len(report.failures) != n_starts:
            bad.append(f"{report.n_converged} converged + "
                       f"{len(report.failures)} failed != {n_starts} starts")
        if sum(c.count for c in report.clusters) != report.n_converged:
            bad.append("cluster counts do not add up to n_converged")
        return Outcome(0, n_starts, len(report.failures), bad,
                       detail=f"{report.n_converged}/{n_starts} converged, "
                              f"{len(report.clusters)} cluster(s)")


WORKLOADS = {"solve": SolveWorkload, "enumerate": EnumerateWorkload,
             "multistart": MultistartWorkload}


# ---------------------------------------------------------------------------
# running operations

def same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.prepared: dict[int, object] = {}

    def inputs(self, index: int):
        key = index % self.workload.cycle
        if key not in self.prepared:
            self.prepared[key] = self.workload.prepare(self.seed, key,
                                                       self.work)
        return self.prepared[key]

    def op(self, index: int, out: Path):
        """Run one operation; returns (latency_s, outcome)."""
        prepared = self.inputs(index)
        start = time.perf_counter()
        result = self.workload.run(prepared, out)
        latency = time.perf_counter() - start
        return latency, self.workload.check(prepared, result, out)

    def loop(self, indices, tag: str, keep=()):
        """Run operations in order; artifacts of ``keep`` are retained."""
        latencies, outcomes = [], []
        for index in indices:
            out = self.work / f"{tag}-{index}"
            latency, outcome = self.op(index, out)
            latencies.append(latency)
            outcomes.append(outcome)
            if index not in keep:
                shutil.rmtree(out, ignore_errors=True)
        return latencies, outcomes


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def summarize(latencies, outcomes) -> dict:
    solves = sum(o.solves for o in outcomes)
    return {
        "ops": len(latencies),
        "wall_s": math.fsum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_max_s": max(latencies),
        # an operation that fails an output check counts as a failed solve
        "fail_ratio": sum(max(o.solve_failures, bool(o.violations))
                          for o in outcomes) / solves,
        "violations": [v for o in outcomes for v in o.violations],
        "exit_codes": [o.exit_code for o in outcomes],
        "latencies_s": latencies,
        "details": [o.detail for o in outcomes],
    }


def run_untraced(runner: Runner, seconds: float) -> dict:
    cycle = runner.workload.cycle
    # warm-up and reference for the determinism check
    runner.loop([0], "reference", keep=(0,))
    latencies, outcomes = [], []
    start = time.perf_counter()
    index = 0
    while not latencies or time.perf_counter() - start < seconds:
        lat, out = runner.loop(range(index, index + cycle), "op", keep=(0,))
        latencies += lat
        outcomes += out
        index += cycle
    summary = summarize(latencies, outcomes)
    if not same_artifacts(runner.work / "reference-0", runner.work / "op-0"):
        summary["violations"].append("operation 0 is not byte-identical on "
                                     "a rerun")
    return summary


def run_traced(runner: Runner, spans_path: Path) -> dict:
    indices = range(runner.workload.cycle * runner.workload.trace_cycles)
    runner.loop([0], "warmup")
    plain_lat, plain_out = runner.loop(indices, "plain", keep=indices)
    spans = tracer.Tracer()
    spans.install()
    traced_lat, traced_out = [], []
    try:
        for index in indices:
            root = spans.open("bench.op")
            try:
                latency, outcome = runner.op(index, runner.work / f"traced-{index}")
            finally:
                spans.close(root)
            traced_lat.append(latency)
            traced_out.append(outcome)
    finally:
        spans.uninstall()
    spans.dump(str(spans_path))

    summary = summarize(plain_lat, plain_out)
    for index in indices:
        if not same_artifacts(runner.work / f"plain-{index}",
                              runner.work / f"traced-{index}"):
            summary["violations"].append(
                f"operation {index} differs between untraced and traced runs")
    if [o.exit_code for o in traced_out] != summary["exit_codes"]:
        summary["violations"].append("exit codes differ under tracing")
    summary["violations"] += [v for o in traced_out for v in o.violations]
    layers = tracer.layer_metrics(spans.spans)
    layers["trace.overhead_ratio"] = math.fsum(traced_lat) / summary["wall_s"]
    layers["outcome.fail_ratio"] = summary["fail_ratio"]
    summary["layers"] = layers
    summary["shares"] = tracer.layer_shares(spans.spans)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="working directory for configs and artifacts")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload](), args.seed, work)
    for index in range(runner.workload.cycle):
        runner.inputs(index)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        summary = run_traced(runner, Path(args.spans))
    else:
        summary = run_untraced(runner, args.seconds)
    summary["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["environment"] = environment()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
