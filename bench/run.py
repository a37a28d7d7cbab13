"""Benchmark of the revolve CLI: one workload, one seed, one result line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The run repeats whole rounds of the workload within ``--seconds``. A round
is one fresh interpreter (``child.py``) that imports ``revolve`` from
``src/`` and calls ``revolve.cli.main`` once per generated config. Every call is an operation: it fails when the CLI exits non-zero or
its artifacts fail the checks in ``workloads.py``. Artifacts other than
``manifest.json`` must also be byte-identical in every round of a run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over the run's rounds. With ``--trace 1`` each cycle runs the
workload untraced, then traced at one worker (spans in pool workers would
be lost), and the last line carries the per-layer metrics: medians over the
traced rounds, plus the tracing overhead against the untraced rounds.
Progress and problems go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import now
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 120


def _child_env(workers: int) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, REVOLVE_THREADS=str(workers))


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


class Run:
    """Rounds of one workload at one seed, with their checks and figures."""

    def __init__(self, workload, seed: int, directory: Path):
        self.workload = workload
        self.configs = workload.configs(seed)
        self.work = workload.work(self.configs)
        self.directory = directory
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, dict] = {}   # call index -> artifact digests
        self.rounds: list[dict] = []
        self.last_spans: Path | None = None

    def round(self, trace: bool, workers: int) -> None:
        """Run one round in a fresh process and record its figures."""
        where = self.directory / f"round{self.attempted}"
        where.mkdir(parents=True)
        calls = []
        for k, config in enumerate(self.configs):
            config_path = where / f"config{k}.json"
            config_path.write_text(json.dumps(config))
            calls.append(
                [self.workload.mode, "--config", str(config_path), "--out", str(where / f"out{k}")]
            )
        spec = where / "spec.json"
        result_path = where / "result.json"
        spec.write_text(json.dumps(
            {"src": str(SRC), "calls": calls, "trace": trace, "result": str(result_path)}
        ))
        spawned = now()
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec)],
            env=_child_env(workers),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            _, err = child.communicate()
            err += f"\nround killed after {CHILD_TIMEOUT_S} s"
        result = json.loads(result_path.read_text()) if child.returncode == 0 else None

        self.attempted += len(calls)
        for k, config in enumerate(self.configs):
            if result is None or result["calls"][k]["code"] != 0:
                self.failed += 1
                print(f"call {k} failed:\n{err}", file=sys.stderr)
                continue
            out = where / f"out{k}"
            digests = _digests(out)
            problems = self.workload.check(config, out)
            if self.reference.setdefault(k, digests) != digests:
                problems.append(f"call {k}: artifacts differ from the run's first round")
            if problems:
                self.failed += 1
                self.problems += problems
        # A round whose process finished is timed even if some of its calls
        # failed: the failures are counted above, and the times still show.
        if result is None or result["configured_at"] is None:
            return

        configured = result["configured_at"]
        wall = result["calls"][-1]["end"] - configured
        spans = result["spans"]
        self.rounds.append({
            "trace": trace,
            "workers": workers,
            "setup_s": configured - spawned,
            "wall_s": wall,
            "events_per_s": self.work / wall,
            "peak_rss_mb": result["maxrss_kib"] / 1024.0,
            "ensemble_s": spans.get("simulator.simulate_ensemble", {}).get("total_s"),
            "import_s": result["import_s"],
            "spans": spans,
            "n_spans": result["n_spans"],
            "peak_bytes": result["peak_bytes"],
            "artifact_bytes": sum(p.stat().st_size for p in where.glob("out*/*")),
        })
        if trace:
            self.last_spans = where / "spans.json"

    def median(self, key: str, trace: bool = False, workers: int | None = None) -> float:
        values = [
            r[key]
            for r in self.rounds
            if r["trace"] == trace and (workers is None or r["workers"] == workers)
        ]
        return statistics.median(values)


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": {"value": run.median("setup_s"), "unit": "s"},
        "wall_s": {"value": run.median("wall_s"), "unit": "s"},
        "events_per_s": {"value": run.median("events_per_s"), "unit": "1/s"},
        "peak_rss_mb": {"value": run.median("peak_rss_mb"), "unit": "MiB"},
    }


def per_layer(run: Run) -> dict:
    traced = [r for r in run.rounds if r["trace"]]

    def med(value) -> float:
        return statistics.median(value(r) for r in traced)

    def total(name):
        return lambda r: r["spans"].get(name, {}).get("total_s", 0.0)

    def own(name):
        return lambda r: r["spans"].get(name, {}).get("self_s", 0.0)

    n_paths = sum(c["evolution"]["n_paths"] for c in run.configs)
    simulates = run.workload.mode in ("simulate", "report")
    metrics = {
        "sphere.angles_from_directions_s": (med(total("sphere.angles_from_directions")), "s"),
        "sphere.directions_from_angles_s": (med(total("sphere.directions_from_angles")), "s"),
        "sphere.build_grid_s": (med(total("sphere.build_grid")), "s"),
        "profiles.values_at_s": (med(total("profiles.values_at")), "s"),
        "profiles.values_at_calls": (
            med(lambda r: r["spans"].get("profiles.values_at", {}).get("calls", 0)), "count"
        ),
        "simulator.simulate_ensemble_s": (med(total("simulator.simulate_ensemble")), "s"),
        "simulator.self_s": (med(own("simulator.simulate_ensemble")), "s"),
        "simulator.us_per_path": (
            med(total("simulator.simulate_ensemble")) / n_paths * 1e6 if simulates else 0.0, "us"
        ),
        "simulator.pool_speedup": (
            run.median("ensemble_s", workers=1) / run.median("ensemble_s", workers=2)
            if run.workload.workers == 2
            else 0.0,
            "ratio",
        ),
        "limits.limit_coefficients_s": (med(total("limits.limit_coefficients")), "s"),
        "operator_lab.solve_perturbation_s": (med(total("operator_lab.solve_perturbation")), "s"),
        "operator_lab.solve_perturbation_peak_mb": (
            med(lambda r: r["peak_bytes"].get("operator_lab.solve_perturbation", 0)) / 2**20,
            "MiB",
        ),
        "operator_lab.lab_limit_coefficients_s": (
            med(total("operator_lab.lab_limit_coefficients")), "s"
        ),
        "operator_lab.field_ops_s": (med(total("operator_lab.field_ops")), "s"),
        "stats.limit_for_config_s": (med(total("stats.limit_for_config")), "s"),
        "stats.summarize_s": (med(total("stats.summarize")), "s"),
        "stats.ks_marginals_s": (med(total("stats.ks_marginals")), "s"),
        "cli.import_s": (med(lambda r: r["import_s"]), "s"),
        "cli.load_config_s": (med(total("cli.load_config")), "s"),
        "cli.self_s": (med(own("cli.run")), "s"),
        "cli.artifact_bytes": (med(lambda r: r["artifact_bytes"]), "count"),
        "trace.spans": (med(lambda r: r["n_spans"]), "count"),
        "trace.overhead_s": (
            run.median("wall_s", trace=True) - run.median("wall_s", workers=1), "s"
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "revolve" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'revolve' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    # Fill the file cache (and write byte code, where allowed) before set-up is timed.
    warm = subprocess.run(
        [sys.executable, "-c", "import revolve.cli"], env=_child_env(1), timeout=CHILD_TIMEOUT_S
    )
    if warm.returncode != 0:
        print("cannot import revolve from src/", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    directory = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    run = Run(workload, args.seed, directory)
    try:
        started = now()
        while True:
            cycle_start = now()
            if args.trace:
                run.round(trace=False, workers=workload.workers)
                if workload.workers != 1:
                    run.round(trace=False, workers=1)
                run.round(trace=True, workers=1)
            else:
                run.round(trace=False, workers=workload.workers)
            print(f"{workload.name}: {len(run.rounds)} rounds, {now() - started:.1f} s",
                  file=sys.stderr)
            # Start another cycle only if one more as long as the last still
            # ends within --seconds, so a run never overshoots its length.
            if now() - started + (now() - cycle_start) > args.seconds:
                break
        if run.last_spans is not None:
            shutil.copyfile(run.last_spans, WORK / f"trace-{workload.name}.json")
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for problem in run.problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    except statistics.StatisticsError:
        print("no round completed, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
