"""Repeat benchmark runs over seeds, summarise them, and compare two sets.

    python3 bench/repeat.py run --out SET.json [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--trace 0|1]
    python3 bench/repeat.py compare FIRST.json SECOND.json

``run`` calls ``run.py`` once per workload and seed (seeds first-seed,
first-seed + 1, ...) with the run length from BENCHMARK.json, prints each
metric's median and quartiles (``statistics.quantiles(values, n=4)``) and
saves every result line to SET.json.

``compare`` applies the bounds of BENCHMARK.json to two such sets of
untraced runs: for every workload and end-to-end metric, the spread
(q3 - q1) / median of each set must stay within the bound (set-up time is
exempt), the second median may be worse than the first by at most the
bound, and the share of failed operations must be the same. It exits 1 when
any of these fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def collect(args) -> int:
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for name in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            line = json.loads(done.stdout.strip().splitlines()[-1])
            results[name].append(line)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()
            ), file=sys.stderr)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    summarise(results)
    return 0


def summarise(results: dict[str, list[dict]]) -> None:
    print(f"{'workload':20} {'metric':42} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, lines in results.items():
        attempted = sum(line["attempted"] for line in lines)
        failed = sum(line["failed"] for line in lines)
        correct = all(line["correct"] for line in lines)
        for metric, first in lines[0]["metrics"].items():
            values = [line["metrics"][metric]["value"] for line in lines]
            if len(values) < 2 or statistics.median(values) == 0:
                median, q1, q3, share = statistics.median(values), min(values), max(values), 0.0
            else:
                median, q1, q3, share = spread(values)
            print(f"{name:20} {metric:42} {first['unit']:6} "
                  f"{median:12.6g} {q1:12.6g} {q3:12.6g} {share:7.2%}")
        print(f"{name:20} runs {len(lines)}, attempted {attempted}, failed {failed}, "
              f"correct {correct}")


def compare(args) -> int:
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for workload in SPEC["workloads"]:
        name = workload["name"]
        a, b = first[name], second[name]
        shares = [sum(l["failed"] for l in s) / sum(l["attempted"] for l in s) for s in (a, b)]
        if shares[0] != shares[1]:
            ok = False
            print(f"{name}: failed share {shares[0]} then {shares[1]}")
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            med_a, _, _, spread_a = spread([l["metrics"][key]["value"] for l in a])
            med_b, _, _, spread_b = spread([l["metrics"][key]["value"] for l in b])
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads_ok = key == "setup_s" or max(spread_a, spread_b) <= bound
            verdict = "ok" if spreads_ok and worse <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{name:20} {key:14} spread {spread_a:6.2%} / {spread_b:6.2%}  "
                  f"median {med_a:.6g} -> {med_b:.6g} ({worse:+.2%} worse)  "
                  f"bound {bound:.0%}  {verdict}")
    print("sets agree within the bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    return collect(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
