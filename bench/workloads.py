"""The benchmark's workloads: generated configs, CLI calls and output checks.

Each workload turns ``--seed`` into config documents, one per CLI call of a
round. The seed sets ``evolution.seed`` and ``x0``; everything that fixes
the amount of work (dimension, eps, horizon, paths, grid) is constant, so
runs with different seeds measure the same work on different inputs.

The checks compare the CLI's artifacts with ``oracle``; they return a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Moments must lie within this many standard errors of the exact value.
SE_LIMIT = 5.0


def _seed_and_x0(seed: int, salt: int, dimension: int) -> tuple[int, list[float]]:
    state = np.random.SeedSequence([seed, salt])
    config_seed = int(state.generate_state(1, np.uint64)[0])
    x0 = np.random.default_rng(state).uniform(-1.0, 1.0, dimension).round(6)
    return config_seed, x0.tolist()


def _evolution(seed, salt, dimension, epsilon, n_paths, profile, **extra) -> dict:
    config_seed, x0 = _seed_and_x0(seed, salt, dimension)
    return {
        "dimension": dimension,
        "epsilon": epsilon,
        "horizon": 1.0,
        "x0": x0,
        "n_paths": n_paths,
        "seed": config_seed,
        "profile": profile,
        **extra,
    }


def _within(label: str, value: float, exact: float, se: float) -> list[str]:
    if abs(value - exact) <= SE_LIMIT * se:
        return []
    return [f"{label} = {value:.6g}, exact {exact:.6g}, {abs(value - exact) / se:.1f} SE off"]


# ---------------------------------------------------------------------------
# sim_fast_switch: revolve report, step_half_sphere, n = 3, eps = 0.02

FAST_EPS = 0.02
FAST_PATHS = 4000


def _fast_configs(seed: int) -> list[dict]:
    profile = {"name": "step_half_sphere", "c": 1.0, "c1": 1.0}
    return [{"evolution": _evolution(seed, 1, 3, FAST_EPS, FAST_PATHS, profile)}]


def _check_fast(config: dict, out: Path) -> list[str]:
    evo = config["evolution"]
    x0, eps, horizon = np.array(evo["x0"]), evo["epsilon"], evo["horizon"]
    mean, cov = oracle.stationary_endpoint_moments(
        x0, *oracle.step_half_sphere_velocity(eps), eps, horizon
    )
    limit_mean = x0 + np.array([0.0, 0.0, -0.25]) * horizon
    limit_var = 2.0 * horizon / 3.0
    with open(out / "moments.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if [row["coordinate"] for row in rows] != ["x1", "x2", "x3"]:
        return [f"moments.csv has coordinates {[row['coordinate'] for row in rows]}"]
    n = evo["n_paths"]
    problems = []
    for i, row in enumerate(rows):
        var = cov[i, i]
        problems += _within(f"x{i + 1} mean", float(row["mean"]), mean[i], math.sqrt(var / n))
        problems += _within(
            f"x{i + 1} variance", float(row["variance"]), var, var * math.sqrt(2.0 / (n - 1))
        )
        if abs(float(row["target_mean"]) - limit_mean[i]) > 1e-9:
            problems.append(f"x{i + 1} target_mean {row['target_mean']} != {limit_mean[i]}")
        if abs(float(row["target_variance"]) - limit_var) > 1e-9:
            problems.append(f"x{i + 1} target_variance {row['target_variance']} != {limit_var}")
        if not 0.0 <= float(row["ks_pvalue"]) <= 1.0:
            problems.append(f"x{i + 1} ks_pvalue {row['ks_pvalue']} outside [0, 1]")
    if not (out / "report.txt").is_file():
        problems.append("report.txt missing")
    return problems


# ---------------------------------------------------------------------------
# sim_short_paths: revolve simulate, example3_atoms, discrete switching, eps = 0.2

SHORT_EPS = 0.2
SHORT_PATHS = 40000


def _short_configs(seed: int) -> list[dict]:
    switching = {
        "kind": "discrete",
        "angles": [[0.0], [math.pi], [math.pi / 2.0]],
        "probabilities": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    }
    profile = {"name": "example3_atoms"}
    evo = _evolution(seed, 2, 2, SHORT_EPS, SHORT_PATHS, profile, switching=switching)
    return [{"evolution": evo}]


def _check_short(config: dict, out: Path) -> list[str]:
    evo = config["evolution"]
    eps, horizon = evo["epsilon"], evo["horizon"]
    mean, cov = oracle.stationary_endpoint_moments(
        np.array(evo["x0"]), *oracle.example3_discrete_velocity(eps), eps, horizon
    )
    table = np.loadtxt(out / "endpoints.csv", delimiter=",", skiprows=1, ndmin=2)
    n = evo["n_paths"]
    if table.shape != (n, 3) or not np.array_equal(table[:, 0], np.arange(n)):
        return [f"endpoints.csv has shape {table.shape}, expected ({n}, 3) with path_index 0..{n - 1}"]
    points = table[:, 1:]
    problems = []
    centred = points - points.mean(axis=0)
    for i in range(2):
        problems += _within(
            f"x{i + 1} mean", points[:, i].mean(), mean[i], centred[:, i].std(ddof=1) / math.sqrt(n)
        )
        for j in range(i + 1):
            product = centred[:, i] * centred[:, j]
            problems += _within(
                f"cov[{i + 1},{j + 1}]",
                product.sum() / (n - 1),
                cov[i, j],
                product.std(ddof=1) / math.sqrt(n),
            )
    summary = json.loads((out / "simulate_summary.json").read_text())
    if summary["n_paths"] != n:
        problems.append(f"simulate_summary.json n_paths {summary['n_paths']} != {n}")
    return problems


# ---------------------------------------------------------------------------
# operator_hierarchy: revolve verify-operators, n = 5, grid resolution 16

OPERATOR_PROFILES = (
    {"name": "msre_const", "c": 1.0},
    {"name": "sin_theta1"},
    {"name": "step_half_sphere", "c": 1.0, "c1": 1.0},
)
OPERATOR_RESOLUTION = 16


def _operator_configs(seed: int) -> list[dict]:
    return [
        {
            "evolution": _evolution(seed, 3 + k, 5, 0.1, 1, profile),
            "grid_resolution": OPERATOR_RESOLUTION,
        }
        for k, profile in enumerate(OPERATOR_PROFILES)
    ]


def _check_operators(config: dict, out: Path) -> list[str]:
    name = config["evolution"]["profile"]["name"]
    report = json.loads((out / "operator_report.json").read_text())
    drift, diffusion = oracle.limits_n5(name)
    coefficients = report["limit_coefficients"]
    problems = []
    gap = max(
        float(np.max(np.abs(np.array(coefficients["drift"]) - drift))),
        float(np.max(np.abs(np.array(coefficients["diffusion"]) - diffusion))),
    )
    if gap > 1e-8:
        problems.append(f"{name}: limit coefficients off the closed form by {gap:.3e}")
    if not coefficients["lab_vs_quadrature_max_diff"] <= 1e-8:
        problems.append(f"{name}: lab vs quadrature {coefficients['lab_vs_quadrature_max_diff']}")
    for key, value in report["identity_residuals"].items():
        if not value <= 1e-12:
            problems.append(f"{name}: identity residual {key} = {value:.3e}")
    slope = report["residual_scaling"]["slope"]
    if not 0.9 <= slope <= 1.1:
        problems.append(f"{name}: remainder slope {slope} outside [0.9, 1.1]")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                      # CLI subcommand
    workers: int                   # REVOLVE_THREADS of the untraced run
    configs: Callable[[int], list[dict]]
    check: Callable[[dict, Path], list[str]]

    def work(self, configs: list[dict]) -> float:
        """Preflight work of one round: direction switches n_paths * T / eps^2
        for the simulator, grid nodes for the operator lab."""
        if self.mode == "verify-operators":
            return float(sum(
                2 * c["grid_resolution"] ** (c["evolution"]["dimension"] - 1) for c in configs
            ))
        return sum(
            c["evolution"]["n_paths"] * c["evolution"]["horizon"] / c["evolution"]["epsilon"] ** 2
            for c in configs
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_fast_switch", "report", 1, _fast_configs, _check_fast),
        Workload("sim_short_paths", "simulate", 2, _short_configs, _check_short),
        Workload("operator_hierarchy", "verify-operators", 1, _operator_configs, _check_operators),
    )
}
