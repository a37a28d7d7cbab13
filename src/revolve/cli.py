"""Command-line orchestration: configs, subcommands, artifacts.

Subcommands: verify-operators, limit-coeffs, simulate, converge, report.
Experiments are described by a strict JSON config (unknown keys are
rejected, the dataclasses a config builds range-check its values, errors
carry the dotted field path). Every run writes a manifest.json echoing the
parsed config, the seed and the package version; the manifest timestamp is the only
non-reproducible byte in any artifact. Floats in CSV files are written
with 17 significant digits so reruns are byte-identical.

Exit codes: 0 success, 2 config/schema violation, 3 balance or solvability
failure (the error JSON names the residual vector), 1 anything else.
converge and report run KS tests and load scipy.stats before they read
their config; without it they exit 1 before writing anything. The other
subcommands never load scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .limits import BalanceError, gaussian_law_at, limit_coefficients
from .operator_lab import (
    ThetaField,
    apply_q,
    gaussian_bump,
    lab_limit_coefficients,
    potential_identity_error,
    project_pi,
    quadrature_residuals,
    residual_scaling,
)
from .profiles import Atom, FieldError, ProfileError, VelocityProfile, builtin_profile
from .rates import check_eps_sweep
from .simulator import (
    DiscreteSwitching,
    EvolutionConfig,
    UniformSphere,
    simulate_ensemble,
    simulate_paths,
)
from .sphere import FiniteLawGrid, build_grid, check_dimension, check_resolution
from .stats import grid_for_config, import_scipy_stats, ks_marginals, limit_for_config
from .stats import run_sweep, summarize

# build_grid, reached through grid_for_config, stays importable here for
# tools that wrap the layer functions this module uses; the names such a
# tool looks up are checked by tests/test_bench_lookups.py.

__all__ = ["SchemaError", "ExperimentConfig", "load_config", "run", "main"]

MODES = ("verify-operators", "limit-coeffs", "simulate", "converge", "report")
KS_MODES = frozenset({"converge", "report"})  # the subcommands that need scipy.stats
DEFAULT_EPS_SWEEP = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


class SchemaError(ValueError):
    """Config violates the schema; path points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# strict config parsing


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required key")


def _number(obj: dict, path: str, key: str) -> float:
    v = obj[key]  # the caller checked that the key is present
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise SchemaError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _integer(obj: dict, path: str, key: str, default=None) -> int:
    v = obj.get(key, default)  # a required key is present: _require_keys checked it
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _vector(obj: dict, path: str, key: str) -> np.ndarray:
    v = obj.get(key)
    if not isinstance(v, list) or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) and math.isfinite(e) for e in v
    ):
        raise SchemaError(f"{path}.{key}", "expected a list of finite numbers")
    return np.asarray(v, dtype=float)


@contextmanager
def _fields_under(path: str):
    """Report a FieldError raised inside as a SchemaError at path.field."""
    try:
        yield
    except FieldError as exc:
        raise SchemaError(path if exc.field is None else f"{path}.{exc.field}", str(exc)) from exc


def _parse_profile(obj, path: str, dimension: int) -> VelocityProfile:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "atoms" in obj:
        _require_keys(obj, path, ("atoms",), ())
        if not isinstance(obj["atoms"], list) or not obj["atoms"]:
            raise SchemaError(f"{path}.atoms", "expected a non-empty list")
        atoms = []
        for k, entry in enumerate(obj["atoms"]):
            apath = f"{path}.atoms[{k}]"
            _require_keys(entry, apath, ("angles", "weight", "c", "c1"), ())
            angles = _vector(entry, apath, "angles")
            weight, c, c1 = (_number(entry, apath, key) for key in ("weight", "c", "c1"))
            with _fields_under(apath):
                atoms.append(Atom(angles, weight, c, c1))
        with _fields_under(path):
            return VelocityProfile(dimension, atoms=tuple(atoms), name="custom_atoms")
    _require_keys(obj, path, ("name",), ("c", "c1"))
    kwargs = {key: _number(obj, path, key) for key in ("c", "c1") if key in obj}
    with _fields_under(path):
        return builtin_profile(obj["name"], dimension, **kwargs)


def _parse_switching(obj, path: str):
    if obj is None:
        return UniformSphere()
    _require_keys(obj, path, ("kind",), ("angles", "probabilities"))
    kind = obj["kind"]
    if kind == "uniform_sphere":
        if "angles" in obj or "probabilities" in obj:
            raise SchemaError(path, "uniform_sphere takes no angles/probabilities")
        return UniformSphere()
    if kind != "discrete":
        raise SchemaError(f"{path}.kind", "must be 'uniform_sphere' or 'discrete'")
    if "angles" not in obj or "probabilities" not in obj:
        raise SchemaError(path, "discrete switching needs angles and probabilities")
    rows = obj["angles"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{path}.angles", "expected a non-empty list of angle rows")
    angles = [_vector({"row": row}, f"{path}.angles[{k}]", "row") for k, row in enumerate(rows)]
    probs = _vector(obj, path, "probabilities")
    with _fields_under(path):
        return DiscreteSwitching(angles, probs)


def _parse_evolution(obj, path: str) -> EvolutionConfig:
    _require_keys(
        obj,
        path,
        ("dimension", "epsilon", "horizon", "x0", "n_paths", "profile"),
        ("seed", "switching", "initial_direction"),
    )
    dimension = _integer(obj, path, "dimension")
    with _fields_under(path):
        check_dimension(dimension)  # the profile parser needs a valid dimension
    profile = _parse_profile(obj["profile"], f"{path}.profile", dimension)
    initial = None
    if obj.get("initial_direction") is not None:
        initial = _vector(obj, path, "initial_direction")
    with _fields_under(path):
        return EvolutionConfig(
            dimension=dimension,
            epsilon=_number(obj, path, "epsilon"),
            profile=profile,
            horizon=_number(obj, path, "horizon"),
            x0=_vector(obj, path, "x0"),
            n_paths=_integer(obj, path, "n_paths"),
            seed=_integer(obj, path, "seed", default=0),
            switching=_parse_switching(obj.get("switching"), f"{path}.switching"),
            initial_direction=initial,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    mode: str
    evolution: EvolutionConfig
    grid_resolution: int = 32
    eps_sweep: tuple[float, ...] = DEFAULT_EPS_SWEEP
    output_dir: str | None = None

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "evolution": self.evolution.describe(),
            "grid_resolution": self.grid_resolution,
            "eps_sweep": list(self.eps_sweep),
            "output_dir": self.output_dir,
        }


def load_config(document: dict, mode: str, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw JSON document against the strict schema."""
    _require_keys(
        document,
        "config",
        ("evolution",),
        ("mode", "grid_resolution", "eps_sweep", "output_dir"),
    )
    if "mode" in document:
        if document["mode"] not in MODES:
            raise SchemaError("config.mode", f"must be one of {list(MODES)}")
        if document["mode"] != mode:
            raise SchemaError(
                "config.mode", f"config says {document['mode']!r} but subcommand is {mode!r}"
            )
    evolution = _parse_evolution(document["evolution"], "config.evolution")
    if seed_override is not None:
        with _fields_under("config.evolution"):
            evolution = replace(evolution, seed=seed_override)
    grid_resolution = _integer(document, "config", "grid_resolution", default=32)
    try:
        check_resolution(grid_resolution)
    except ValueError as exc:
        raise SchemaError("config.grid_resolution", str(exc)) from exc
    eps_sweep = DEFAULT_EPS_SWEEP
    if "eps_sweep" in document:
        eps_sweep = tuple(float(e) for e in _vector(document, "config", "eps_sweep"))
        try:
            check_eps_sweep(eps_sweep, decades=1)  # the sweep `converge` runs
        except ValueError as exc:
            raise SchemaError("config.eps_sweep", str(exc)) from exc
    output_dir = document.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise SchemaError("config.output_dir", "expected a string path")
    return ExperimentConfig(mode, evolution, grid_resolution, eps_sweep, output_dir)


# ---------------------------------------------------------------------------
# artifact writers


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, config: ExperimentConfig) -> None:
    _write_json(
        out / "manifest.json",
        {
            "artifact_version": __version__,
            "mode": config.mode,
            "seed": int(config.evolution.seed),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": config.describe(),
        },
    )


def _write_endpoints_csv(path: Path, points: np.ndarray) -> None:
    n = points.shape[1]
    header = "path_index," + ",".join(f"x{i + 1}" for i in range(n))
    lines = [header]
    for idx, row in enumerate(points):
        lines.append(str(idx) + "," + ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_trajectories_csv(path: Path, config: EvolutionConfig) -> None:
    n = config.dimension
    header = "path_index,t," + ",".join(f"x{i + 1}" for i in range(n))
    lines = [header]
    for idx, trajectory in enumerate(simulate_paths(config)):
        for t, pos in zip(trajectory.times, trajectory.positions):
            lines.append(f"{idx},{_fmt(t)}," + ",".join(_fmt(v) for v in pos))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_verify_operators(config: ExperimentConfig, out: Path) -> dict:
    evo = config.evolution
    grid = grid_for_config(evo, config.grid_resolution)
    # the identities hold to roundoff for any weights summing to 1: one field
    f = ThetaField(grid, np.random.default_rng(evo.seed).standard_normal(grid.size))
    pi_f = project_pi(f)
    idempotence = abs(project_pi(ThetaField(grid, np.full(grid.size, pi_f))) - pi_f)
    report: dict = {
        "dimension": evo.dimension,
        "identity_residuals": {
            "pi_idempotent": idempotence,
            # Q of the constant field Pi f is Pi(Pi f) - Pi f at every node,
            # so q_pi is derived from Pi idempotence and does not run apply_q
            "q_pi": idempotence,
            "pi_q": abs(project_pi(apply_q(f))),
            "r0_q_identity": potential_identity_error(f),
        },
    }
    if not isinstance(grid, FiniteLawGrid):
        report["quadrature_residuals"] = quadrature_residuals(grid)
    limit = limit_coefficients(evo.profile, grid)
    report["limit_coefficients"] = {
        "drift": limit.drift.tolist(),
        "diffusion": limit.diffusion.tolist(),
        "drift_paper_sign": limit.drift_paper_sign.tolist(),
    }
    try:
        drift_lab, diffusion_lab = lab_limit_coefficients(evo.profile, grid)
    except ProfileError as exc:  # an atomic profile on a sphere grid
        report["residual_scaling"] = {"skipped": str(exc)}
    else:
        gap = max(np.max(np.abs(drift_lab - limit.drift)),
                  np.max(np.abs(diffusion_lab - limit.diffusion)))
        report["limit_coefficients"]["lab_vs_quadrature_max_diff"] = float(gap)
        phi = gaussian_bump(evo.x0, 1.0)
        # residual scaling needs a sweep over two decades; a sweep tuned for
        # `converge` may span only one, so fall back to the default
        try:
            sweep = check_eps_sweep(config.eps_sweep, decades=2)
        except ValueError as exc:
            sweep = DEFAULT_EPS_SWEEP
            print(
                f"warning: eps_sweep {list(config.eps_sweep)} is not a residual-scaling "
                f"sweep ({exc}); residual_scaling uses the default sweep {list(sweep)}",
                file=sys.stderr,
            )
        fit = residual_scaling(evo.profile, phi, evo.x0 + 0.25, grid, sweep)
        report["residual_scaling"] = {
            "eps": fit.eps_values.tolist(),
            "residual": fit.metric_values.tolist(),
            "slope": fit.slope,
            "exact": fit.exact,
        }
    _write_json(out / "operator_report.json", report)
    return report


def _run_limit_coeffs(config: ExperimentConfig, out: Path, paper_sign: bool) -> dict:
    limit = limit_for_config(config.evolution, config.grid_resolution)
    payload = {"drift": limit.drift.tolist(), "A": limit.diffusion.tolist()}
    if paper_sign:
        payload["drift_paper_sign"] = limit.drift_paper_sign.tolist()
    _write_json(out / "limit_coeffs.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return payload


def _run_simulate(config: ExperimentConfig, out: Path, full_trajectories: bool) -> dict:
    ensemble = simulate_ensemble(config.evolution)
    _write_endpoints_csv(out / "endpoints.csv", ensemble.points)
    if full_trajectories:
        _write_trajectories_csv(out / "trajectories.csv", config.evolution)
    summary = summarize(ensemble)
    payload = {
        "n_paths": int(ensemble.points.shape[0]),
        "mean": summary.mean.tolist(),
        "covariance": summary.covariance.tolist(),
        "fingerprint": ensemble.config_fingerprint,
    }
    _write_json(out / "simulate_summary.json", payload)
    return payload


def _run_converge(config: ExperimentConfig, out: Path) -> dict:
    result = run_sweep(
        config.evolution, config.eps_sweep, grid_resolution=config.grid_resolution
    )
    payload = {
        "eps": result.eps_values.tolist(),
        "metric": result.metric_values.tolist(),
        "noise_floor": result.noise_floors.tolist(),
        "ks_pvalues": result.ks_pvalues.tolist(),
        "slope": result.fit.slope,
        "intercept": result.fit.intercept,
        "r_squared": result.fit.r_squared,
        "plateau": result.fit.plateau,
    }
    _write_json(out / "sweep.json", payload)
    columns = (result.eps_values, result.metric_values, result.noise_floors,
               result.ks_pvalues.min(axis=1))
    lines = ["epsilon,metric,noise_floor,min_ks_pvalue"]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return payload


def _run_report(config: ExperimentConfig, out: Path) -> dict:
    evo = config.evolution
    limit = limit_for_config(evo, config.grid_resolution)
    target = gaussian_law_at(limit, evo.horizon, evo.x0)
    ensemble = simulate_ensemble(evo)
    summary = summarize(ensemble)
    ks = ks_marginals(ensemble, target)

    columns = (summary.mean, summary.se_mean, target.mean, np.diag(summary.covariance),
               np.diag(target.covariance), ks.pvalues)
    lines = ["coordinate,mean,se_mean,target_mean,variance,target_variance,ks_pvalue"]
    lines += [f"x{i + 1}," + ",".join(_fmt(v) for v in row) for i, row in enumerate(zip(*columns))]
    (out / "moments.csv").write_text("\n".join(lines) + "\n")

    text = [
        f"random evolution report (n={evo.dimension}, eps={evo.epsilon}, "
        f"T={evo.horizon}, paths={evo.n_paths}, seed={evo.seed})",
        f"limit drift:     {np.array2string(limit.drift, precision=6)}",
        f"limit diffusion: {np.array2string(limit.diffusion, precision=6)}",
        f"endpoint mean:   {np.array2string(summary.mean, precision=6)}",
        f"endpoint cov:    {np.array2string(summary.covariance, precision=6)}",
        f"KS p-values:     {np.array2string(ks.pvalues, precision=4)}",
        f"min KS p-value:  {ks.min_pvalue:.4g}",
    ]
    (out / "report.txt").write_text("\n".join(text) + "\n")
    return {"min_ks_pvalue": ks.min_pvalue}


def run(
    config: ExperimentConfig,
    out_dir: str | None = None,
    paper_sign: bool = False,
    full_trajectories: bool = False,
) -> int:
    """Execute the configured mode, writing artifacts into the output directory."""
    out = Path(out_dir or config.output_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, config)
    if config.mode == "verify-operators":
        _run_verify_operators(config, out)
    elif config.mode == "limit-coeffs":
        _run_limit_coeffs(config, out, paper_sign)
    elif config.mode == "simulate":
        _run_simulate(config, out, full_trajectories)
    elif config.mode == "converge":
        _run_converge(config, out)
    elif config.mode == "report":
        _run_report(config, out)
    else:
        raise SchemaError("config.mode", f"unknown mode {config.mode!r}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revolve",
        description="Monte-Carlo and operator laboratory for random evolutions",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config or ./out)")
        p.add_argument("--seed", type=int, default=None, help="override evolution.seed")
        if mode == "limit-coeffs":
            p.add_argument(
                "--paper-sign",
                action="store_true",
                help="also emit the opposite-sign drift functional",
            )
        if mode == "simulate":
            p.add_argument(
                "--full-trajectories",
                action="store_true",
                help="dump every path segment to trajectories.csv",
            )
    return parser


def _error_json(kind: str, message: str, **extra) -> str:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    return json.dumps(payload, sort_keys=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.mode in KS_MODES:
        # load scipy before the config is read, so that a run without it
        # fails before it writes anything
        try:
            import_scipy_stats()
        except ImportError as exc:
            print(_error_json("dependency", f"{args.mode} needs scipy.stats: {exc}"))
            return 1
    try:
        try:
            document = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise SchemaError("config", f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError("config", f"invalid JSON: {exc}") from exc
        config = load_config(document, args.mode, seed_override=args.seed)
        return run(
            config,
            out_dir=args.out,
            paper_sign=getattr(args, "paper_sign", False),
            full_trajectories=getattr(args, "full_trajectories", False),
        )
    except SchemaError as exc:
        print(_error_json("schema", str(exc), path=exc.path))
        return 2
    except BalanceError as exc:
        print(
            _error_json(
                "balance",
                str(exc),
                residual=exc.report.residual_vector.tolist(),
                residual_norm=exc.report.residual_norm,
            )
        )
        return 3
    except ValueError as exc:
        print(_error_json("invalid", str(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
