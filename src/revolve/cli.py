"""Command-line orchestration: configs, subcommands, artifacts.

Subcommands: verify-operators, limit-coeffs, simulate, converge, report.
Experiments are described by a strict JSON config (unknown keys are
rejected, the dataclasses a config builds range-check its values, errors
carry the dotted field path). Every run writes a manifest.json echoing the
parsed config, the seed and the package version; the manifest timestamp is the only
non-reproducible byte in any artifact. Floats in CSV files are written
with 17 significant digits so reruns are byte-identical.

Exit codes: 0 success, 2 config/schema violation, 3 balance or solvability
failure (the error JSON names the residual vector), 1 anything else (a run
out of memory prints an error of kind resource).
The package needs numpy only: the KS tests of converge and report are
revolve.ks.
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
from typing import Iterable

import numpy as np

from . import __version__
from .limits import (
    BalanceError,
    DiscreteSwitching,
    UniformSphere,
    gaussian_law_at,
    limit_coefficients,
)
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
from .simulator import EvolutionConfig, ResourceExhausted, simulate_ensemble, simulate_paths
from .sphere import build_grid, check_dimension, check_resolution
from .stats import ks_marginals, limit_for_config, run_sweep, summarize

# build_grid, reached through the uniform law's grid, stays importable here
# for tools that wrap the layer functions this module uses; the names such a
# tool looks up are checked by tests/test_bench_lookups.py.

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

MODES = ("verify-operators", "limit-coeffs", "simulate", "converge", "report")
DEFAULT_EPS_SWEEP = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


# ---------------------------------------------------------------------------
# strict config parsing: JSON types and keys here, value ranges in the
# constructors. A FieldError names the key it checked; each level of the
# document prepends its own segment as the error passes through it.


@contextmanager
def _fields_under(segment: str):
    """Prepend segment to the field of a FieldError raised inside."""
    try:
        yield
    except FieldError as exc:
        exc.field = segment if exc.field is None else f"{segment}.{exc.field}"
        raise


def _require_keys(obj: dict, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise FieldError(f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise FieldError("unknown key", sorted(unknown)[0])
    for key in required:
        if key not in obj:
            raise FieldError("missing required key", key)


def _number(obj: dict, key: str) -> float:
    v = obj[key]  # the caller checked that the key is present
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise FieldError(f"expected a finite number, got {v!r}", key)
    return float(v)


def _integer(obj: dict, key: str, default=None) -> int:
    v = obj.get(key, default)  # a required key is present: _require_keys checked it
    if isinstance(v, bool) or not isinstance(v, int):
        raise FieldError(f"expected an integer, got {v!r}", key)
    return v


def _vector(obj: dict, key: str) -> np.ndarray:
    return _finite_list(obj.get(key), key)


def _finite_list(v, key: str | None = None) -> np.ndarray:
    if not isinstance(v, list) or not all(
        isinstance(e, (int, float)) and not isinstance(e, bool) and math.isfinite(e) for e in v
    ):
        raise FieldError("expected a list of finite numbers", key)
    return np.asarray(v, dtype=float)


def _parse_profile(obj, dimension: int) -> VelocityProfile:
    if not isinstance(obj, dict):
        raise FieldError("expected an object")
    if "atoms" in obj:
        _require_keys(obj, ("atoms",), ())
        if not isinstance(obj["atoms"], list) or not obj["atoms"]:
            raise FieldError("expected a non-empty list", "atoms")
        atoms = []
        for k, entry in enumerate(obj["atoms"]):
            with _fields_under(f"atoms[{k}]"):
                _require_keys(entry, ("angles", "weight", "c", "c1"), ())
                angles = _vector(entry, "angles")
                atoms.append(Atom(angles, *(_number(entry, key) for key in ("weight", "c", "c1"))))
        return VelocityProfile(dimension, atoms=tuple(atoms), name="custom_atoms")
    _require_keys(obj, ("name",), ("c", "c1"))
    kwargs = {key: _number(obj, key) for key in ("c", "c1") if key in obj}
    return builtin_profile(obj["name"], dimension, **kwargs)


def _parse_switching(obj):
    if obj is None:
        return UniformSphere()
    _require_keys(obj, ("kind",), ("angles", "probabilities"))
    kind = obj["kind"]
    if kind == "uniform_sphere":
        if "angles" in obj or "probabilities" in obj:
            raise FieldError("uniform_sphere takes no angles/probabilities")
        return UniformSphere()
    if kind != "discrete":
        raise FieldError("must be 'uniform_sphere' or 'discrete'", "kind")
    if "angles" not in obj or "probabilities" not in obj:
        raise FieldError("discrete switching needs angles and probabilities")
    rows = obj["angles"]
    if not isinstance(rows, list) or not rows:
        raise FieldError("expected a non-empty list of angle rows", "angles")
    angles = []
    for k, row in enumerate(rows):
        with _fields_under(f"angles[{k}]"):
            angles.append(_finite_list(row))
    return DiscreteSwitching(angles, _vector(obj, "probabilities"))


def _parse_evolution(obj) -> EvolutionConfig:
    _require_keys(
        obj,
        ("dimension", "epsilon", "horizon", "x0", "n_paths", "profile"),
        ("seed", "switching", "initial_direction"),
    )
    dimension = check_dimension(_integer(obj, "dimension"))  # the profile parser needs it
    with _fields_under("profile"):
        profile = _parse_profile(obj["profile"], dimension)
    initial = None
    if obj.get("initial_direction") is not None:
        initial = _vector(obj, "initial_direction")
    epsilon, horizon, x0 = _number(obj, "epsilon"), _number(obj, "horizon"), _vector(obj, "x0")
    n_paths, seed = _integer(obj, "n_paths"), _integer(obj, "seed", default=0)
    with _fields_under("switching"):
        switching = _parse_switching(obj.get("switching"))
    return EvolutionConfig(dimension, epsilon, profile, horizon, x0, n_paths, seed, switching,
                           initial)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description; its range checks raise
    FieldError. eps_sweep keeps its given order: the manifest echoes it."""

    mode: str
    evolution: EvolutionConfig
    grid_resolution: int = 32
    eps_sweep: tuple[float, ...] = DEFAULT_EPS_SWEEP
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FieldError(f"must be one of {list(MODES)}", "mode")
        with _fields_under("grid_resolution"):
            object.__setattr__(self, "grid_resolution", check_resolution(self.grid_resolution))
        object.__setattr__(self, "eps_sweep", tuple(float(e) for e in self.eps_sweep))
        with _fields_under("eps_sweep"):
            check_eps_sweep(self.eps_sweep, decades=1)  # the sweep `converge` runs
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise FieldError("expected a string path", "output_dir")

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "evolution": self.evolution.describe(),
            "grid_resolution": self.grid_resolution,
            "eps_sweep": list(self.eps_sweep),
            "output_dir": self.output_dir,
        }


def load_config(document: dict, mode: str, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw JSON document against the strict schema; a FieldError
    names the offending field by its dotted path from "config"."""
    with _fields_under("config"):
        _require_keys(document, ("evolution",), ("mode", "grid_resolution", "eps_sweep",
                                                 "output_dir"))
        if "mode" in document:
            if document["mode"] not in MODES:
                raise FieldError(f"must be one of {list(MODES)}", "mode")
            if document["mode"] != mode:
                raise FieldError(
                    f"config says {document['mode']!r} but subcommand is {mode!r}", "mode"
                )
        with _fields_under("evolution"):
            evolution = _parse_evolution(document["evolution"])
            if seed_override is not None:
                evolution = replace(evolution, seed=seed_override)
        grid_resolution = _integer(document, "grid_resolution", default=32)
        eps_sweep = DEFAULT_EPS_SWEEP
        if "eps_sweep" in document:
            eps_sweep = _vector(document, "eps_sweep")
        return ExperimentConfig(mode, evolution, grid_resolution, eps_sweep,
                                document.get("output_dir"))


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


_CSV_CHUNK_ROWS = 4096  # rows formatted at once: the Python floats of a chunk stay small


def _write_csv(path: Path, header: str, blocks: Iterable[np.ndarray], label: str = "") -> None:
    """Write the header line, then one line per row of each 2-D block.

    With a label such as "%d,", a row's first entry is written through it.
    Every other entry is written as "%.17g", the text of format(x, ".17g"):
    17 significant digits, so reruns are byte-identical.
    """
    with path.open("w") as handle:
        handle.write(header + "\n")
        for block in blocks:
            fmt = label + ",".join(["%.17g"] * (block.shape[1] - bool(label))) + "\n"
            for start in range(0, block.shape[0], _CSV_CHUNK_ROWS):
                rows = block[start : start + _CSV_CHUNK_ROWS].tolist()
                handle.write("".join([fmt % tuple(row) for row in rows]))


def _write_endpoints_csv(path: Path, points: np.ndarray) -> None:
    n_paths, n = points.shape
    header = "path_index," + ",".join(f"x{i + 1}" for i in range(n))
    _write_csv(path, header, [np.column_stack([np.arange(n_paths), points])], "%d,")


def _write_trajectories_csv(path: Path, config: EvolutionConfig) -> None:
    header = "path_index,t," + ",".join(f"x{i + 1}" for i in range(config.dimension))
    blocks = (
        np.column_stack([np.full(trajectory.positions.shape[0], idx), trajectory.times,
                         trajectory.positions])
        for idx, trajectory in enumerate(simulate_paths(config))
    )
    _write_csv(path, header, blocks, "%d,")


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_verify_operators(config: ExperimentConfig, out: Path) -> dict:
    evo = config.evolution
    grid = evo.switching.grid(evo.dimension, config.grid_resolution)
    # the identities hold to roundoff for any weights summing to 1: one field
    f = ThetaField(grid, np.random.default_rng(evo.seed).standard_normal(grid.size))
    pi_f = project_pi(f)
    idempotence = abs(project_pi(ThetaField(grid, np.full(grid.size, pi_f))) - pi_f)
    report: dict = {
        "dimension": evo.dimension,
        "identity_residuals": {
            "pi_idempotent": idempotence,
            "pi_q": abs(project_pi(apply_q(f))),
            "r0_q_identity": potential_identity_error(f),
        },
    }
    if isinstance(evo.switching, UniformSphere):  # closed forms of the uniform measure
        report["quadrature_residuals"] = quadrature_residuals(grid)
    limit = limit_coefficients(evo.profile, grid)
    report["limit_coefficients"] = {
        "drift": limit.drift.tolist(),
        "diffusion": limit.diffusion.tolist(),
        "drift_paper_sign": limit.drift_paper_sign.tolist(),
    }
    try:
        first = lab_limit_coefficients(evo.profile, grid)  # shared with the solve
    except ProfileError as exc:  # an atomic profile on a sphere grid
        report["residual_scaling"] = {"skipped": str(exc)}
    else:
        gap = max(np.max(np.abs(first.drift - limit.drift)),
                  np.max(np.abs(first.diffusion - limit.diffusion)))
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
        fit = residual_scaling(first, phi, evo.x0 + 0.25, sweep)
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
    _write_csv(out / "sweep.csv", "epsilon,metric,noise_floor,min_ks_pvalue",
               [np.column_stack(columns)])
    return payload


def _run_report(config: ExperimentConfig, out: Path) -> dict:
    evo = config.evolution
    limit = limit_for_config(evo, config.grid_resolution)
    target = gaussian_law_at(limit, evo.horizon, evo.x0)
    ensemble = simulate_ensemble(evo)
    summary = summarize(ensemble)
    ks = ks_marginals(ensemble, target)

    columns = (np.arange(1, evo.dimension + 1), summary.mean, summary.se_mean, target.mean,
               np.diag(summary.covariance), np.diag(target.covariance), ks.pvalues)
    _write_csv(out / "moments.csv",
               "coordinate,mean,se_mean,target_mean,variance,target_variance,ks_pvalue",
               [np.column_stack(columns)], "x%d,")

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
    else:  # "report": ExperimentConfig admits no other mode
        _run_report(config, out)
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
    config = None
    try:
        try:
            document = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise FieldError(f"cannot read config file: {exc}", "config") from exc
        except json.JSONDecodeError as exc:
            raise FieldError(f"invalid JSON: {exc}", "config") from exc
        config = load_config(document, args.mode, seed_override=args.seed)
        return run(
            config,
            out_dir=args.out,
            paper_sign=getattr(args, "paper_sign", False),
            full_trajectories=getattr(args, "full_trajectories", False),
        )
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
    except ResourceExhausted as exc:
        print(_error_json("resource", str(exc)))
        return 1
    except ValueError as exc:
        if config is None and isinstance(exc, FieldError):  # a bad value in the config
            print(_error_json("schema", f"{exc.field}: {exc}", path=exc.field))
            return 2
        print(_error_json("invalid", str(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
