"""Epsilon sweeps and log-log rate fits of a metric against epsilon.

Both the convergence sweep (stats) and the perturbation remainder check
(operator_lab) fit log(metric) against log(eps) over a sweep of epsilon
values; this module holds the rule such a sweep must meet and that fit,
with no dependency beyond numpy and sphere's FieldError, so the
deterministic layers can use it without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import FieldError

__all__ = ["RateFit", "check_eps_sweep", "fit_loglog"]


def check_eps_sweep(eps_values, decades: int) -> np.ndarray:
    """The sweep sorted by decreasing epsilon; raises FieldError unless it has
    at least 4 values, each in (0, 1], spanning at least `decades` decades."""
    eps = np.asarray(sorted(eps_values, reverse=True), dtype=float)
    if eps.size < 4:
        raise FieldError("need at least 4 epsilon values")
    if not np.all((eps > 0.0) & (eps <= 1.0)):
        raise FieldError("epsilon values must lie in (0, 1]")
    if eps[0] / eps[-1] < 10.0**decades:
        raise FieldError(f"epsilon values must span at least {decades} decade(s)")
    return eps


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of a metric against epsilon."""

    eps_values: np.ndarray
    metric_values: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    exact: bool = False       # all metric values below 1e-14
    plateau: bool = False     # some points excluded as noise-floor plateau
    n_used: int = 0


def fit_loglog(
    eps_values: np.ndarray, metric_values: np.ndarray, used: np.ndarray | None = None
) -> RateFit:
    """Least-squares slope of log(metric) vs log(eps) over the used points."""
    eps_values = np.asarray(eps_values, dtype=float)
    metric_values = np.asarray(metric_values, dtype=float)
    if used is None:
        used = np.ones(eps_values.shape, dtype=bool)
    if np.all(metric_values < 1e-14):
        return RateFit(
            eps_values, metric_values, float("nan"), float("nan"), float("nan"),
            exact=True, n_used=0,
        )
    used = used & (metric_values > 0.0)
    plateau = bool(np.any(~used))
    x = np.log(eps_values[used])
    y = np.log(metric_values[used])
    if x.size < 2 or np.all(x == x[0]):  # not np.unique, which imports numpy.ma
        return RateFit(
            eps_values, metric_values, float("nan"), float("nan"), float("nan"),
            plateau=plateau, n_used=int(used.sum()),
        )
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(
        eps_values, metric_values, float(slope), float(intercept), r2,
        plateau=plateau, n_used=int(used.sum()),
    )
