"""Exact reference values for the benchmark's output checks.

Everything here is derived in closed form from the model, independently of
``revolve.limits``:

* Finite-eps endpoint moments under a stationary start (the first direction
  is drawn from the switching law). Velocities then decorrelate as
  ``exp(-|t - u| / eps^2)``, so at any eps

      E[X_T]   = x0 + d T
      Cov X_T  = 2 Sigma_v (eps^2 T - eps^4 (1 - exp(-T / eps^2)))

  with ``d = E[v s]`` and ``Sigma_v = E[v^2 s s^T] - d d^T``.
* Limit drift and diffusion of the three builtin continuous profiles at
  n = 5.

``python3 bench/oracle.py`` runs the self-test: ``eps^2 Sigma_v`` must tend
to the program's limit diffusion as eps -> 0, and the closed forms must
match the program's quadrature.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np


def stationary_endpoint_moments(
    x0: np.ndarray, drift: np.ndarray, sigma_v: np.ndarray, eps: float, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of X_T for a stationary start."""
    mean = np.asarray(x0, dtype=float) + drift * horizon
    memory = eps**2 * horizon - eps**4 * (1.0 - math.exp(-horizon / eps**2))
    return mean, 2.0 * sigma_v * memory


def step_half_sphere_velocity(eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(d, Sigma_v) for step_half_sphere, n = 3, c = c1 = 1, uniform switching.

    v = 1/eps + 1{s_3 < 0}. Over the uniform sphere E[s s^T] = I/3, and the
    half sphere s_3 < 0 carries E[s; s_3 < 0] = (0, 0, -1/4) and
    E[s s^T; s_3 < 0] = I/6.
    """
    drift = np.array([0.0, 0.0, -0.25])
    second = (1.0 / (3.0 * eps**2) + (2.0 / eps + 1.0) / 6.0) * np.eye(3)
    return drift, second - np.outer(drift, drift)


def example3_discrete_velocity(eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(d, Sigma_v) for example3_atoms under discrete switching, 1/3 each.

    The atoms at angles 0 and pi move at 1/eps along +e1 and -e1; the atom
    at pi/2 moves at 1 along +e2.
    """
    drift = np.array([0.0, 1.0 / 3.0])
    second = np.diag([2.0 / (3.0 * eps**2), 1.0 / 3.0])
    return drift, second - np.outer(drift, drift)


def limits_n5(profile: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (drift, diffusion) at n = 5, c = c1 = 1 where they apply."""
    if profile == "msre_const":
        return np.zeros(5), np.eye(5) / 5.0
    if profile == "sin_theta1":
        return np.zeros(5), np.diag([4.0, 6.0, 6.0, 6.0, 6.0]) / 35.0
    if profile == "step_half_sphere":
        return np.array([0.0, 0.0, 0.0, 0.0, -3.0 / 16.0]), np.eye(5) / 5.0
    raise KeyError(profile)


def selftest() -> list[str]:
    """Compare the oracle with revolve.limits; return the failures."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from revolve.limits import discrete_limit_coefficients, limit_coefficients
    from revolve.profiles import builtin_profile
    from revolve.sphere import build_grid

    failures = []
    step = limit_coefficients(builtin_profile("step_half_sphere", 3), build_grid(3, 32))
    atoms = np.array([[0.0], [math.pi], [math.pi / 2.0]])
    c, c1 = builtin_profile("example3_atoms", 2).values_at(atoms)
    discrete = discrete_limit_coefficients(2, atoms, np.full(3, 1.0 / 3.0), c, c1)
    for label, velocity, limit in (
        ("step_half_sphere n=3", step_half_sphere_velocity, step),
        ("example3_atoms discrete", example3_discrete_velocity, discrete),
    ):
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            drift, sigma_v = velocity(eps)
            gaps.append(float(np.max(np.abs(eps**2 * sigma_v - limit.diffusion))))
            if np.max(np.abs(drift - limit.drift)) > 1e-12:
                failures.append(f"{label}: drift {drift} != program {limit.drift}")
        print(f"{label}: max |eps^2 Sigma_v - A| at eps 1e-1..1e-4 = {gaps}")
        # the gap is (2 c c1 eps + O(eps^2)) / 6 or smaller: it must fall with eps
        if not all(b < a for a, b in zip(gaps, gaps[1:])) or gaps[-1] > 1e-4:
            failures.append(f"{label}: eps^2 Sigma_v does not tend to the limit diffusion")

    grid = build_grid(5, 16)
    for name in ("msre_const", "sin_theta1", "step_half_sphere"):
        drift, diffusion = limits_n5(name)
        limit = limit_coefficients(builtin_profile(name, 5), grid)
        gap = max(
            float(np.max(np.abs(drift - limit.drift))),
            float(np.max(np.abs(diffusion - limit.diffusion))),
        )
        print(f"{name} n=5: max |closed form - quadrature| = {gap:.3e}")
        if gap > 1e-10:
            failures.append(f"{name} n=5: closed form differs from quadrature by {gap:.3e}")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for line in problems:
        print("FAIL:", line)
    print("oracle self-test:", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)
