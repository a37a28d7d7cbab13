"""Discretized generator algebra of the switching evolution.

The algebra needs only the switching law's stationary measure, which its
grid carries: a sphere grid under uniform switching, limits.finite_law_grid
under a finite law. On it the averaging projector, the switching generator
and the potential operator act on direction-dependent fields f(theta) as

    Pi f  = sum_m w_m f_m          (projects onto constants),
    Q f   = Pi f - f               (null-space: constants),
    R0 f  = Pi f - f               (inverts Q on mean-zero fields,
                                    annihilates constants),

satisfying Pi Pi = Pi, Q Pi = Pi Q = 0 and R0 Q = Q R0 = I - Pi exactly up
to roundoff. Q = Pi - I is minus the projection onto mean-zero fields, so
it is its own inverse there: R0 and Q share one formula, and apply_r0 is an
alias of apply_q kept under the paper's name.

The transport operator couples the direction to a smooth test function phi
on R^n. apply_s keeps the customary generator notation
S(theta) phi = -(s(theta), grad phi); everything in the perturbation solver
below instead uses the transport sign +(s, grad), the operator that actually
generates the simulated motion dx/dt = v * s(theta). This is the single
point where the two conventions meet: as a consequence all assembled limit
coefficients carry the physical drift E[c1 * s] and agree with the limits
module, while the opposite-sign functional stays available there as
drift_paper_sign.

The perturbation solver expands the generator

    L_eps = eps^-2 Q + eps^-1 c(theta) T(theta) + c1(theta) T(theta),
    T(theta) = (s(theta), grad),

on corrected test functions phi + eps*phi1 + eps^2*phi2 and solves the
resulting hierarchy exactly on the grid:

    phi1 = -R0 [c T phi]
    L0 phi = Pi [c T phi1] + Pi [c1 T phi]
    phi2 = -R0 [c T phi1 + c1 T phi]

so that L_eps (phi + eps phi1 + eps^2 phi2) - L0 phi
      = eps * (c T phi2 + c1 T phi1) + eps^2 * c1 T phi2

identically; the remainder is linear in eps up to the eps^2 tail, which
residual_scaling verifies empirically. Fields entering the hierarchy are
represented by their derivative coefficients ("jets"), so all operator
applications are exact contractions, not finite differences. phi, phi1 and
phi2 are jets of order at most two. The remainder terms c T phi2, c1 T phi1
and c1 T phi2 would be third-order jets of shape (M, n, n, n), but they are
only ever evaluated at the spatial point x, never averaged by Pi; so the
outer transport s is contracted into the derivatives of phi at x first
(_Jet.transported_values) and no third-order jet is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .limits import BalanceError
from .profiles import ProfileError, VelocityProfile, check_balance, grid_speeds
from .sphere import AngleVector, QuadratureGrid, directions_from_angles, sin_power_integral
from .rates import RateFit, check_eps_sweep, fit_loglog

__all__ = [
    "ThetaField",
    "TestFunction",
    "PerturbationSolution",
    "SolvabilityError",
    "project_pi",
    "apply_q",
    "apply_r0",
    "potential_identity_error",
    "quadrature_residuals",
    "apply_s",
    "gaussian_bump",
    "gaussian_monomial",
    "linear_function",
    "finite_difference_check",
    "lab_limit_coefficients",
    "solve_perturbation",
    "assembled_generator_residual",
    "residual_scaling",
]


class SolvabilityError(BalanceError):
    """Perturbation hierarchy unsolvable: the balance condition fails."""


# ---------------------------------------------------------------------------
# scalar fields over the grid


@dataclass(frozen=True)
class ThetaField:
    """A scalar function of the direction, sampled at the grid nodes."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.size,):
            raise ValueError(
                f"field has {values.shape} values for a grid of size {self.grid.size}"
            )


def project_pi(f: ThetaField) -> float:
    """Average of the field over the grid's measure (the projector onto
    constants): the sphere average on a sphere grid, the expectation under
    the law on a finite-law grid. Profile atoms never alter the measure."""
    return f.grid.average(f.values)


def apply_q(f: ThetaField) -> ThetaField:
    """Switching generator: Pi f - f. Also the potential operator R0."""
    return ThetaField(f.grid, project_pi(f) - f.values)


# Potential operator: Pi f - f; inverts Q on mean-zero fields.
apply_r0 = apply_q


def potential_identity_error(f: ThetaField) -> float:
    """Sup-norm of R0(Q f) - (f - Pi f); zero up to roundoff for any field."""
    lhs = apply_r0(apply_q(f)).values
    rhs = f.values - project_pi(f)
    return float(np.max(np.abs(lhs - rhs)))


def quadrature_residuals(grid: QuadratureGrid) -> dict[str, float]:
    """Errors of a sphere grid's Pi against closed forms of the uniform measure:
    pi_s = max |Pi s_i|, pi_ss = max |Pi s_i s_j - delta_ij/n| and, for
    n >= 3, sin_powers = max |Pi sin^k theta_i - I(e+k)/I(e)| over k = 1, 2
    and the polar angles theta_i (density sin^e, e = n-1-i; I is
    sin_power_integral). Unlike the identities of Pi, Q and R0, which hold to
    roundoff for any weights summing to 1, these show a coarse grid."""
    n, w, s = grid.dimension, grid.weights, grid.directions
    report = {
        "pi_s": float(np.max(np.abs(w @ s))),
        "pi_ss": float(np.max(np.abs((s.T * w) @ s - np.eye(n) / n))),
    }
    errors = [
        abs(float(w @ np.sin(grid.nodes[:, i - 1]) ** k)
            - sin_power_integral(n - 1 - i + k) / sin_power_integral(n - 1 - i))
        for i in range(1, n - 1)
        for k in (1, 2)
    ]
    if errors:
        report["sin_powers"] = max(errors)
    return report


# ---------------------------------------------------------------------------
# smooth test functions with analytic derivatives


@dataclass(frozen=True)
class TestFunction:
    """Smooth function on R^n with analytic derivatives up to third order.

    third may be None when the residual machinery is not needed.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray] | None = None


def gaussian_bump(center: np.ndarray, width: float) -> TestFunction:
    """exp(-|x - center|^2 / (2 width^2)) with closed-form derivatives.

    Not compactly supported, but decays fast enough that no estimate here
    depends on the tails.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    w2 = float(width) ** 2

    def value(x):
        u = np.asarray(x, dtype=float) - center
        return float(np.exp(-0.5 * np.dot(u, u) / w2))

    def gradient(x):
        u = np.asarray(x, dtype=float) - center
        return (-u / w2) * value(x)

    def hessian(x):
        u = np.asarray(x, dtype=float) - center
        return (np.outer(u, u) / w2**2 - np.eye(n) / w2) * value(x)

    def third(x):
        u = np.asarray(x, dtype=float) - center
        eye = np.eye(n)
        t = -np.einsum("i,j,k->ijk", u, u, u) / w2**3
        t += (
            np.einsum("ij,k->ijk", eye, u)
            + np.einsum("ik,j->ijk", eye, u)
            + np.einsum("jk,i->ijk", eye, u)
        ) / w2**2
        return t * value(x)

    return TestFunction(n, value, gradient, hessian, third)


def gaussian_monomial(center: np.ndarray, width: float, axis: int) -> TestFunction:
    """(x_axis - center_axis) * gaussian_bump(center, width)."""
    g = gaussian_bump(center, width)
    center = np.asarray(center, dtype=float)
    n = center.size
    if not 0 <= axis < n:
        raise ValueError(f"axis must lie in [0, {n}), got {axis}")

    def value(x):
        u = np.asarray(x, dtype=float) - center
        return float(u[axis]) * g.value(x)

    def gradient(x):
        u = np.asarray(x, dtype=float) - center
        grad = u[axis] * g.gradient(x)
        grad[axis] += g.value(x)
        return grad

    def hessian(x):
        u = np.asarray(x, dtype=float) - center
        gg = g.gradient(x)
        h = u[axis] * g.hessian(x)
        h[axis, :] += gg
        h[:, axis] += gg
        return h

    def third(x):
        u = np.asarray(x, dtype=float) - center
        gh = g.hessian(x)
        t = u[axis] * g.third(x)
        t[axis, :, :] += gh
        t[:, axis, :] += gh
        t[:, :, axis] += gh
        return t

    return TestFunction(n, value, gradient, hessian, third)


def linear_function(coefficients: np.ndarray, constant: float = 0.0) -> TestFunction:
    """a . x + b; zero Hessian and third derivatives."""
    a = np.asarray(coefficients, dtype=float)
    n = a.size

    return TestFunction(
        n,
        value=lambda x: float(np.dot(a, np.asarray(x, dtype=float)) + constant),
        gradient=lambda x: a.copy(),
        hessian=lambda x: np.zeros((n, n)),
        third=lambda x: np.zeros((n, n, n)),
    )


def finite_difference_check(
    phi: TestFunction, rng: np.random.Generator, n_points: int = 100, h: float = 1e-5
) -> tuple[float, float]:
    """Max relative error of (gradient vs FD of value, hessian vs FD of gradient)."""
    n = phi.dimension
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.5, 1.5, size=n)
        grad = phi.gradient(x)
        hess = phi.hessian(x)
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_g = (phi.value(x + e) - phi.value(x - e)) / (2 * h)
            worst_g = max(worst_g, abs(fd_g - grad[i]) / scale_g)
            fd_h = (phi.gradient(x + e) - phi.gradient(x - e)) / (2 * h)
            worst_h = max(worst_h, float(np.max(np.abs(fd_h - hess[i]))) / scale_h)
    return worst_g, worst_h


def apply_s(theta: AngleVector, phi: TestFunction, x: np.ndarray) -> float:
    """Directional transport in generator notation: -(s(theta), grad phi(x))."""
    if theta.dimension != phi.dimension:
        raise ValueError(
            f"angle dimension {theta.dimension} != test function dimension {phi.dimension}"
        )
    s = directions_from_angles(theta.angles)
    return -float(np.dot(s, phi.gradient(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# derivative-coefficient fields (jets) over the grid


class _Jet:
    """Per-node coefficient tensors of a differential operator applied to phi.

    coeffs[k] has shape (M, n, ..., n) with k trailing direction axes; the
    represented field at node m is sum_k coeffs[k][m] . (k-th derivative of
    phi at x). A None entry is identically zero. pi returns a jet with leading
    axis 1, which + and - broadcast against per-node jets. Jets are stored up
    to second order, at most (M, n, n); the transport of a second-order jet
    is only needed at x and is contracted there by transported_values.
    """

    __slots__ = ("n_nodes", "coeffs")

    def __init__(self, n_nodes: int, coeffs: dict[int, np.ndarray]):
        self.n_nodes = n_nodes
        self.coeffs = coeffs

    @classmethod
    def identity(cls, n_nodes: int) -> "_Jet":
        return cls(n_nodes, {0: np.ones((n_nodes,))})

    def pi(self, weights: np.ndarray) -> "_Jet":
        out = {}
        for k, arr in self.coeffs.items():
            out[k] = np.einsum("m...,m->...", arr, weights)[None, ...]
        return _Jet(self.n_nodes, out)

    def transport(self, directions: np.ndarray) -> "_Jet":
        """(s, grad): raises each order k to k+1 with a leading s factor."""
        out = {}
        for k, arr in self.coeffs.items():
            if k + 1 > 2:
                raise ValueError(
                    "jets are stored up to second order; evaluate the transport "
                    "of a second-order jet with transported_values"
                )
            out[k + 1] = np.einsum("mi,m...->mi...", directions, arr)
        return _Jet(self.n_nodes, out)

    def scaled(self, factor: np.ndarray) -> "_Jet":
        factor = np.asarray(factor, dtype=float)
        out = {}
        for k, arr in self.coeffs.items():
            out[k] = arr * factor.reshape(factor.shape + (1,) * k)
        return _Jet(self.n_nodes, out)

    def __add__(self, other: "_Jet") -> "_Jet":
        out = dict()
        for k in set(self.coeffs) | set(other.coeffs):
            a = self.coeffs.get(k)
            b = other.coeffs.get(k)
            if a is None:
                out[k] = b.copy()
            elif b is None:
                out[k] = a.copy()
            else:
                out[k] = a + b
        return _Jet(self.n_nodes, out)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return self + other.scaled(np.asarray(-1.0))

    def evaluate(self, phi: TestFunction, x: np.ndarray) -> np.ndarray:
        """Field values at every node for the spatial point x."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(self.n_nodes)
        for k, arr in sorted(self.coeffs.items()):
            if k == 0:
                term = arr * phi.value(x)
            elif k == 1:
                term = arr @ phi.gradient(x)
            else:
                term = np.einsum("mij,ij->m", arr, phi.hessian(x))
            total = total + term
        return total

    def transported_values(
        self, directions: np.ndarray, phi: TestFunction, x: np.ndarray
    ) -> np.ndarray:
        """Values at x of self.transport(directions), without building it.

        The outer s is contracted into the (k+1)-th derivative of phi at x
        first (s . grad, s . hess, s . third, each at most (M, n, n)) and the
        result is then contracted with coeffs[k].
        """
        x = np.asarray(x, dtype=float)
        total = np.zeros(self.n_nodes)
        for k, arr in sorted(self.coeffs.items()):
            if k == 0:
                s_deriv = directions @ phi.gradient(x)
            elif k == 1:
                s_deriv = directions @ phi.hessian(x)
            else:
                if phi.third is None:
                    raise ValueError(
                        "third derivatives of the test function are required "
                        "for residual evaluation; construct it with an "
                        "analytic third-derivative tensor"
                    )
                s_deriv = np.einsum("mi,ijk->mjk", directions, phi.third(x))
            arr = arr.reshape(self.n_nodes, -1)
            s_deriv = s_deriv.reshape(self.n_nodes, -1)
            total = total + np.einsum("mi,mi->m", arr, s_deriv)
        return total


def _node_speeds(profile: VelocityProfile, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    c, c1, atoms = grid_speeds(profile, grid)
    if atoms:
        raise ProfileError("atoms are point masses that no node of a sphere grid carries; "
                           "the hierarchy takes them on a finite law's grid only")
    return c, c1


def lab_limit_coefficients(
    profile: VelocityProfile, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(drift, diffusion) assembled through the operator hierarchy.

    drift_i = Pi[c1 s_i]; diffusion is Pi[c s ox (-R0 c s)], i.e. the
    second-order coefficient of Pi[c T phi1]: E[c^2 s_i s_j] minus the rank-one
    correction E[c s_i] E[c s_j] (zero under exact balance). Works directly
    with (M, n) contractions so it scales to fine grids in high dimension.
    """
    c, c1 = _node_speeds(profile, grid)
    s = grid.directions
    w = grid.weights
    b = c[:, None] * s
    mean_b = w @ b
    centered = b - mean_b
    diffusion = np.einsum("m,mk,mi->ki", w * c, s, centered)
    diffusion = 0.5 * (diffusion + diffusion.T)
    drift = w @ (c1[:, None] * s)
    return drift, diffusion


@dataclass(frozen=True)
class PerturbationSolution:
    """Solved corrector hierarchy at a fixed spatial point.

    phi1 and phi2 are the corrector fields evaluated at x; limit_value is
    L0 phi(x); drift and diffusion are the assembled generator coefficients
    (physical sign). residual(eps) returns the sup over nodes of the exact
    remainder eps * r1 + eps^2 * r2.
    """

    grid: QuadratureGrid
    point: np.ndarray
    phi1: ThetaField
    phi2: ThetaField
    limit_value: float
    drift: np.ndarray
    diffusion: np.ndarray
    _r1_values: np.ndarray
    _r2_values: np.ndarray

    def residual(self, eps: float) -> float:
        return float(np.max(np.abs(eps * self._r1_values + eps**2 * self._r2_values)))


def solve_perturbation(
    profile: VelocityProfile,
    phi: TestFunction,
    x: np.ndarray,
    grid: QuadratureGrid,
) -> PerturbationSolution:
    """Solve the corrector hierarchy for the given profile and test function.

    Requires the balance condition; otherwise raises SolvabilityError naming
    the residual vector. The correctors are exact on the grid, so the
    assembled remainder is identically eps * r1 + eps^2 * r2.
    """
    report = check_balance(profile, grid)
    if not report.satisfied:
        raise SolvabilityError(report)
    if phi.dimension != grid.dimension:
        raise ValueError(
            f"test function dimension {phi.dimension} != grid dimension {grid.dimension}"
        )
    x = np.asarray(x, dtype=float)
    c, c1 = _node_speeds(profile, grid)
    s = grid.directions
    w = grid.weights
    m = grid.size

    jet_phi = _Jet.identity(m)
    c_t_phi = jet_phi.transport(s).scaled(c)
    phi1 = c_t_phi - c_t_phi.pi(w)              # -R0 [c T phi]
    order_zero = phi1.transport(s).scaled(c) + jet_phi.transport(s).scaled(c1)
    l0 = order_zero.pi(w)
    phi2 = order_zero - l0                       # -R0 [c T phi1 + c1 T phi]
    del order_zero
    # r1 = c T phi2 + c1 T phi1 and r2 = c1 T phi2, evaluated at x only
    t_phi1 = phi1.transported_values(s, phi, x)
    t_phi2 = phi2.transported_values(s, phi, x)

    drift = l0.coeffs[1][0]
    diffusion = l0.coeffs[2][0]
    diffusion = 0.5 * (diffusion + diffusion.T)
    limit_value = float(drift @ phi.gradient(x) + np.sum(diffusion * phi.hessian(x)))

    solution = PerturbationSolution(
        grid=grid,
        point=x,
        phi1=ThetaField(grid, phi1.evaluate(phi, x)),
        phi2=ThetaField(grid, phi2.evaluate(phi, x)),
        limit_value=limit_value,
        drift=drift,
        diffusion=diffusion,
        _r1_values=c * t_phi2 + c1 * t_phi1,
        _r2_values=c1 * t_phi2,
    )
    object.__setattr__(solution, "_jets", (jet_phi, phi1, phi2))
    object.__setattr__(solution, "_speeds", (c, c1))
    object.__setattr__(solution, "_phi", phi)
    return solution


def assembled_generator_residual(solution: PerturbationSolution, eps: float) -> float:
    """Sup-node |L_eps phi_eps - L0 phi| assembled term by term.

    Applies eps^-2 Q + eps^-1 c T + c1 T to phi + eps phi1 + eps^2 phi2
    directly, without using the closed-form remainder; agreement with
    solution.residual(eps) certifies the hierarchy solve.
    """
    grid = solution.grid
    jet_phi, jet_phi1, jet_phi2 = solution._jets
    c, c1 = solution._speeds
    phi = solution._phi
    w = grid.weights
    s = grid.directions

    x = solution.point
    phi_eps = jet_phi + jet_phi1.scaled(np.asarray(eps)) + jet_phi2.scaled(np.asarray(eps**2))
    q_part = (phi_eps.pi(w) - phi_eps).scaled(np.asarray(eps**-2))
    transport = phi_eps.transported_values(s, phi, x)
    values = q_part.evaluate(phi, x) + (c / eps) * transport + c1 * transport
    return float(np.max(np.abs(values - solution.limit_value)))


def residual_scaling(
    profile: VelocityProfile,
    phi: TestFunction,
    x: np.ndarray,
    grid: QuadratureGrid,
    eps_list,
) -> RateFit:
    """Log-log slope of the perturbation remainder across epsilon values.

    Requires a sweep that meets check_eps_sweep over two decades. When every
    residual is below 1e-14 the fit is reported as exact (this happens for
    test functions whose relevant derivatives vanish identically).
    """
    eps = check_eps_sweep(eps_list, decades=2)
    solution = solve_perturbation(profile, phi, x, grid)
    residuals = np.array([solution.residual(float(e)) for e in eps])
    return fit_loglog(eps, residuals)
