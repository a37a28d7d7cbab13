"""Discretized generator algebra of the switching evolution.

The algebra needs only the switching law's stationary measure, which its
grid carries (law.grid in limits): a sphere grid under uniform switching,
with a node at each atom of the profile, and the law's own directions under
a finite law. On it the averaging projector,
the switching generator and the potential operator act on
direction-dependent fields f(theta) as

    Pi f  = sum_m w_m f_m          (projects onto constants),
    Q f   = Pi f - f               (null-space: constants),
    R0 f  = Pi f - f               (inverts Q on mean-zero fields,
                                    annihilates constants),

satisfying Pi Pi = Pi, Q Pi = Pi Q = 0 and R0 Q = Q R0 = I - Pi exactly up
to roundoff. Q = Pi - I is minus the projection onto mean-zero fields, so
it is its own inverse there: R0 and Q share one formula, apply_q.

The transport operator couples the direction to a smooth test function phi
on R^n. The customary generator notation writes it
S(theta) phi = -(s(theta), grad phi); the perturbation solver below instead
uses the transport sign +(s, grad), the operator that actually generates the
simulated motion dx/dt = v * s(theta). As a consequence all assembled limit
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
residual_scaling verifies empirically. The correctors are held as their
derivative coefficients at the nodes, so every operator application is an
exact contraction, not a finite difference. With s = grid.directions,

    a1 = c s - Pi[c s]                  (M, n):    phi1 = a1 . grad phi
    b1 = c1 s - Pi[c1 s]                (M, n)
    b2 = c s (x) a1 - Pi[c s (x) a1]    (M, n, n): phi2 = b1 . grad phi + b2 : hess phi

and L0 phi = drift . grad phi + diffusion : hess phi with drift = Pi[c1 s]
and D = Pi[c s (x) a1], whose symmetric part is the diffusion.

The solve has two halves. The first-order half (lab_limit_coefficients)
reads the profile once and holds c, c1, the drift, the diffusion and
Pi[c s]: the lab route to the limit coefficients, and all the solve needs
of the grid. a1 is rebuilt from c, s and Pi[c s] where it is needed, with
the same bits. The point half (solve_perturbation) takes it as an argument
and evaluates phi2 and the remainder terms c T phi2, c1 T phi1 and c1 T phi2
at the spatial point x only, never averaged by Pi. So b1, b2 and the
(M, n, n, n) coefficients of T phi2 are never built: s is contracted into
the derivatives of phi at x, and since hess phi and s . third phi are
symmetric, D may be replaced by the diffusion,

    b1 . grad phi           = c1 (s . grad phi) - drift . grad phi
    b2 : hess phi           = c (s . hess phi . a1) - diffusion : hess phi
    (s, grad)(b2 : hess phi) = c third phi[s, s, a1] - diffusion : (s . third phi)

with third phi[s, s, a1] = sum_j a1_j (s . third_j phi . s).

Both halves run over slabs of nodes (sphere._node_slabs), so no (M, n)
array is built. The first-order half's node sums are sphere._node_sum: one
two-operand einsum per slab, the running sum carried in as identity rows,
which add it exactly and +-0.0 besides (a sum that starts at +0.0 is never
-0.0, so +-0.0 moves nothing), with the bits of the einsum over whole
arrays. The point half yields each slab's phi1, phi2, r1 and r2:
solve_perturbation assembles the four (M,) outputs, and residual_scaling
takes its maxima slab by slab and holds none of them. Memory grows as M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .limits import BalanceError
from .profiles import BalanceReport, VelocityProfile, balance_report, grid_speeds
from .sphere import QuadratureGrid, _node_slabs, _node_sum, grid_axes, sin_power_integral
from .rates import RateFit, check_eps_sweep, fit_loglog

__all__ = [
    "ThetaField",
    "TestFunction",
    "FirstOrderHalf",
    "PerturbationSolution",
    "SolvabilityError",
    "project_pi",
    "apply_q",
    "identity_residuals",
    "seeded_field",
    "potential_identity_error",
    "quadrature_residuals",
    "gaussian_bump",
    "lab_limit_coefficients",
    "solve_perturbation",
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
    constants): the expectation under the switching law whose grid it is."""
    return f.grid.average(f.values)


def apply_q(f: ThetaField) -> ThetaField:
    """Switching generator: Pi f - f. Also the potential operator R0."""
    return ThetaField(f.grid, project_pi(f) - f.values)


def identity_residuals(f: ThetaField) -> dict[str, float]:
    """The identities of Pi, Q and R0 on f, each zero up to roundoff for any
    weights summing to 1: pi_idempotent = |Pi (Pi f) - Pi f| (Pi of the
    constant field Pi f), pi_q = |Pi Q f| and r0_q_identity = sup-norm of
    R0(Q f) - (f - Pi f).

    Two (M,) buffers hold every step, with the elementwise operations of
    project_pi (grid.average) and apply_q in the same order, so each value
    has the bits of those functions composed."""
    w, v = f.grid.weights, f.values
    scratch = np.multiply(w, v)
    pi_f = float(np.sum(scratch))                               # Pi f
    pi_pi_f = float(np.sum(np.multiply(w, pi_f, out=scratch)))
    q = np.subtract(pi_f, v)                                    # Q f
    pi_q = float(np.sum(np.multiply(w, q, out=scratch)))
    np.subtract(pi_q, q, out=q)                                 # R0 (Q f), R0 = Q
    np.subtract(q, np.subtract(v, pi_f, out=scratch), out=q)
    return {"pi_idempotent": abs(pi_pi_f - pi_f), "pi_q": abs(pi_q),
            "r0_q_identity": float(np.max(np.abs(q, out=q)))}


def seeded_field(grid: QuadratureGrid, seed: int) -> ThetaField:
    """A pseudo-random field of the seed for the identity checks: at node m
    the (m+1)-th output z of splitmix64 seeded with seed (0 <= seed < 2^64),
    mapped exactly to (z >> 11) * 2^-52 - 1 in [-1, 1). Integer arithmetic
    mod 2^64 only, so the bits are the same on every platform."""
    z = np.arange(1, grid.size + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)  # splitmix64's state step, then its output mix
    z += np.uint64(seed)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return ThetaField(grid, z.astype(float) * 2.0**-52 - 1.0)


def potential_identity_error(f: ThetaField) -> float:
    """Sup-norm of R0(Q f) - (f - Pi f); zero up to roundoff for any field."""
    return identity_residuals(f)["r0_q_identity"]


def quadrature_residuals(grid: QuadratureGrid, resolution: int) -> dict[str, float]:
    """Errors of build_grid(n, resolution)'s Pi against closed forms of the
    uniform measure: pi_s = max |Pi s_i|, pi_ss = max |Pi s_i s_j - delta_ij/n|
    and, for n >= 3, sin_powers = max |Pi sin^k theta_i - I(e+k)/I(e)| over
    k = 1, 2 and the polar angles theta_i (density sin^e, e = n-1-i; I is
    sin_power_integral), sin theta_i taken on its axis (grid_axes). Unlike
    the identities of Pi, Q and R0, which hold to roundoff for any weights
    summing to 1, these show a coarse grid. Raises ValueError unless grid
    has build_grid(n, resolution)'s node count and no point nodes."""
    n, w, s = grid.dimension, grid.weights, grid.directions
    axes = grid_axes(n, resolution)
    shape = tuple(theta.size for theta, _ in axes)
    if grid.size != math.prod(shape) or grid.point_nodes != grid.size:
        raise ValueError(
            f"a grid of {grid.size} nodes, {grid.size - grid.point_nodes} of them point "
            f"nodes, is not build_grid({n}, {resolution}): {math.prod(shape)} sphere nodes"
        )
    # Pi[s s^T] one slab of nodes at a time, with no (n, M) product; the
    # slab products are added pairwise (numpy's sum along a contiguous axis),
    # since a running sum over many small slabs would lose digits
    slabs = np.stack([(s[sl].T * w[sl]) @ s[sl] for sl in _node_slabs(grid.size)], axis=-1)
    report = {
        "pi_s": float(np.max(np.abs(np.einsum("m,mi->i", w, s)))),
        "pi_ss": float(np.max(np.abs(slabs.sum(axis=-1) - np.eye(n) / n))),
    }
    errors = []
    for i in range(1, n - 1):
        along = [1] * (n - 1)
        along[i - 1] = shape[i - 1]
        sin_i = np.broadcast_to(np.sin(axes[i - 1][0]).reshape(along), shape).reshape(-1)
        errors += [
            abs(grid.average(sin_i**k)
                - sin_power_integral(n - 1 - i + k) / sin_power_integral(n - 1 - i))
            for k in (1, 2)
        ]
    if errors:
        report["sin_powers"] = max(errors)
    return report


# ---------------------------------------------------------------------------
# smooth test functions with analytic derivatives


@dataclass(frozen=True)
class TestFunction:
    """Smooth function on R^n with analytic derivatives up to third order."""

    __test__ = False  # keep pytest from collecting this as a test class

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]


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


# ---------------------------------------------------------------------------
# the hierarchy: a first-order half over the grid, a point half at x


@dataclass(frozen=True)
class FirstOrderHalf:
    """The half of the hierarchy that does not depend on the test function.

    c and c1 are the node speeds, drift = Pi[c1 s] and diffusion the
    symmetric part of Pi[c s (x) a1]. balance is the verdict on Pi[c s],
    which the solve needs. The (M, n) first corrector a1 is not kept:
    first_corrector rebuilds it, whole or on a slab of nodes.
    """

    grid: QuadratureGrid
    c: np.ndarray
    c1: np.ndarray
    drift: np.ndarray
    diffusion: np.ndarray
    balance: BalanceReport

    def first_corrector(self, nodes: slice = slice(None)) -> np.ndarray:
        """a1 = c s - Pi[c s] on the nodes, (k, n), with the bits that the
        diffusion sum used: Pi[c s] is balance.residual_vector."""
        return _first_corrector(self.c[nodes], self.grid.directions[nodes],
                                self.balance.residual_vector)


def _first_corrector(c: np.ndarray, s: np.ndarray, fast_mean: np.ndarray) -> np.ndarray:
    """a1 = c s - Pi[c s] at the nodes of c and s, Pi[c s] being fast_mean."""
    a1 = c[:, None] * s
    a1 -= fast_mean                             # phi1 = -R0 [c T phi]
    return a1


def lab_limit_coefficients(profile: VelocityProfile, grid: QuadratureGrid) -> FirstOrderHalf:
    """The first-order half, from one reading of the profile: the drift and
    diffusion assembled through the operator hierarchy, and the node
    quantities the solve goes on from.

    drift_i = Pi[c1 s_i]; diffusion is Pi[c s ox (-R0 c s)], i.e. the
    second-order coefficient of Pi[c T phi1]: E[c^2 s_i s_j] minus the rank-one
    correction E[c s_i] E[c s_j] (zero under exact balance). Each node sum is
    sphere._node_sum, whose order numpy fixes whatever the number of BLAS
    threads, with the bits of one einsum over whole (M, n) arrays; the
    diffusion's products are (w c s_k) a1_i.
    """
    c, c1 = grid_speeds(profile, grid)
    s, w = grid.directions, grid.weights
    slabs = _node_slabs(grid.size)
    drift = _node_sum((w[nodes], c1[nodes, None] * s[nodes]) for nodes in slabs)
    fast_mean = _node_sum((w[nodes], c[nodes, None] * s[nodes]) for nodes in slabs)
    diffusion = _node_sum(((w[nodes] * c[nodes])[:, None] * s[nodes],
                           _first_corrector(c[nodes], s[nodes], fast_mean))
                          for nodes in slabs)
    return FirstOrderHalf(grid, c, c1, drift, 0.5 * (diffusion + diffusion.T),
                          balance_report(fast_mean))


@dataclass(frozen=True)
class PerturbationSolution:
    """Solved corrector hierarchy at a fixed spatial point.

    phi1 and phi2 are the corrector fields evaluated at x; limit_value is
    L0 phi(x); first is the first-order half the solve went on from, with the
    assembled generator coefficients (physical sign); residual(eps) is the sup
    over nodes of the exact remainder eps * r1 + eps^2 * r2.
    """

    first: FirstOrderHalf
    point: np.ndarray
    test_function: TestFunction
    phi1: ThetaField
    phi2: ThetaField
    limit_value: float
    r1: np.ndarray
    r2: np.ndarray

    def residual(self, eps: float) -> float:
        return float(np.max(np.abs(eps * self.r1 + eps**2 * self.r2)))


def _point_half(
    first: FirstOrderHalf, phi: TestFunction, x: np.ndarray
) -> tuple[float, Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """L0 phi(x), and an iterator of (nodes, phi1, phi2, r1, r2) over the
    node slabs of sphere._node_slabs, in order.

    Requires the balance condition; otherwise raises SolvabilityError naming
    the residual vector. Every (k, n) temporary lives in one slab's call.
    Slabs of 1000 rows or more gave the whole grid's bits on every grid
    tried; for a few rows BLAS may take other kernels, with other bits.
    """
    if not first.balance.satisfied:
        raise SolvabilityError(first.balance)
    grid = first.grid
    if phi.dimension != grid.dimension:
        raise ValueError(
            f"test function dimension {phi.dimension} != grid dimension {grid.dimension}"
        )
    x = np.asarray(x, dtype=float)
    drift, diffusion = first.drift, first.diffusion
    gradient, hessian, third = phi.gradient(x), phi.hessian(x), phi.third(x)
    diffusion_hessian = np.sum(diffusion * hessian)
    limit_value = drift @ gradient + diffusion_hessian
    diffusion_third = np.einsum("ijk,jk->i", third, diffusion)

    def slab(nodes: slice) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        s, c, c1 = grid.directions[nodes], first.c[nodes], first.c1[nodes]
        a1 = first.first_corrector(nodes)
        s_hessian = s @ hessian                           # (k, n), as s . third_j below
        t_phi1 = np.einsum("mi,mi->m", a1, s_hessian)     # (s, grad) phi1 = s . hess . a1
        # b1 = c1 s - drift enters through b1 . grad phi and b1 . (s . hess) only
        t_b1 = c1 * np.einsum("mi,mi->m", s_hessian, s) - s_hessian @ drift
        # phi2 = b1 . grad phi + b2 : hess phi
        phi2 = c1 * (s @ gradient) + c * t_phi1 - limit_value
        # (s, grad) phi2 = b1 . (s . hess) + c third[s, s, a1] - diffusion : (s . third)
        third_s_s_a1 = sum(a1[:, j] * np.einsum("mi,mi->m", s @ third[j], s)
                           for j in range(grid.dimension))
        t_phi2 = t_b1 + c * third_s_s_a1 - s @ diffusion_third
        # phi1, then r1 = c T phi2 + c1 T phi1 and r2 = c1 T phi2
        return nodes, a1 @ gradient, phi2, c * t_phi2 + c1 * t_phi1, c1 * t_phi2

    return float(limit_value), map(slab, _node_slabs(grid.size))


def solve_perturbation(
    first: FirstOrderHalf, phi: TestFunction, x: np.ndarray
) -> PerturbationSolution:
    """The point half: the correctors and the remainder at x, assembled
    from _point_half's slabs.

    Requires the balance condition; otherwise raises SolvabilityError naming
    the residual vector. The correctors are exact on the grid, so the
    assembled remainder is identically eps * r1 + eps^2 * r2.
    """
    limit_value, slabs = _point_half(first, phi, x)
    grid = first.grid
    phi1, phi2, r1, r2 = (np.empty(grid.size) for _ in range(4))
    for nodes, phi1[nodes], phi2[nodes], r1[nodes], r2[nodes] in slabs:
        pass  # each slab is written into the outputs as it is unpacked
    return PerturbationSolution(
        first=first,
        point=np.asarray(x, dtype=float),
        test_function=phi,
        phi1=ThetaField(grid, phi1),
        phi2=ThetaField(grid, phi2),
        limit_value=limit_value,
        r1=r1,
        r2=r2,
    )


def residual_scaling(
    first: FirstOrderHalf, phi: TestFunction, x: np.ndarray, eps_list
) -> RateFit:
    """Log-log slope of the perturbation remainder across epsilon values.

    Requires a sweep that meets check_eps_sweep over two decades. When every
    residual is below 1e-14 the fit is reported as exact (this happens for
    test functions whose relevant derivatives vanish identically).
    """
    eps = check_eps_sweep(eps_list, decades=2)
    _, slabs = _point_half(first, phi, x)
    # the sup over nodes is the max of the slabs' sups: the values of
    # solve_perturbation(...).residual(eps), with no whole (M,) array held
    residuals = np.zeros(eps.size)
    for _, _, _, r1, r2 in slabs:
        sups = [np.max(np.abs(e * r1 + e**2 * r2)) for e in eps.tolist()]
        np.maximum(residuals, sups, out=residuals)
    return fit_loglog(eps, residuals)
