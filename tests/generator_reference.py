"""An independent reference for the perturbation solve: the generator
L_eps = eps^-2 Q + eps^-1 c T + c1 T applied term by term to the corrected
test function, with every corrector held whole. The package never calls it;
tests/test_operator_lab.py and tests/test_law_grid.py check the solve's
closed-form remainder against it."""

import numpy as np

from revolve.operator_lab import PerturbationSolution, TestFunction


def pi_coefficients(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pi applied to each coefficient of a field of shape (M, ...)."""
    return np.einsum("m...,m->...", arr, w)


def derivative_values(
    phi: TestFunction, x: np.ndarray, d1: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """d1 . grad phi(x) + d2 : hess phi(x) at every node, for d1 (M, n) and d2 (M, n, n)."""
    return d1 @ phi.gradient(x) + np.einsum("mij,ij->m", d2, phi.hessian(x))


def transported_values(
    phi: TestFunction, x: np.ndarray, s: np.ndarray, d1: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """(s, grad)(d1 . grad phi + d2 : hess phi) at x, at every node.

    s is contracted into the derivatives of phi first (s . hess and s . third,
    (M, n) and (M, n, n)), so no (M, n, n, n) array is built.
    """
    m, n = s.shape
    s_third = s @ phi.third(x).reshape(n, -1)
    return (np.einsum("mi,mi->m", d1, s @ phi.hessian(x))
            + np.einsum("mi,mi->m", d2.reshape(m, -1), s_third))


def assembled_generator_residual(solution: PerturbationSolution, eps: float) -> float:
    """Sup-node |L_eps phi_eps - L0 phi| assembled term by term.

    Applies eps^-2 Q + eps^-1 c T + c1 T to phi + eps phi1 + eps^2 phi2
    directly, without using the closed-form remainder; agreement with
    solution.residual(eps) certifies the hierarchy solve. It builds a1, b1
    and b2 whole from the first-order half, b2 as (M, n, n) doubles.
    """
    sol, phi, x, first = solution, solution.test_function, solution.point, solution.first
    w, s = first.grid.weights, first.grid.directions
    a1 = first.first_corrector()
    c_s_a1 = np.einsum("mi,mj->mij", s, a1) * first.c[:, None, None]
    b1 = first.c1[:, None] * s - first.drift
    b2 = c_s_a1 - pi_coefficients(c_s_a1, w)
    # phi_eps = phi + d1 . grad phi + d2 : hess phi
    d1 = a1 * eps + b1 * eps**2
    d2 = b2 * eps**2
    q_part = ((np.sum(w) - 1.0) * eps**-2 * phi.value(x)
              + derivative_values(phi, x, (pi_coefficients(d1, w) - d1) * eps**-2,
                                  (pi_coefficients(d2, w) - d2) * eps**-2))
    transport = s @ phi.gradient(x) + transported_values(phi, x, s, d1, d2)
    values = q_part + (first.c / eps) * transport + first.c1 * transport
    return float(np.max(np.abs(values - sol.limit_value)))
