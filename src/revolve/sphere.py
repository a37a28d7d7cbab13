"""Geometry of the unit sphere S_{n-1} in R^n.

Directions are parametrized by spherical angles theta = (theta_1, ..., theta_{n-1})
with theta_i in [0, pi) for i <= n-2 and theta_{n-1} in [0, 2*pi), through the chart

    s(theta) = (cos t1,
                sin t1 cos t2,
                ...,
                sin t1 ... sin t_{n-2} cos t_{n-1},
                sin t1 ... sin t_{n-2} sin t_{n-1}).

The surface measure in these coordinates has density

    mu(d theta) = sin^{n-2} t1 * sin^{n-3} t2 * ... * sin t_{n-2}  dt1 ... dt_{n-1},

with total mass N (the surface content of the unit sphere):

    N = (2*pi)^{n/2} / (2*4*...*(n-2))          for even n,
    N = (2*pi)^{(n-1)/2} * 2 / (3*5*...*(n-2))  for odd n,

empty products being 1 (so N = 2*pi for n=2 and N = 4*pi for n=3).

This module provides the chart and its inverse, the normalization constant,
the classical sin-power integrals, and the one grid type: product
quadrature grids realizing the normalized average (1/N) * integral over the
sphere, and the switching laws' grids (limits), whose point nodes carry a
law's own directions.

It also holds the one node sum over a grid, _node_sum, which limits and
operator_lab share: it runs over slabs of nodes with the bits of one einsum
over the whole (M, n) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "FieldError",
    "InvalidDimensionError",
    "QuadratureGrid",
    "directions_from_angles",
    "angles_from_directions",
    "normalization_constant",
    "wallis_integral",
    "sin_power_integral",
    "check_dimension",
    "check_resolution",
    "grid_axes",
    "build_grid",
]

class FieldError(ValueError):
    """Invalid value; field, when known, names the offending field."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class InvalidDimensionError(FieldError):
    """Raised when an operation is requested for dimension n < 2."""


def check_dimension(n: int) -> int:
    """n as int; the one home of the rule n >= 2 (written so that NaN fails)."""
    if not n >= 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {n}", "dimension")
    return int(n)


def directions_from_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized spherical chart: (..., n-1) angles -> (..., n) unit vectors."""
    a = np.asarray(angles, dtype=float)
    if a.ndim == 0 or a.shape[-1] < 1:
        raise InvalidDimensionError("need at least one angle per point")
    n = a.shape[-1] + 1
    out = np.empty(a.shape[:-1] + (n,), dtype=float)
    sin_prod = np.cumprod(np.sin(a), axis=-1)
    cos_a = np.cos(a)
    out[..., 0] = cos_a[..., 0]
    for k in range(1, n - 1):
        out[..., k] = sin_prod[..., k - 1] * cos_a[..., k]
    out[..., n - 1] = sin_prod[..., n - 2]
    return out


def _azimuth(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """atan2(y, x) wrapped into [0, 2*pi). np.mod rounds a negative angle
    smaller than half an ulp of 2*pi up to 2*pi itself; that is mapped to 0."""
    a = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    return np.where(a >= 2.0 * math.pi, 0.0, a)


def angles_from_directions(directions: np.ndarray) -> np.ndarray:
    """Inverse chart: (..., n) unit vectors -> (..., n-1) angles.

    Polar angles are recovered through arccos of successively deflated
    components; the azimuth through atan2 of the last two components,
    wrapped into [0, 2*pi). On the degenerate set where a leading sine
    vanishes the remaining angles are set to 0 (a measure-zero convention).
    """
    u = np.asarray(directions, dtype=float)
    n = u.shape[-1]
    if n < 2:
        raise InvalidDimensionError("directions need at least 2 components")
    out = np.empty(u.shape[:-1] + (n - 1,), dtype=float)
    if n == 2:
        out[..., 0] = _azimuth(u[..., 0], u[..., 1])
        return out
    sin_prod = np.ones(u.shape[:-1], dtype=float)
    for k in range(n - 2):
        ratio = np.divide(
            u[..., k],
            sin_prod,
            out=np.ones_like(sin_prod),
            where=np.abs(sin_prod) > 1e-300,
        )
        theta = np.arccos(np.clip(ratio, -1.0, 1.0))
        out[..., k] = theta
        sin_prod = sin_prod * np.sin(theta)
    out[..., n - 2] = _azimuth(u[..., n - 2], u[..., n - 1])
    return out


def normalization_constant(n: int) -> float:
    """Total surface content N of the unit sphere S_{n-1} in R^n."""
    n = check_dimension(n)
    if n % 2 == 0:
        denom = 1.0
        for k in range(2, n - 1, 2):  # 2*4*...*(n-2)
            denom *= k
        return (2.0 * math.pi) ** (n // 2) / denom
    denom = 1.0
    for k in range(3, n - 1, 2):  # 3*5*...*(n-2)
        denom *= k
    return (2.0 * math.pi) ** ((n - 1) // 2) * 2.0 / denom


def wallis_integral(m: int, parity: str) -> float:
    """Sin-power integral over [0, pi].

    parity="even" returns int_0^pi sin^{2m} = pi * (2m-1)!! / (2m)!!,
    parity="odd"  returns int_0^pi sin^{2m+1} = 2 * (2m)!! / (2m+1)!!.
    """
    m = int(m)
    if m < 0:
        raise ValueError(f"sin-power order must be nonnegative, got m={m}")
    if parity == "even":
        value = math.pi
        for k in range(1, m + 1):
            value *= (2 * k - 1) / (2 * k)
        return value
    if parity == "odd":
        value = 2.0
        for k in range(1, m + 1):
            value *= (2 * k) / (2 * k + 1)
        return value
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def sin_power_integral(k: int) -> float:
    """int_0^pi sin^k(theta) d theta for any k >= 0."""
    if k % 2 == 0:
        return wallis_integral(k // 2, "even")
    return wallis_integral((k - 1) // 2, "odd")


@dataclass(frozen=True)
class QuadratureGrid:
    """Unit vectors and weights realizing the average over a switching law.

    weights sum to 1. On a sphere grid they absorb both the angular density
    and the 1/N normalization; raw_total records the un-normalized mass
    (equal to N up to quadrature error). A node is its unit vector only: no
    chart angles are kept (grid_axes gives a sphere grid's per axis). The
    nodes from point_nodes on (none by default) are the law's own
    directions, read with the profile's atoms (profiles.grid_speeds).
    """

    dimension: int
    directions: np.ndarray  # (M, n) unit vectors
    weights: np.ndarray     # (M,), positive, sums to 1
    raw_total: float
    point_nodes: int = field(default=None)  # index of the first point node

    def __post_init__(self) -> None:
        if self.point_nodes is None:
            object.__setattr__(self, "point_nodes", self.size)
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total}")

    @property
    def size(self) -> int:
        return self.directions.shape[0]

    def average(self, values: np.ndarray) -> float:
        """Average of a node-sampled function under the grid's weights."""
        # numpy's pairwise sum: its order is fixed (np.dot would let BLAS
        # threads split the nodes) and its error grows as log M, not M
        return float(np.sum(self.weights * np.asarray(values, dtype=float)))


def check_resolution(resolution: int) -> int:
    """A grid needs a whole number of at least 2 nodes per axis; returns it as int."""
    try:
        whole = int(resolution)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != resolution:
        raise FieldError(f"resolution must be a whole number, got {resolution!r}")
    if whole < 2:
        raise FieldError(f"resolution must be >= 2, got {whole}")
    return whole


def grid_axes(n: int, resolution: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(nodes, weights) of each chart axis of build_grid(n, resolution), in
    the chart's order: resolution Gauss-Legendre nodes on (0, pi) for each
    polar axis theta_i (i = 1..n-2), with the density weight sin^{n-1-i}
    folded in, then two panels of them, on (0, pi) and (pi, 2*pi), for the
    azimuth."""
    n = check_dimension(n)
    x, w = np.polynomial.legendre.leggauss(check_resolution(resolution))
    theta_polar = (x + 1.0) * (math.pi / 2.0)
    w_polar = w * (math.pi / 2.0)
    # sin^{n-2} on theta_1 down to sin^1 on theta_{n-2}
    axes = [(theta_polar, w_polar * np.sin(theta_polar) ** (n - 2 - axis))
            for axis in range(n - 2)]
    axes.append((np.concatenate([theta_polar, theta_polar + math.pi]),
                 np.concatenate([w_polar, w_polar])))
    return axes


def build_grid(n: int, resolution: int) -> QuadratureGrid:
    """Build a Gauss-Legendre product grid on S_{n-1}: the product of the
    axes of grid_axes(n, resolution), the last axis varying fastest.

    The azimuth's two panels make the grid spectrally exact for smooth
    integrands, and also for speeds that step between the azimuthal
    half-spheres, since every node is interior to a panel and never touches
    the jump. Weights are renormalized to sum to 1.

    Weights and directions are built per axis: each axis's weights, and cos
    and sin of its nodes, broadcast over the product in the chart's order
    (the sine products sin t1 * ... * sin tk accumulate one axis at a time,
    as the chart's cumprod does). So every node gets the same elementwise
    products, in the same order, as on a full mesh of angles, and the
    directions equal directions_from_angles on that mesh bit for bit
    without evaluating the chart, or holding an angle, at every node.
    """
    directions, weights, raw_total = _sphere_nodes(n, resolution)
    return QuadratureGrid(directions.shape[1], directions, weights, raw_total)


def _sphere_nodes(
    n: int, resolution: int, extra: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """(directions, weights, raw_total) of build_grid(n, resolution) in
    buffers of M + extra rows, the sphere's M nodes first and the extra
    rows left unset, so that a grid with more nodes (limits, a mixture
    with atoms) is built without a copy of the sphere part."""
    axes = grid_axes(n, resolution)
    n = len(axes) + 1
    shape = tuple(theta.size for theta, _ in axes)
    m = math.prod(shape)
    directions = np.empty((m + extra, n))
    weights = np.empty(m + extra)
    mesh = directions[:m].reshape(shape + (n,))
    raw = sin_prod = 1.0  # exact: 1.0 * x == x
    for axis, (theta, weight) in enumerate(axes):
        along = [1] * (n - 1)
        along[axis] = theta.size
        # the product over every axis goes straight into the weights' buffer
        out = weights[:m].reshape(shape) if axis == n - 2 else None
        raw = np.multiply(raw, weight.reshape(along), out=out)
        np.multiply(sin_prod, np.cos(theta).reshape(along), out=mesh[..., axis])
        sin_prod = sin_prod * np.sin(theta).reshape(along)
    mesh[..., n - 1] = sin_prod
    raw_total = float(weights[:m].sum())
    weights[:m] /= raw_total
    return directions, weights, raw_total


# Node sums run over near-equal slabs of at most this many nodes, so that
# their (k, n) temporaries stay bounded whatever the grid's size.
_SLAB_NODES = 8192


def _node_slabs(size: int) -> list[slice]:
    """Near-equal slabs of at most _SLAB_NODES of the nodes 0..size-1, in
    order (np.linspace edges, as simulate_ensemble cuts its blocks)."""
    edges = np.linspace(0, size, -(-size // _SLAB_NODES) + 1, dtype=int)
    return [slice(lo, hi) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]


def _node_sum(slabs: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """sum_m x_mk y_mi, (p, n), or sum_m x_m y_mi, (n,) for a 1-D x, over
    the (x, y) slabs of node rows in order: np.einsum("mk,mi->ki", x, y)
    (or "m,mi->i") on the whole arrays, bit for bit, with no whole array.

    Each slab is one two-operand einsum, with the running sum carried in as
    its leading rows: the p rows of the identity paired with the sum's p
    rows (one row of 1.0 for a 1-D x). einsum adds its products node after
    node into an output that starts at +0.0, so a partial sum is never
    -0.0 (x + y == 0 rounds to +0.0). Carried row k adds the sum's row k
    exactly (1.0 * t == t, and +0.0 + t == t), and every other carried row
    adds +0.0 or -0.0, which leaves a sum that is not -0.0 unchanged. So the
    slab resumes with the partial sums the whole-array einsum had reached,
    and adds the same products in the same order. The carry needs a finite
    sum: 0.0 * inf would be nan.
    """
    total = None
    for x, y in slabs:
        if total is not None:
            x = np.concatenate([np.eye(len(total)) if x.ndim == 2 else np.ones(1), x])
            y = np.concatenate([total.reshape(-1, y.shape[1]), y])
        total = np.einsum("mk,mi->ki" if x.ndim == 2 else "m,mi->i", x, y)
    return total
