"""Velocity profiles (c, c1) of random evolutions and their balance checks.

A profile assigns to each direction theta a fast speed c(theta), scaled by
1/eps in simulation, and a slow speed c1(theta). Both may be continuous
functions of the angles, a finite list of atoms (angle, weight, c, c1), or
a flagged mix. The symmetric model is c = const, c1 = 0.

Two functionals decide the model class:

  balance residual   r_i = <c * s_i>      (must vanish for a diffusion
                                           limit to exist),
  drift functional   b_i = <c1 * s_i>     (nonzero b breaks symmetry and
                                           produces deterministic drift),

where <.> is the average over a quadrature grid, read as grid_speeds says.
Signs follow the transport convention: b is the mean velocity E[c1 * s] of
the slow component.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sphere import (
    FieldError,
    FiniteLawGrid,
    QuadratureGrid,
    check_dimension,
    directions_from_angles,
    normalization_constant,
)

__all__ = [
    "BALANCE_TOLERANCE",
    "FieldError",
    "ProfileError",
    "Atom",
    "VelocityProfile",
    "BalanceReport",
    "ConstantSpeed",
    "FirstAngleSine",
    "LowerHalfStep",
    "atom_terms",
    "balance_report",
    "builtin_profile",
    "check_balance",
    "first_moment",
    "grid_speeds",
]

# The keyword parameters each built-in profile takes.
BUILTIN_PARAMETERS = {
    "msre_const": ("c",),
    "sin_theta1": (),
    "step_half_sphere": ("c", "c1"),
    "example3_atoms": (),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMETERS)

# Largest norm of the balance residual <c s> that counts as balanced.
BALANCE_TOLERANCE = 1e-8

# An atom's values hold at the rows whose direction lies within this
# distance of the atom's in every component.
_ATOM_ATOL = 1e-9


class ProfileError(FieldError):
    """Invalid profile construction or use."""


_log = logging.getLogger(__name__)

# Continuous speed functions are plain callables mapping an (..., n-1) array
# of angles to an (...,) array of speeds. The builtins below are dataclasses
# so that configs pickle across process workers. They also have a direction
# form, on_directions, mapping (..., n) unit vectors to the same speeds
# without the inverse chart: for every unit vector s it equals the angle form
# at angles_from_directions(s), bit for bit. The one exception is a null set
# of the step: on the boundary s_n = 0 (theta_{n-1} in {0, pi}) the chart's
# rounding of the azimuth decides. There theta_{n-1} = pi gives
# s_n = sin(pi) > 0, but the chart maps it back to pi, which the step counts
# as the lower half. A uniform draw never lands within rounding of that set.


@dataclass(frozen=True)
class ConstantSpeed:
    value: float

    def __call__(self, angles: np.ndarray) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        return np.full(angles.shape[:-1], self.value)

    def on_directions(self, directions: np.ndarray) -> np.ndarray:
        return np.full(np.shape(directions)[:-1], self.value)


@dataclass(frozen=True)
class FirstAngleSine:
    """c(theta) = sin(theta_1); symmetric only for n >= 3."""

    scale: float = 1.0

    def __call__(self, angles: np.ndarray) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        return self.scale * np.sin(angles[..., 0])

    def on_directions(self, directions: np.ndarray) -> np.ndarray:
        # theta_1 by the chart's own expression: a polar angle for n >= 3,
        # the azimuth in the plane.
        if directions.shape[-1] == 2:
            theta = np.mod(np.arctan2(directions[..., 1], directions[..., 0]), 2.0 * math.pi)
        else:
            theta = np.arccos(np.clip(directions[..., 0], -1.0, 1.0))
        return self.scale * np.sin(theta)


@dataclass(frozen=True)
class LowerHalfStep:
    """height on the half-sphere theta_{n-1} in [pi, 2*pi), zero elsewhere."""

    height: float

    def __call__(self, angles: np.ndarray) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        return np.where(angles[..., -1] >= math.pi, self.height, 0.0)

    def on_directions(self, directions: np.ndarray) -> np.ndarray:
        return np.where(directions[..., -1] < 0.0, self.height, 0.0)


@dataclass(frozen=True)
class Atom:
    """Point mass of a profile: angles (n-1,), positive weight, speeds c and c1.
    Every number is finite; a ProfileError names the config key of one that
    is not."""

    angles: np.ndarray
    weight: float
    c_value: float
    c1_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", np.atleast_1d(np.asarray(self.angles, dtype=float)))
        if not self.weight > 0.0:
            raise ProfileError(f"atom weight must be positive, got {self.weight}", "weight")
        for key, value in (("angles", self.angles), ("weight", self.weight),
                           ("c", self.c_value), ("c1", self.c1_value)):
            if not np.all(np.isfinite(value)):
                raise ProfileError(f"atom {key} must be finite, got {value}", key)


# Callables whose row-by-row fallback was reported, kept alive so that their
# ids are not reused.
_reported_fallbacks: dict[int, Callable] = {}


def _evaluate(fn: Callable | None, angles: np.ndarray) -> np.ndarray:
    """Evaluate a speed function (None is zero) on rows of angles, vectorized
    when possible.

    A callable that fails on the whole array, or returns the wrong shape, is
    called once per row instead; that fallback is logged once per callable.
    """
    angles = np.asarray(angles, dtype=float)
    want = angles.shape[:-1]
    if fn is None:
        return np.zeros(want)
    try:
        out = np.asarray(fn(angles), dtype=float)
        if out.shape == want:
            return out
        reason = f"returned shape {out.shape} for rows {want}"
    except (TypeError, ValueError, IndexError) as exc:
        reason = f"raised {exc!r}"
    if id(fn) not in _reported_fallbacks:
        _reported_fallbacks[id(fn)] = fn
        _log.warning(
            "speed function %r %s on an array of angle rows; calling it once per row",
            fn,
            reason,
        )
    flat = angles.reshape(-1, angles.shape[-1])
    out = np.array([float(fn(row)) for row in flat])
    return out.reshape(want)


@dataclass(frozen=True)
class VelocityProfile:
    """Direction-dependent speeds (c, c1) with optional atoms.

    Continuous parts may be None (identically zero). Mixing continuous parts
    with atoms is legal only when allow_mixed=True; the default profiles are
    purely continuous or purely atomic.
    """

    dimension: int
    continuous_c: Callable | None = None
    continuous_c1: Callable | None = None
    atoms: tuple[Atom, ...] = ()
    allow_mixed: bool = False
    name: str = "custom"

    def __post_init__(self) -> None:
        check_dimension(self.dimension)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for k, atom in enumerate(self.atoms):
            if atom.angles.size != self.dimension - 1:
                raise ProfileError(
                    f"atom has {atom.angles.size} angles, expected {self.dimension - 1}",
                    f"atoms[{k}].angles",
                )
        if self.mixed and not self.allow_mixed:
            raise ProfileError(
                "profile mixes continuous parts with atoms; pass allow_mixed=True "
                "if that is intended"
            )

    @property
    def has_continuous(self) -> bool:
        return self.continuous_c is not None or self.continuous_c1 is not None

    @property
    def mixed(self) -> bool:
        return self.has_continuous and bool(self.atoms)

    def c_values(self, angles: np.ndarray) -> np.ndarray:
        """Fast-speed values of the continuous part at the given angle rows."""
        return _evaluate(self.continuous_c, angles)

    def c1_values(self, angles: np.ndarray) -> np.ndarray:
        """Slow-speed values of the continuous part at the given angle rows."""
        return _evaluate(self.continuous_c1, angles)

    @property
    def direction_form(self) -> bool:
        """True when values_on_directions applies: no atoms, and every
        continuous part has a direction form."""
        return not self.atoms and all(
            part is None or hasattr(part, "on_directions")
            for part in (self.continuous_c, self.continuous_c1)
        )

    def values_on_directions(self, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, c1) at unit-vector rows, equal to values_at at their chart angles."""
        if not self.direction_form:
            raise ProfileError(
                f"profile {self.name!r} has atoms or a part without a direction form"
            )
        directions = np.asarray(directions, dtype=float)

        def part(fn):
            if fn is None:
                return np.zeros(directions.shape[:-1])
            return np.asarray(fn.on_directions(directions), dtype=float)

        return part(self.continuous_c), part(self.continuous_c1)

    def values_at(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, c1) at angle rows, with atom values overriding at rows whose
        direction lies within _ATOM_ATOL of the atom's in every component:
        the angles 0 and 2 pi, or any azimuth at a pole, name one direction."""
        angles = np.asarray(angles, dtype=float)
        return self._with_atoms(angles, self.c_values(angles), self.c1_values(angles))

    def _with_atoms(
        self, angles: np.ndarray, c: np.ndarray, c1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The continuous parts' values c, c1 at the angle rows, with the
        atoms' values where values_at puts them."""
        if self.atoms:
            directions = directions_from_angles(angles)
            for atom in self.atoms:
                hit = np.max(np.abs(directions - directions_from_angles(atom.angles)),
                             axis=-1) <= _ATOM_ATOL
                c = np.where(hit, atom.c_value, c)
                c1 = np.where(hit, atom.c1_value, c1)
        return c, c1

    def describe(self) -> dict:
        """JSON-friendly summary used in fingerprints and manifests."""
        def _part(fn):
            if fn is None:
                return None
            if hasattr(fn, "__dataclass_fields__"):
                d = {"type": type(fn).__name__}
                d.update({k: getattr(fn, k) for k in fn.__dataclass_fields__})
                return d
            return {"type": "callable", "repr": repr(fn)}

        return {
            "name": self.name,
            "dimension": self.dimension,
            "c": _part(self.continuous_c),
            "c1": _part(self.continuous_c1),
            "atoms": [
                {
                    "angles": atom.angles.tolist(),
                    "weight": atom.weight,
                    "c": atom.c_value,
                    "c1": atom.c1_value,
                }
                for atom in self.atoms
            ],
        }


def builtin_profile(name: str, dimension: int, **parameters: float) -> VelocityProfile:
    """Construct one of the built-in profiles.

    msre_const:       c = const, c1 = 0 (the symmetric model)
    sin_theta1:       c(theta) = sin theta_1, c1 = 0; requires n >= 3
    step_half_sphere: c = const with c1 on the half-sphere theta_{n-1} >= pi
    example3_atoms:   n = 2 atomic profile with unit atoms at angles 0 and pi
                      carrying c = 1, and at pi/2 carrying c1 = 1

    The keywords c and c1 default to 1. A keyword the profile does not take
    (see BUILTIN_PARAMETERS) raises ProfileError naming it.
    """
    if name not in BUILTIN_NAMES:
        raise ProfileError(f"unknown builtin profile {name!r}; known: {BUILTIN_NAMES}", "name")
    ignored = sorted(set(parameters) - set(BUILTIN_PARAMETERS[name]))
    if ignored:
        raise ProfileError(f"{name} takes only {list(BUILTIN_PARAMETERS[name])}", ignored[0])
    c, c1 = parameters.get("c", 1.0), parameters.get("c1", 1.0)
    n = int(dimension)
    if name == "msre_const":
        return VelocityProfile(n, continuous_c=ConstantSpeed(c), name=name)
    if name == "sin_theta1":
        if n < 3:
            raise ProfileError(
                "sin_theta1 requires dimension >= 3: in the plane sin(theta) "
                "has a nonzero first moment and breaks the balance condition"
            )
        return VelocityProfile(n, continuous_c=FirstAngleSine(), name=name)
    if name == "step_half_sphere":
        return VelocityProfile(
            n,
            continuous_c=ConstantSpeed(c),
            continuous_c1=LowerHalfStep(c1),
            name=name,
        )
    if n != 2:
        raise ProfileError(f"example3_atoms is a planar profile (n=2), got n={n}")
    atoms = (
        Atom(np.array([0.0]), 1.0, 1.0, 0.0),
        Atom(np.array([math.pi]), 1.0, 1.0, 0.0),
        Atom(np.array([math.pi / 2.0]), 1.0, 0.0, 1.0),
    )
    return VelocityProfile(n, atoms=atoms, name=name)


@dataclass(frozen=True)
class BalanceReport:
    """Residual of a first-moment functional and its verdict at a tolerance."""

    residual_vector: np.ndarray
    residual_norm: float
    satisfied: bool
    tolerance: float


def atom_terms(
    dimension: int, atoms: Sequence[Atom], atom_values: Sequence[float]
) -> list[tuple[float, np.ndarray]]:
    """(weight * f(theta_atom) / N, s(theta_atom)) for each atom: its term in a
    normalized sphere average. The factor is always weight * f * (1/N), so
    sums of these terms agree bit for bit."""
    inv_n = 1.0 / normalization_constant(dimension)
    return [
        (atom.weight * fval * inv_n, directions_from_angles(atom.angles))
        for atom, fval in zip(atoms, atom_values)
    ]


def grid_speeds(
    profile: VelocityProfile, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray, tuple[Atom, ...]]:
    """The one rule for reading a profile on a grid: (c, c1) at the nodes and
    the atoms that add point masses. On a sphere grid these are the continuous
    parts, and each atom adds weight * f / N (atom_terms; the paper's Example
    3). On a FiniteLawGrid they are values_at, atoms included, and no atom.

    Each part is evaluated once. Raises ProfileError unless the continuous
    parts are finite at every node, atoms or not; atoms are finite by
    construction.
    """
    if grid.dimension != profile.dimension:
        raise ProfileError(
            f"grid dimension {grid.dimension} does not match profile dimension "
            f"{profile.dimension}"
        )
    c, c1 = profile.c_values(grid.nodes), profile.c1_values(grid.nodes)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(c1))):
        raise ProfileError("speed functions must be bounded on the grid")
    if isinstance(grid, FiniteLawGrid):
        return (*profile._with_atoms(grid.nodes, c, c1), ())
    return c, c1, profile.atoms


def first_moment(
    grid: QuadratureGrid, speeds: tuple[np.ndarray, np.ndarray, tuple[Atom, ...]], part: int
) -> np.ndarray:
    """<f * s> over the grid plus the atoms' point masses, for f = c (part 0)
    or f = c1 (part 1), from the speeds grid_speeds read on the grid."""
    *values, atoms = speeds
    residual = np.einsum("m,m,mi->i", grid.weights, values[part], grid.directions)
    atom_values = [(atom.c_value, atom.c1_value)[part] for atom in atoms]
    for factor, s_atom in atom_terms(grid.dimension, atoms, atom_values):
        residual = residual + factor * s_atom
    return residual


def balance_report(residual: np.ndarray, tolerance: float = BALANCE_TOLERANCE) -> BalanceReport:
    """The balance verdict on the residual <c s>: satisfied iff its norm is
    <= tolerance."""
    norm = float(np.linalg.norm(residual))
    return BalanceReport(residual, norm, norm <= tolerance, tolerance)


def check_balance(
    profile: VelocityProfile, grid: QuadratureGrid, tolerance: float = BALANCE_TOLERANCE
) -> BalanceReport:
    """First moment of the fast speed; satisfied iff its norm is <= tolerance."""
    return balance_report(first_moment(grid, grid_speeds(profile, grid), 0), tolerance)
