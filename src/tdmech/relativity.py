"""Velocity kinematics of curves in a chart-covered spacetime.

A curve through a point of an (m+1)-dimensional space carries, besides its
tangent vector, a first-order contact element: the slopes ``v^i = dz^i/dz^0``
of the curve against a chosen time-like coordinate ``z^0``.  Slopes mix
nonlinearly under chart changes (a fractional-linear law in ``v``), tangent
vectors project onto slopes wherever ``dz^0 != 0``, and a metric singles out
the unit-speed lifts of a slope.  For the Minkowski metric this recovers the
relativistic velocity-addition law and the bound ``|v| < 1``.

Only curves (1-dimensional submanifolds) are treated.  Chart transforms are
user-supplied coordinate expressions; ready-made factories cover the identity,
coordinate exchanges and one-axis Lorentz boosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bundle import _check_point, _field_jacobian, check_free_vars
from .errors import AtInfinity, ChartBoundary, InputError, SpacelikeDirection
from .expr import Expression, parse, substitute

CHART_DENOMINATOR_TOLERANCE = 1e-12
PROJECTION_TOLERANCE = 1e-15


@lru_cache(maxsize=None)
def chart_vars(m: int) -> tuple[str, ...]:
    return ("z0",) + tuple(f"z{i}" for i in range(1, m + 1))


def chart_bindings(z0: float, z: np.ndarray) -> dict[str, float]:
    env = {"z0": float(z0)}
    for i, value in enumerate(z, start=1):
        env[f"z{i}"] = float(value)
    return env


@dataclass(frozen=True, eq=False)
class SubmanifoldJet:
    """Contact element of a curve: point ``(z0, z)`` with slopes ``v = dz/dz0``."""

    z0: float
    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _check_point(self, ("z0",), "z", ("v",))

    @property
    def m(self) -> int:
        return self.z.size


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector ``(dz0, dz)`` attached at the point ``(z0, z)``."""

    z0: float
    z: np.ndarray
    dz0: float
    dz: np.ndarray

    def __post_init__(self):
        _check_point(self, ("z0", "dz0"), "z", ("dz",))

    @property
    def m(self) -> int:
        return self.z.size

    def scaled(self, factor: float) -> "TangentVector":
        return TangentVector(self.z0, self.z, factor * self.dz0, factor * self.dz)


@dataclass(frozen=True, eq=False)
class ChartTransform:
    """New coordinates ``(ztilde^0, ztilde^i)`` as expressions over ``(z0, z)``."""

    maps: tuple[Expression, ...]

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) < 2:
            raise InputError("a chart transform needs a time map and at least one space map")
        object.__setattr__(self, "maps", maps)
        allowed = chart_vars(len(maps) - 1)
        for comp in maps:
            check_free_vars(comp, allowed, "a chart transform component")

    @classmethod
    def parse(cls, sources: Sequence[str]) -> "ChartTransform":
        return cls(tuple(parse(source) for source in sources))

    @property
    def m(self) -> int:
        return len(self.maps) - 1


def identity_chart(m: int) -> ChartTransform:
    return ChartTransform.parse(chart_vars(m))


def exchange_chart(m: int, axis: int = 1) -> ChartTransform:
    """Swap the time coordinate with space coordinate ``z^axis``."""
    if not 1 <= axis <= m:
        raise InputError(f"axis must lie in 1..{m}")
    sources = list(chart_vars(m))
    sources[0], sources[axis] = sources[axis], sources[0]
    return ChartTransform.parse(sources)


def lorentz_boost(beta: float, m: int = 1, axis: int = 1) -> ChartTransform:
    """Boost with velocity ``beta`` along one axis, in units with c = 1."""
    beta = float(beta)
    if not abs(beta) < 1.0:
        raise InputError("boost velocity must satisfy |beta| < 1")
    if not 1 <= axis <= m:
        raise InputError(f"axis must lie in 1..{m}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    sources = list(chart_vars(m))
    sources[0] = f"{gamma!r}*(z0 - {beta!r}*z{axis})"
    sources[axis] = f"{gamma!r}*(z{axis} - {beta!r}*z0)"
    return ChartTransform.parse(sources)


def compose_charts(second: ChartTransform, first: ChartTransform) -> ChartTransform:
    """Transform applying ``first`` and then ``second``, by substitution."""
    if second.m != first.m:
        raise InputError("chart transforms act on spaces of different dimension")
    replacements = dict(zip(chart_vars(first.m), first.maps))
    return ChartTransform(tuple(substitute(comp, replacements) for comp in second.maps))


def transform_jet(transform: ChartTransform, j: SubmanifoldJet) -> SubmanifoldJet:
    """Push a contact element through a chart change.

    Slopes follow the quotient of total derivatives along the curve; the
    element falls off the new chart when the time map's total derivative
    vanishes (the image passes through the point at infinity).
    """
    if transform.m != j.m:
        raise InputError(f"transform has m={transform.m} but jet has m={j.m}")
    values, jac = _field_jacobian(transform.maps, chart_vars(j.m), chart_bindings(j.z0, j.z))
    # One dot product per row: a matrix-vector product can round differently.
    rates = np.array([row[0] + row[1:] @ j.v for row in jac])
    if abs(rates[0]) < CHART_DENOMINATOR_TOLERANCE:
        raise ChartBoundary(
            f"time-map rate {rates[0]:.3e} vanishes: the image leaves the chart"
        )
    return SubmanifoldJet(values[0], values[1:], rates[1:] / rates[0])


def project_tangent(w: TangentVector) -> SubmanifoldJet:
    """Slopes of the curve generated by a tangent vector: ``v = dz/dz0``."""
    if abs(w.dz0) < PROJECTION_TOLERANCE:
        raise AtInfinity("tangent vector has no time advance; slopes are undefined")
    return SubmanifoldJet(w.z0, w.z, w.dz / w.dz0)


@dataclass(frozen=True, eq=False)
class Metric:
    """Symmetric metric ``g_{uv}(z)``; the upper triangle is stored."""

    upper: tuple[tuple[Expression, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.upper)
        size = len(rows)
        for i, row in enumerate(rows):
            if len(row) != size - i:
                raise InputError(
                    f"row {i} of the upper triangle must have {size - i} entries"
                )
        if size < 2:
            raise InputError("a metric needs at least a time and one space coordinate")
        object.__setattr__(self, "upper", rows)
        allowed = chart_vars(size - 1)
        for row in rows:
            for comp in row:
                check_free_vars(comp, allowed, "a metric component")

    @classmethod
    def parse(cls, rows: Sequence[Sequence[str]]) -> "Metric":
        return cls(tuple(tuple(parse(source) for source in row) for row in rows))

    @classmethod
    def minkowski(cls, m: int) -> "Metric":
        rows = []
        for i in range(m + 1):
            row = ["1" if i == 0 else "-1"] + ["0"] * (m - i)
            rows.append(row)
        return cls.parse(rows)

    @property
    def m(self) -> int:
        return len(self.upper) - 1

    def evaluate(self, z0: float, z: np.ndarray) -> np.ndarray:
        env = chart_bindings(z0, z)
        size = self.m + 1
        g = np.empty((size, size))
        for i, row in enumerate(self.upper):
            for k, comp in enumerate(row):
                g[i, i + k] = g[i + k, i] = comp.evaluate(env)
        return g


def hyperboloid_residual(g: Metric, w: TangentVector) -> float:
    """Deviation of a tangent vector from unit metric length: ``g(w,w) - 1``."""
    if g.m != w.m:
        raise InputError(f"metric has m={g.m} but vector has m={w.m}")
    vec = np.concatenate([[w.dz0], w.dz])
    matrix = g.evaluate(w.z0, w.z)
    return float(vec @ matrix @ vec) - 1.0


def normalize_to_hyperboloid(g: Metric, j: SubmanifoldJet, branch: int = 1) -> TangentVector:
    """Unit-length lift of a contact element onto the chosen hyperboloid sheet.

    Requires the direction ``(1, v)`` to be timelike; the two sheets
    correspond to future- and past-directed lifts.
    """
    if int(branch) not in (1, -1):
        raise InputError("branch must be +1 or -1")
    if g.m != j.m:
        raise InputError(f"metric has m={g.m} but jet has m={j.m}")
    matrix = g.evaluate(j.z0, j.z)
    direction = np.concatenate([[1.0], j.v])
    quadratic = float(direction @ matrix @ direction)
    if quadratic <= 0.0:
        raise SpacelikeDirection(
            f"direction has squared length {quadratic:.6g}; no unit lift exists"
        )
    dz0 = float(branch) / math.sqrt(quadratic)
    return TangentVector(j.z0, j.z, dz0, dz0 * j.v)


def velocity_bound_check(j: SubmanifoldJet) -> bool:
    """Whether the slopes admit a timelike lift in a pseudo-Euclidean chart."""
    return float(j.v @ j.v) < 1.0
