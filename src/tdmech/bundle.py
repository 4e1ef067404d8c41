"""Coordinates and geometry of the extended configuration space.

Configuration is a point ``(t, y^1..y^n)``; attaching velocities gives jet
points ``(t, y, v)``, attaching momenta gives phase points ``(t, y, p)``,
and the homogeneous phase adds the momentum ``p0`` conjugate to time.
Coordinate functions are expressions over the fixed variable names ``t``,
``y1..yn``, ``p1..pn``, ``v1..vn`` and ``p0``.

A reference frame is a time-dependent velocity field ``Gamma^i(t, y)``:
the observer at ``y`` moves with velocity ``Gamma`` at time ``t``.  Frames
induce relative velocities, frame-adapted coordinates (obtained by flowing
along the frame to a fixed reference time), and canonical lifts of
configuration vector fields to the phase space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InputError, SingularMatrix
from .expr import Expression, parse, value_gradient
from .integrate import rk4_to


@lru_cache(maxsize=None)
def y_names(n: int) -> tuple[str, ...]:
    return tuple(f"y{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def p_names(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def v_names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def base_vars(n: int) -> tuple[str, ...]:
    return ("t",) + y_names(n)


@lru_cache(maxsize=None)
def jet_vars(n: int) -> tuple[str, ...]:
    return ("t",) + y_names(n) + v_names(n)


@lru_cache(maxsize=None)
def phase_vars(n: int) -> tuple[str, ...]:
    return ("t",) + y_names(n) + p_names(n)


@lru_cache(maxsize=None)
def homogeneous_vars(n: int) -> tuple[str, ...]:
    return phase_vars(n) + ("p0",)


def check_free_vars(expr: Expression, allowed: Sequence[str], role: str):
    extra = [name for name in expr.free_vars if name not in allowed]
    if extra:
        raise InputError(f"{role} may not depend on {', '.join(extra)} (expression '{expr}')")


def _check_same_n(owner: str, n: int, other: str, m: int) -> None:
    if m != n:
        raise InputError(f"{owner} has n={n} but {other} has n={m}")


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any is NaN.  Python's ``max`` keeps
    its first argument when a comparison is false, so it drops a NaN."""
    if any(residual != residual for residual in residuals):
        return math.nan
    return max(residuals)


def _as_vector(values, n: int, role: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.shape != (n,):
        raise InputError(f"{role} must have {n} components, got shape {out.shape}")
    # Faster than np.isfinite on the short vectors of a point.
    if not all(map(math.isfinite, out.tolist())):
        raise InputError(f"{role} must be finite")
    return out


def _check_point(point, scalars: tuple[str, ...], base: str, vectors: tuple[str, ...]) -> None:
    """Store a frozen point's fields as finite floats, checked in argument
    order with the base vector's finiteness last.  The base fixes the
    dimension, and a scalar counts as a 1-vector."""
    for name in scalars:
        value = float(getattr(point, name))
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite")
        object.__setattr__(point, name, value)
    base_values = np.atleast_1d(np.asarray(getattr(point, base), dtype=float))
    object.__setattr__(point, base, base_values)
    for name in vectors:
        object.__setattr__(point, name, _as_vector(getattr(point, name), base_values.size, name))
    _as_vector(base_values, base_values.size, base)


def _time_component(value: float, role: str) -> float:
    """A vector field's time component, which must be 0 or 1."""
    out = float(value)
    if out not in (0.0, 1.0):
        raise InputError(f"the time component of a {role} must be 0 or 1")
    return out


@dataclass(frozen=True, eq=False)
class JetPoint:
    """First-order data ``(t, y, v)`` of a motion."""

    t: float
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _check_point(self, ("t",), "y", ("v",))

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class SecondJetPoint:
    """Second-order data ``(t, y, v, a)`` of a motion."""

    t: float
    y: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        _check_point(self, ("t",), "y", ("v", "a"))

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class RepeatedJetPoint:
    """Point of the repeated jet space: two independent velocity slots.

    ``v`` is the velocity carried by the underlying jet, ``vhat`` the
    velocity of the curve being compared against, and ``a`` the
    acceleration.  Setting ``vhat = v`` recovers honest second-order data.
    """

    t: float
    y: np.ndarray
    v: np.ndarray
    vhat: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        _check_point(self, ("t",), "y", ("v", "vhat", "a"))

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class VerticalPhasePoint:
    """Phase point ``(t, y, p)``."""

    t: float
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _check_point(self, ("t",), "y", ("p",))

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class HomogeneousPhasePoint:
    """Phase point with the momentum conjugate to time: ``(t, y, p, p0)``."""

    t: float
    y: np.ndarray
    p: np.ndarray
    p0: float

    def __post_init__(self):
        _check_point(self, ("t", "p0"), "y", ("p",))

    @property
    def n(self) -> int:
        return self.y.size

    def vertical(self) -> VerticalPhasePoint:
        return VerticalPhasePoint(self.t, self.y, self.p)


@dataclass(frozen=True, eq=False)
class VerticalTangent:
    """Tangent vector with fibre components ``dy``, ``dp`` and ``dt`` of 0 or 1."""

    dy: np.ndarray
    dp: np.ndarray
    dt: float = 0.0

    def __post_init__(self):
        _check_point(self, (), "dy", ("dp",))
        object.__setattr__(self, "dt", _time_component(self.dt, "phase tangent"))


@dataclass(frozen=True, eq=False)
class JetTangent:
    """Vertical tangent on the jet space: components ``dy``, ``dv``."""

    dy: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        _check_point(self, (), "dy", ("dv",))


# ---------------------------------------------------------------------------
# Binding helpers


def event_bindings(t: float, y: np.ndarray, n: int) -> dict[str, float]:
    out = {"t": float(t)}
    for name, value in zip(y_names(n), y):
        out[name] = float(value)
    return out


def jet_bindings(j: JetPoint) -> dict[str, float]:
    out = event_bindings(j.t, j.y, j.n)
    for name, value in zip(v_names(j.n), j.v):
        out[name] = float(value)
    return out


def phase_bindings(q: VerticalPhasePoint) -> dict[str, float]:
    out = event_bindings(q.t, q.y, q.n)
    for name, value in zip(p_names(q.n), q.p):
        out[name] = float(value)
    return out


def homogeneous_bindings(q: HomogeneousPhasePoint) -> dict[str, float]:
    out = phase_bindings(q.vertical())
    out["p0"] = float(q.p0)
    return out


def _field_jacobian(
    components: Sequence[Expression], variables: Sequence[str], env
) -> tuple[np.ndarray, np.ndarray]:
    """Values of field components at a point and their Jacobian,
    ``jac[j, i] = d components[j] / d variables[i]``."""
    values = np.empty(len(components))
    jac = np.empty((len(components), len(variables)))
    for j, comp in enumerate(components):
        values[j], jac[j] = value_gradient(comp, variables, env)
    return values, jac


def _validate_field(u_t: float, u: Sequence[Expression], n: int, role: str) -> float:
    """Check a vector field ``(u_t, u(t, y))`` on the event space; return ``u_t``."""
    u_t = _time_component(u_t, role)
    if len(u) != n:
        raise InputError(f"field must have {n} components")
    for comp in u:
        check_free_vars(comp, base_vars(n), f"a {role} component")
    return u_t


# ---------------------------------------------------------------------------
# Frames and bundle morphisms


@dataclass(frozen=True)
class ReferenceFrame:
    """Observer field ``Gamma^i(t, y)``: one velocity component per coordinate."""

    components: tuple[Expression, ...]

    def __post_init__(self):
        n = len(self.components)
        if n == 0:
            raise InputError("a frame needs at least one component")
        for comp in self.components:
            check_free_vars(comp, base_vars(n), "a frame component")

    @classmethod
    def parse(cls, sources: Sequence[str]) -> "ReferenceFrame":
        return cls(tuple(parse(source) for source in sources))

    @property
    def n(self) -> int:
        return len(self.components)

    def velocity(self, t: float, y: np.ndarray) -> np.ndarray:
        env = event_bindings(t, y, self.n)
        return np.array([comp.evaluate(env) for comp in self.components])


@dataclass(frozen=True)
class FibredAutomorphism:
    """Invertible time-preserving coordinate change ``y' = f(t, y)``.

    ``inverse`` expresses the old coordinates through the new ones, using
    the same variable names for the new coordinates.  The pair is trusted;
    ``roundtrip_residual`` measures how well it actually inverts.
    """

    forward: tuple[Expression, ...]
    inverse: tuple[Expression, ...]

    def __post_init__(self):
        n = len(self.forward)
        if n == 0 or len(self.inverse) != n:
            raise InputError("forward and inverse maps must have the same length")
        for comp in self.forward + self.inverse:
            check_free_vars(comp, base_vars(n), "a coordinate map")

    @classmethod
    def parse(cls, forward: Sequence[str], inverse: Sequence[str]) -> "FibredAutomorphism":
        return cls(tuple(parse(s) for s in forward), tuple(parse(s) for s in inverse))

    @property
    def n(self) -> int:
        return len(self.forward)

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        env = event_bindings(t, y, self.n)
        return np.array([comp.evaluate(env) for comp in self.forward])

    def apply_inverse(self, t: float, y_new: np.ndarray) -> np.ndarray:
        env = event_bindings(t, y_new, self.n)
        return np.array([comp.evaluate(env) for comp in self.inverse])

    def roundtrip_residual(self, t: float, y: np.ndarray) -> float:
        back = self.apply_inverse(t, self.apply(t, np.asarray(y, dtype=float)))
        return float(np.max(np.abs(back - y)))


@dataclass(frozen=True)
class PhaseVectorField:
    """Canonical lift of a configuration vector field to the phase space.

    The configuration part ``(u_t, u^i(t, y))`` is carried verbatim; the
    momentum part is the lift ``dp_i = -p_j * d(u^j)/d(y^i)``, which is what
    makes the flow preserve the canonical structure.
    """

    u_t: float
    u: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "u_t", _validate_field(self.u_t, self.u, self.n, "lifted field"))

    @property
    def n(self) -> int:
        return len(self.u)

    def at(self, q: VerticalPhasePoint) -> tuple[float, np.ndarray, np.ndarray]:
        """Components ``(dt, dy, dp)`` at a phase point."""
        _check_same_n("field", self.n, "point", q.n)
        dy, jac = _field_jacobian(self.u, y_names(self.n), event_bindings(q.t, q.y, self.n))
        dp = -jac.T @ q.p
        return self.u_t, dy, dp


# ---------------------------------------------------------------------------
# Operations


def relative_velocity(frame: ReferenceFrame, j: JetPoint) -> np.ndarray:
    """Velocity of the jet as measured by the frame's observer: ``v - Gamma``."""
    _check_same_n("frame", frame.n, "jet", j.n)
    return j.v - frame.velocity(j.t, j.y)


def adapted_coordinates(
    frame: ReferenceFrame, t_ref: float, t: float, y: np.ndarray, dt: float = 1e-3
) -> np.ndarray:
    """Label an event by where its frame line sits at the reference time.

    Flows ``dy/ds = Gamma(s, y)`` from ``(t, y)`` to ``t_ref`` (forward or
    backward) with fixed-step RK4.  Events on the same observer line map to
    the same label, which is what makes the result frame-adapted.
    """
    y0 = _as_vector(y, frame.n, "y")

    def rhs(s: float, state: np.ndarray) -> np.ndarray:
        return frame.velocity(s, state)

    return rk4_to(rhs, float(t), y0, float(t_ref), dt)


def lift_to_phase(u_t: float, u: Sequence[Expression]) -> PhaseVectorField:
    """Lift a configuration vector field to the phase space canonically."""
    return PhaseVectorField(u_t, tuple(u))


def holonomic_phase_transform(
    auto: FibredAutomorphism, q: VerticalPhasePoint
) -> VerticalPhasePoint:
    """Push a phase point through a configuration change of coordinates.

    Positions map directly; momenta transform contragradiently with the
    Jacobian of the inverse map evaluated at the new position, so that
    ``p'.dy'`` agrees with ``p.dy``.
    """
    _check_same_n("transform", auto.n, "point", q.n)
    y_new = auto.apply(q.t, q.y)
    # rows j: gradient of old-coordinate expression j in the new coordinates
    _, jac = _field_jacobian(auto.inverse, y_names(auto.n), event_bindings(q.t, y_new, auto.n))
    det = float(np.linalg.det(jac))
    if abs(det) < 1e-12:
        raise SingularMatrix(f"coordinate-change Jacobian is singular (det={det!r})")
    return VerticalPhasePoint(q.t, y_new, jac.T @ q.p)
