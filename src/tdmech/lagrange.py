"""Variational dynamics: Lagrangians, Legendre maps, equations of motion.

The central objects around a Lagrangian ``L(t, y, v)`` are its velocity
gradient ``pi_i = dL/dv^i`` (the momentum map) and velocity Hessian
``pi_ij``.  A system is regular when ``pi_ij`` is invertible; then the
Euler-Lagrange equations can be solved for accelerations and the momentum
map can be inverted.  Both solves report degeneracy as
:class:`~tdmech.errors.SingularLagrangian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import (
    JetPoint,
    RepeatedJetPoint,
    SecondJetPoint,
    VerticalPhasePoint,
    check_free_vars,
    jet_vars,
    event_bindings,
    y_names,
)
from .errors import InputError, NoConvergence, SingularLagrangian
from .expr import Expression, _flow_function, parse
from .integrate import Trajectory, rk4_path, step_count
from .linalg import checked_solve

NEWTON_MAX_ITERATIONS = 50
NEWTON_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Lagrangian:
    """A Lagrangian density ``L(t, y, v)`` on the jet space."""

    expr: Expression
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("dimension must be at least 1")
        check_free_vars(self.expr, jet_vars(self.n), "a Lagrangian")

    @classmethod
    def parse(cls, source: str, n: int) -> "Lagrangian":
        return cls(parse(source), n)


def _blocks(L: Lagrangian):
    """L's generated block set as ``f(t, [y..., v...]) -> [value, gradient, tv, yv, vv]``."""
    return _flow_function(L.expr, jet_vars(L.n), "lagrangian blocks")


class _Derivatives:
    """Value, gradient and the ``tv``, ``yv`` and ``vv`` Hessian blocks of L
    over (t, y, v) at one jet point.

    The slots are filled from L's block set, one generated function that
    computes no ``tt``, ``ty`` or ``yy`` entry, since no caller reads them.
    """

    __slots__ = ("value", "grad_t", "grad_y", "grad_v", "tv", "yv", "vv")

    def __init__(self, L: Lagrangian, t: float, y: np.ndarray, v: np.ndarray):
        n = L.n
        value, grad, tv, yv, vv = _blocks(L)(float(t), [*map(float, y), *map(float, v)])
        self.value = float(value)
        self.grad_t = grad[0]
        self.grad_y = np.array(grad[1 : n + 1], dtype=float)
        self.grad_v = np.array(grad[n + 1 :], dtype=float)
        self.tv = np.array(tv, dtype=float)
        self.yv = np.array(yv, dtype=float)  # yv[j, i] = d2 L / dy^j dv^i
        self.vv = np.array(vv, dtype=float)


def _accelerations(grad_y, tv, yv, vv, v) -> np.ndarray:
    """Solve ``pi_ij a^j = dL/dy^i - d2L/dt dv^i - v^j d2L/dy^j dv^i``.

    The velocity term is summed left to right, ``v_0*yv[0][i] +
    v_1*yv[1][i] + ...``, so the result does not depend on the BLAS build.
    """
    n = len(v)
    force = []
    for i in range(n):
        transport = v[0] * yv[0][i]
        for j in range(1, n):
            transport = transport + v[j] * yv[j][i]
        force.append(grad_y[i] - tv[i] - transport)
    return checked_solve(vv, force, exc=SingularLagrangian)


def momentum_and_hessian(L: Lagrangian, j: JetPoint) -> tuple[np.ndarray, np.ndarray]:
    """Momentum map ``pi`` and velocity Hessian ``pi_ij`` at a jet point."""
    d = _Derivatives(L, j.t, j.y, j.v)
    return d.grad_v, d.vv


def legendre_map(L: Lagrangian, j: JetPoint) -> VerticalPhasePoint:
    """Map a jet to the phase space: ``p_i = dL/dv^i``."""
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    pi, _ = momentum_and_hessian(L, j)
    return VerticalPhasePoint(j.t, j.y, pi)


def legendre_invert(
    L: Lagrangian, q: VerticalPhasePoint, guess: np.ndarray | None = None
) -> JetPoint:
    """Solve ``dL/dv = p`` for the velocity by Newton iteration.

    The default initial guess is ``v = p``, which is exact for unit-mass
    kinetic terms.  Raises :class:`SingularLagrangian` when the velocity
    Hessian degenerates and :class:`NoConvergence` when the iteration budget
    runs out.
    """
    if q.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but point has n={q.n}")
    v = np.array(q.p if guess is None else guess, dtype=float)
    if v.shape != (L.n,):
        raise InputError(f"guess must have {L.n} components")
    for _ in range(NEWTON_MAX_ITERATIONS):
        pi, pi_vv = momentum_and_hessian(L, JetPoint(q.t, q.y, v))
        residual = pi - q.p
        if float(np.max(np.abs(residual))) <= NEWTON_TOLERANCE:
            return JetPoint(q.t, q.y, v)
        v = v - checked_solve(pi_vv, residual, exc=SingularLagrangian)
        if not np.all(np.isfinite(v)):
            raise NoConvergence("velocity iterate became non-finite")
    raise NoConvergence(
        f"momentum inversion did not reach {NEWTON_TOLERANCE} in {NEWTON_MAX_ITERATIONS} steps"
    )


def _el_residual_with_rates(
    d: _Derivatives, transport_velocity: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Euler-Lagrange block ``dL/dy - (total time derivative of pi)``.

    ``transport_velocity`` is the velocity used inside the total time
    derivative; honest second-order data uses the jet's own velocity.
    """
    total = d.tv + transport_velocity @ d.yv + a @ d.vv
    return d.grad_y - total


def euler_lagrange_residual(L: Lagrangian, s: SecondJetPoint) -> np.ndarray:
    """How far second-order data is from solving the equations of motion."""
    if s.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but point has n={s.n}")
    d = _Derivatives(L, s.t, s.y, s.v)
    return _el_residual_with_rates(d, s.v, s.a)


def dynamic_rhs(L: Lagrangian, j: JetPoint) -> np.ndarray:
    """Accelerations of a regular Lagrangian: solve ``pi_ij a^j = dL/dy - ...``."""
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    d = _Derivatives(L, j.t, j.y, j.v)
    return _accelerations(d.grad_y, d.tv, d.yv, d.vv, j.v)


def integrate_lagrange(L: Lagrangian, j0: JetPoint, t_end: float, dt: float) -> Trajectory:
    """Integrate the second-order equations of motion with fixed-step RK4."""
    if j0.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but start point has n={j0.n}")
    n = L.n
    n_steps = step_count(j0.t, t_end, dt)

    blocks = _blocks(L)

    # Raw block evaluation, so divergence reaches the integrator's blow-up
    # checks as nan instead of tripping point validation.
    def rhs(t: float, state: list) -> list:
        _, grad, tv, yv, vv = blocks(t, state)
        v = state[n:]
        try:
            return v + _accelerations(grad[1 : n + 1], tv, yv, vv, v).tolist()
        except ValueError:
            # checked_solve refuses non-finite input
            return [math.nan] * (2 * n)

    times, states = rk4_path(rhs, j0.t, np.concatenate([j0.y, j0.v]), dt, n_steps)
    return Trajectory("jet", times, states, dt)


def cartan_residual(L: Lagrangian, r: RepeatedJetPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residual blocks of the first-order variational equations.

    The first block ``pi_ij (vhat^j - v^j)`` vanishes when the comparison
    velocity matches the jet velocity (or along degenerate directions); the
    second block then reduces exactly to the Euler-Lagrange residual.
    """
    if r.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but point has n={r.n}")
    d = _Derivatives(L, r.t, r.y, r.v)
    gap = r.vhat - r.v
    first = d.vv @ gap
    second = _el_residual_with_rates(d, r.vhat, r.a) + gap @ d.yv.T
    return first, second


def poincare_cartan(L: Lagrangian, j: JetPoint) -> tuple[np.ndarray, float]:
    """Coefficients ``(pi_i, pi_i v^i - L)`` of the Poincare-Cartan form."""
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    d = _Derivatives(L, j.t, j.y, j.v)
    return d.grad_v, float(d.grad_v @ j.v - d.value)


def first_variation(
    L: Lagrangian, u_t: float, u: Sequence[Expression], s: SecondJetPoint
) -> tuple[float, float, float]:
    """Split the variation of L along a vector field into bulk and boundary.

    Returns ``(variation, equation_term, boundary_term)`` where the
    variation is the prolonged directional derivative of L, the equation
    term pairs the field with the Euler-Lagrange residual, and the boundary
    term is the total time derivative of the field contracted with the
    Poincare-Cartan form.  The three satisfy
    ``variation = equation_term + boundary_term`` identically.
    """
    if float(u_t) not in (0.0, 1.0):
        raise InputError("the time component of a variation field must be 0 or 1")
    u_t = float(u_t)
    n = L.n
    if len(u) != n:
        raise InputError(f"field must have {n} components")
    for comp in u:
        check_free_vars(comp, ("t",) + y_names(n), "a variation field component")
    if s.n != n:
        raise InputError(f"Lagrangian has n={n} but point has n={s.n}")

    d = _Derivatives(L, s.t, s.y, s.v)
    env = event_bindings(s.t, s.y, n)
    base = ("t",) + y_names(n)
    u_val = np.array([comp.evaluate(env) for comp in u])
    u_grad = np.array([comp.gradient(base, env) for comp in u])
    # d_t u^i along the jet: time slope plus advection by the velocity.
    u_rate = u_grad[:, 0] + u_grad[:, 1:] @ s.v

    variation = u_t * d.grad_t + float(u_val @ d.grad_y) + float(u_rate @ d.grad_v)

    residual = _el_residual_with_rates(d, s.v, s.a)
    equation_term = float((u_val - u_t * s.v) @ residual)

    pi = d.grad_v
    pi_rate = d.tv + s.v @ d.yv + s.a @ d.vv
    l_rate = d.grad_t + float(s.v @ d.grad_y) + float(s.a @ d.grad_v)
    boundary_term = float(pi_rate @ u_val + pi @ u_rate) - u_t * (
        float(pi_rate @ s.v + pi @ s.a) - l_rate
    )
    return variation, equation_term, boundary_term
