"""Symmetry currents, energy functions and conservation diagnostics.

A vector field on the event space with time component 0 or 1 induces a
current along solutions; its conservation defect is governed by the Lie
derivative of the Lagrangian.  The reports here evaluate both sides of
that weak identity along sampled trajectories and measure drift directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import (
    JetPoint,
    ReferenceFrame,
    VerticalPhasePoint,
    base_vars,
    check_free_vars,
    event_bindings,
    phase_bindings,
)
from .errors import InputError, OffShellTrajectory
from .expr import Expression, value_gradient
from .hamilton import HamiltonianForm
from .integrate import Trajectory, difference_quotients
from .lagrange import Lagrangian, _Derivatives, _el_residual_with_rates

ON_SHELL_TOLERANCE = 1e-5


def _validate_field(u_t: float, u: Sequence[Expression], n: int) -> float:
    if float(u_t) not in (0.0, 1.0):
        raise InputError("the time component of a symmetry field must be 0 or 1")
    if len(u) != n:
        raise InputError(f"field must have {n} components")
    for comp in u:
        check_free_vars(comp, base_vars(n), "a symmetry field component")
    return float(u_t)


def _field_values(u: Sequence[Expression], t: float, y: np.ndarray, n: int):
    """Values and total time rates of the field components along a jet."""
    env = event_bindings(t, y, n)
    names = base_vars(n)
    values = np.empty(n)
    jac = np.empty((n, n + 1))
    for i, comp in enumerate(u):
        values[i], jac[i] = value_gradient(comp, names, env)
    return values, jac


def _current_and_lie(
    d: _Derivatives, u_t: float, u: Sequence[Expression], t: float, y: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """Current and Lie derivative of L along the prolonged field at one jet."""
    values, jac = _field_values(u, t, y, y.size)
    rates = jac[:, 0] + jac[:, 1:] @ v
    current = float(d.grad_v @ (u_t * v - values)) - u_t * d.value
    lie = u_t * d.grad_t + float(values @ d.grad_y) + float(rates @ d.grad_v)
    return current, lie


def symmetry_current(L: Lagrangian, u_t: float, u: Sequence[Expression], j: JetPoint) -> float:
    """Current carried by a symmetry candidate: ``pi (u^t v - u) - u^t L``."""
    u_t = _validate_field(u_t, u, L.n)
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    d = _Derivatives(L, j.t, j.y, j.v)
    return _current_and_lie(d, u_t, u, j.t, j.y, j.v)[0]


def energy_function(L: Lagrangian, frame: ReferenceFrame, j: JetPoint) -> float:
    """Energy relative to a reference frame: ``pi (v - Gamma) - L``."""
    if frame.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but frame has n={frame.n}")
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    d = _Derivatives(L, j.t, j.y, j.v)
    return float(d.grad_v @ (j.v - frame.velocity(j.t, j.y))) - d.value


def lie_derivative(L: Lagrangian, u_t: float, u: Sequence[Expression], j: JetPoint) -> float:
    """Directional derivative of L along the prolonged symmetry field."""
    u_t = _validate_field(u_t, u, L.n)
    if j.n != L.n:
        raise InputError(f"Lagrangian has n={L.n} but jet has n={j.n}")
    d = _Derivatives(L, j.t, j.y, j.v)
    return _current_and_lie(d, u_t, u, j.t, j.y, j.v)[1]


@dataclass(frozen=True, eq=False)
class CurrentReport:
    """Weak-identity residuals and drift of a current along a trajectory."""

    values: np.ndarray  # current at each sample
    residuals: np.ndarray  # |lie derivative + d(current)/dt| per sample
    lie_values: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def max_drift(self) -> float:
        return float(np.max(np.abs(self.values - self.values[0])))

    @property
    def lie_derivative_max(self) -> float:
        return float(np.max(np.abs(self.lie_values)))


def weak_identity_residual(
    L: Lagrangian, u_t: float, u: Sequence[Expression], traj: Trajectory
) -> CurrentReport:
    """Balance the Lie derivative of L against the current's time rate.

    On solutions the two cancel; the report carries the per-sample defect,
    the raw current values and the Lie-derivative profile.  A trajectory
    whose finite-difference accelerations violate the equations of motion
    beyond 1e-5 is rejected as off shell.
    """
    u_t = _validate_field(u_t, u, L.n)
    if traj.kind != "jet":
        raise InputError("weak-identity check expects a jet trajectory")
    n = L.n
    if traj.n != n:
        raise InputError(f"Lagrangian has n={L.n} but trajectory has n={traj.n}")

    accelerations = difference_quotients(traj.states[:, n:], traj.dt)
    values = np.empty(traj.n_samples)
    lie_values = np.empty(traj.n_samples)
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        y, v = state[:n], state[n:]
        d = _Derivatives(L, t, y, v)
        defect = float(np.max(np.abs(_el_residual_with_rates(d, v, accelerations[k]))))
        if defect > ON_SHELL_TOLERANCE:
            raise OffShellTrajectory(
                f"sample {k} at t={t} violates the equations of motion by {defect:.3e}"
            )
        values[k], lie_values[k] = _current_and_lie(d, u_t, u, t, y, v)

    residuals = np.abs(lie_values + difference_quotients(values, traj.dt))
    return CurrentReport(values, residuals, lie_values)


def hamiltonian_current(
    H: HamiltonianForm, u_t: float, u: Sequence[Expression], q: VerticalPhasePoint
) -> float:
    """Phase-space counterpart of the symmetry current: ``-p u + u^t H``."""
    u_t = _validate_field(u_t, u, H.n)
    if q.n != H.n:
        raise InputError(f"Hamiltonian has n={H.n} but point has n={q.n}")
    values, _ = _field_values(u, q.t, q.y, H.n)
    return -float(q.p @ values) + u_t * H.expr.evaluate(phase_bindings(q))
