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
    _check_same_n,
    _field_jacobian,
    _validate_field,
    base_vars,
    event_bindings,
    phase_bindings,
)
from .errors import InputError, OffShellTrajectory
from .expr import Expression
from .hamilton import HamiltonianForm
from .integrate import Trajectory, difference_quotients
from .lagrange import Lagrangian, _Derivatives, _el_residual_with_rates

ON_SHELL_TOLERANCE = 1e-5


def _current_and_lie(
    d: _Derivatives, u_t: float, u: Sequence[Expression], t: float, y: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """Current and Lie derivative of L along the prolonged field at one jet."""
    values, jac = _field_jacobian(u, base_vars(y.size), event_bindings(t, y, y.size))
    rates = jac[:, 0] + jac[:, 1:] @ v
    current = float(d.grad_v @ (u_t * v - values)) - u_t * d.value
    lie = u_t * d.grad_t + float(values @ d.grad_y) + float(rates @ d.grad_v)
    return current, lie


def symmetry_current(L: Lagrangian, u_t: float, u: Sequence[Expression], j: JetPoint) -> float:
    """Current carried by a symmetry candidate: ``pi (u^t v - u) - u^t L``."""
    u_t = _validate_field(u_t, u, L.n, "symmetry field")
    _check_same_n("Lagrangian", L.n, "jet", j.n)
    d = _Derivatives(L, j.t, j.y, j.v)
    return _current_and_lie(d, u_t, u, j.t, j.y, j.v)[0]


def energy_function(L: Lagrangian, frame: ReferenceFrame, j: JetPoint) -> float:
    """Energy relative to a reference frame: ``pi (v - Gamma) - L``."""
    _check_same_n("Lagrangian", L.n, "frame", frame.n)
    _check_same_n("Lagrangian", L.n, "jet", j.n)
    d = _Derivatives(L, j.t, j.y, j.v)
    return float(d.grad_v @ (j.v - frame.velocity(j.t, j.y))) - d.value


def lie_derivative(L: Lagrangian, u_t: float, u: Sequence[Expression], j: JetPoint) -> float:
    """Directional derivative of L along the prolonged symmetry field."""
    u_t = _validate_field(u_t, u, L.n, "symmetry field")
    _check_same_n("Lagrangian", L.n, "jet", j.n)
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
    u_t = _validate_field(u_t, u, L.n, "symmetry field")
    if traj.kind != "jet":
        raise InputError("weak-identity check expects a jet trajectory")
    n = L.n
    _check_same_n("Lagrangian", L.n, "trajectory", traj.n)

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
    u_t = _validate_field(u_t, u, H.n, "symmetry field")
    _check_same_n("Hamiltonian", H.n, "point", q.n)
    values, _ = _field_jacobian(u, base_vars(H.n), event_bindings(q.t, q.y, H.n))
    return -float(q.p @ values) + u_t * H.expr.evaluate(phase_bindings(q))
