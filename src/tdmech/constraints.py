"""Diagnostics for degenerate Lagrangians and their associated Hamiltonians.

A Hamiltonian is associated with a Lagrangian when the momentum map, the
velocity map and the two densities fit together; for degenerate systems the
fit only holds on the constraint space, the image of the momentum map.
This module measures all of those fits numerically: association residuals,
the constraint functions ``c_i = p_i - pi_i(t, y, dH/dp)``, tangency of the
Hamiltonian flow to the constraint space, and the weak form of the Hamilton
equations restricted to constraint-tangent directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import (
    JetPoint,
    RepeatedJetPoint,
    VerticalPhasePoint,
    _check_same_n,
    jet_bindings,
    phase_bindings,
    phase_vars,
)
from .errors import InputError, OffShellTrajectory
from .expr import value_gradient, value_gradient_hessian
from .hamilton import HamiltonianForm, _hamilton_field, hamiltonian_map
from .integrate import Trajectory, difference_quotients
from .lagrange import Lagrangian, _Derivatives, cartan_residual, legendre_map
from .linalg import kernel_basis

ASSOCIATION_TOLERANCE = 1e-8
CONSTRAINT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ConstraintSpace:
    """Image of the momentum map, described by its defect functions."""

    lagrangian: Lagrangian
    hamiltonian: HamiltonianForm

    def __post_init__(self):
        if self.lagrangian.n != self.hamiltonian.n:
            raise InputError("Lagrangian and Hamiltonian must share a dimension")

    @property
    def n(self) -> int:
        return self.lagrangian.n

    def residual(self, q: VerticalPhasePoint) -> np.ndarray:
        return constraint_residual(self.lagrangian, self.hamiltonian, q)


def constraint_residual(L: Lagrangian, H: HamiltonianForm, q: VerticalPhasePoint) -> np.ndarray:
    """Defect ``p - pi(t, y, dH/dp)`` of a phase point against the image
    of the momentum map."""
    if L.n != H.n or q.n != L.n:
        raise InputError("Lagrangian, Hamiltonian and point must share a dimension")
    image = legendre_map(L, hamiltonian_map(H, q))
    return q.p - image.p


class _ConstraintGradients:
    """Constraint values and first derivatives over (t, y, p) at a point.

    Assembled by the chain rule from the exact Hessians of L and H, so no
    finite differencing enters the tangency or kernel computations.
    """

    __slots__ = ("values", "d_t", "d_y", "d_p", "h_grad")

    def __init__(self, L: Lagrangian, H: HamiltonianForm, q: VerticalPhasePoint):
        n = L.n
        _, h_grad, h_hess = value_gradient_hessian(H.expr, phase_vars(n), phase_bindings(q))
        velocities = h_grad[n + 1 :]
        d = _Derivatives(L, q.t, q.y, velocities)
        ps = slice(n + 1, 2 * n + 1)
        ys = slice(1, n + 1)
        self.values = q.p - d.grad_v
        self.d_t = -(d.tv + d.vv @ h_hess[ps, 0])
        self.d_y = -(d.yv.T + d.vv @ h_hess[ps, ys])
        self.d_p = np.eye(n) - d.vv @ h_hess[ps, ps]
        self.h_grad = h_grad


def tangency_residual(L: Lagrangian, H: HamiltonianForm, q: VerticalPhasePoint) -> np.ndarray:
    """Rate of each constraint function along the Hamiltonian flow.

    Zero on the constraint space means the flow does not leave it; a
    nonzero value is the obstruction measured at the given point.
    """
    if L.n != H.n or q.n != L.n:
        raise InputError("Lagrangian, Hamiltonian and point must share a dimension")
    n = L.n
    g = _ConstraintGradients(L, H, q)
    return g.d_t + g.d_y @ g.h_grad[n + 1 :] - g.d_p @ g.h_grad[1 : n + 1]


@dataclass(frozen=True)
class AssociationReport:
    """Residuals of the two association relations over sample sets."""

    map_residual: float  # round trip through both fibre maps
    energy_residual: float  # p dH/dp - H against L after the velocity map
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.map_residual, self.energy_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def association_check(
    L: Lagrangian,
    H: HamiltonianForm,
    jets: Sequence[JetPoint],
    phases: Sequence[VerticalPhasePoint],
    tolerance: float = ASSOCIATION_TOLERANCE,
) -> AssociationReport:
    """Test whether H is associated with L on the given samples.

    The first residual runs each jet through momentum map, velocity map and
    momentum map again, which must reproduce the single momentum map.  The
    second compares ``p dH/dp - H`` with L evaluated on the velocity map's
    image; for degenerate systems both must hold identically, not just on
    the constraint space.
    """
    if L.n != H.n:
        raise InputError("Lagrangian and Hamiltonian must share a dimension")
    if not jets or not phases:
        raise InputError("association check needs jet and phase samples")
    n = L.n

    worst_map = 0.0
    for j in jets:
        once = legendre_map(L, j)
        again = legendre_map(L, hamiltonian_map(H, once))
        worst_map = max(worst_map, float(np.max(np.abs(again.p - once.p))))

    worst_energy = 0.0
    for q in phases:
        h_val, h_grad = value_gradient(H.expr, phase_vars(n), phase_bindings(q))
        velocities = h_grad[n + 1 :]
        left = float(q.p @ velocities) - h_val
        jet = JetPoint(q.t, q.y, velocities)
        right = L.expr.evaluate(jet_bindings(jet))
        worst_energy = max(worst_energy, abs(left - right))

    return AssociationReport(worst_map, worst_energy, float(tolerance))


@dataclass(frozen=True)
class ConstrainedFlowReport:
    """Weak Hamilton-equation residual along constraint-tangent directions."""

    max_residual: float
    tolerance: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def constrained_hamilton_residual(
    H: HamiltonianForm,
    constraints: ConstraintSpace | None,
    traj: Trajectory,
    tolerance: float = CONSTRAINT_TOLERANCE,
) -> ConstrainedFlowReport:
    """Residual of the Hamilton equations paired against every vertical
    direction tangent to the constraint space.

    With no constraint space the directions span the whole vertical fibre
    and the check reduces to the plain Hamilton-equation residual.  Raises
    :class:`OffShellTrajectory` when a sample leaves the constraint space
    by more than the tolerance.
    """
    if traj.kind != "phase":
        raise InputError("constrained check expects a phase trajectory")
    n = H.n
    _check_same_n("Hamiltonian", H.n, "trajectory", traj.n)
    if constraints is not None and constraints.n != n:
        raise InputError("constraint space dimension mismatch")

    rates = difference_quotients(traj.states, traj.dt)
    field = _hamilton_field(H)
    if constraints is None:
        # Pairing with the identity basis picks single components, so the
        # worst pairing is the worst component of the rate error.
        samples = zip(traj.times.tolist(), traj.states.tolist())
        fields = np.array([field(t, state) for t, state in samples])
        worst = float(np.max(np.abs(rates - fields)))
        return ConstrainedFlowReport(worst, float(tolerance), traj.n_samples)

    worst = 0.0
    for row, (t, state, rate) in enumerate(zip(traj.times, traj.states, rates)):
        q = VerticalPhasePoint(t, state[:n], state[n:])
        g = _ConstraintGradients(constraints.lagrangian, H, q)
        defect = float(np.max(np.abs(g.values)))
        if defect > tolerance:
            raise OffShellTrajectory(
                f"sample {row} at t={t} leaves the constraint space by {defect:.3e}"
            )
        basis = kernel_basis(np.hstack([g.d_y, g.d_p]))
        err = rate - field(float(t), state.tolist())
        for direction in basis:
            paired = abs(float(direction[:n] @ err[n:] - direction[n:] @ err[:n]))
            worst = max(worst, paired)
    return ConstrainedFlowReport(worst, float(tolerance), traj.n_samples)


def cartan_pullback_residual(
    L: Lagrangian, H: HamiltonianForm, r: RepeatedJetPoint
) -> tuple[float, float]:
    """Check that the first-order variational residuals of L are the
    pull-back of the Hamilton-operator residuals of an associated H.

    Returns the max deviations of the two block identities; both stay at
    rounding level for associated pairs, degenerate or not.
    """
    if L.n != H.n or r.n != L.n:
        raise InputError("Lagrangian, Hamiltonian and point must share a dimension")
    n = L.n
    first, second = cartan_residual(L, r)

    image = legendre_map(L, JetPoint(r.t, r.y, r.v))
    _, h_grad = value_gradient(H.expr, phase_vars(n), phase_bindings(image))
    gap = r.vhat - h_grad[n + 1 :]

    d = _Derivatives(L, r.t, r.y, r.v)
    momentum_rate = d.tv + r.vhat @ d.yv + r.a @ d.vv
    force = -(momentum_rate + h_grad[1 : n + 1])

    first_expected = gap @ d.vv
    second_expected = force + gap @ d.yv.T
    return (
        float(np.max(np.abs(first - first_expected))),
        float(np.max(np.abs(second - second_expected))),
    )
