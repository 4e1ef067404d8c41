"""Poisson brackets on the three phase spaces and the evolution derivative.

Brackets are oriented so that position pairs with momentum positively:
``{y^i, p_j} = +delta^i_j`` on the vertical phase space and ``{t, p0} = +1``
for the extra homogeneous pair.  The jet-space bracket carries the same
orientation through the momentum map, so ``{y^i, v^j}`` of a unit-mass
kinetic term is ``+delta^ij`` as well.

All brackets are evaluated pointwise from exact gradients, which evaluate
the symbolic derivative trees of each expression at the point; the bracket
itself is never built as an expression.
"""

from __future__ import annotations

import numpy as np

from .bundle import (
    HomogeneousPhasePoint,
    JetPoint,
    JetTangent,
    ReferenceFrame,
    VerticalPhasePoint,
    VerticalTangent,
    _check_same_n,
    _field_jacobian,
    base_vars,
    check_free_vars,
    event_bindings,
    homogeneous_bindings,
    homogeneous_vars,
    jet_bindings,
    jet_vars,
    phase_bindings,
    phase_vars,
)
from .errors import InputError, SingularLagrangian
from .expr import Expression, value_gradient
from .hamilton import HamiltonianForm
from .lagrange import Lagrangian, _Derivatives
from .linalg import checked_inverse


def bracket_vertical(f: Expression, g: Expression, q: VerticalPhasePoint) -> float:
    """Canonical bracket on the vertical phase space at a point."""
    n = q.n
    names = phase_vars(n)
    check_free_vars(f, names, "a vertical-bracket argument")
    check_free_vars(g, names, "a vertical-bracket argument")
    env = phase_bindings(q)
    _, fg = value_gradient(f, names, env)
    _, gg = value_gradient(g, names, env)
    ys = slice(1, n + 1)
    ps = slice(n + 1, 2 * n + 1)
    return float(fg[ys] @ gg[ps] - gg[ys] @ fg[ps])


def bracket_homogeneous(f: Expression, g: Expression, q: HomogeneousPhasePoint) -> float:
    """Bracket on the homogeneous phase space, where time itself pairs
    with the extra momentum coordinate."""
    n = q.n
    names = homogeneous_vars(n)
    check_free_vars(f, names, "a homogeneous-bracket argument")
    check_free_vars(g, names, "a homogeneous-bracket argument")
    env = homogeneous_bindings(q)
    _, fg = value_gradient(f, names, env)
    _, gg = value_gradient(g, names, env)
    ys = slice(1, n + 1)
    ps = slice(n + 1, 2 * n + 1)
    vertical = float(fg[ys] @ gg[ps] - gg[ys] @ fg[ps])
    return vertical + float(fg[0] * gg[-1] - gg[0] * fg[-1])


def hamiltonian_vector_field(f: Expression, q: VerticalPhasePoint) -> VerticalTangent:
    """Vertical field generated by a phase function: ``dy = df/dp``,
    ``dp = -df/dy``, never a time component."""
    n = q.n
    names = phase_vars(n)
    check_free_vars(f, names, "a phase function")
    _, grad = value_gradient(f, names, phase_bindings(q))
    return VerticalTangent(dy=grad[n + 1 :], dp=-grad[1 : n + 1], dt=0.0)


class _JetStructure:
    """Inverse velocity Hessian and momentum curl of L at a jet point."""

    __slots__ = ("inverse", "weight")

    def __init__(self, L: Lagrangian, j: JetPoint):
        _check_same_n("Lagrangian", L.n, "jet", j.n)
        d = _Derivatives(L, j.t, j.y, j.v)
        self.inverse = checked_inverse(d.vv, exc=SingularLagrangian)
        curl = d.yv - d.yv.T  # curl[k, i] = d_k pi_i - d_i pi_k
        self.weight = self.inverse @ curl.T @ self.inverse


def _jet_gradients(f: Expression, n: int, env) -> tuple[np.ndarray, np.ndarray]:
    names = jet_vars(n)
    check_free_vars(f, names, "a jet-space function")
    _, grad = value_gradient(f, names, env)
    return grad[1 : n + 1], grad[n + 1 :]


def bracket_lagrangian(f: Expression, g: Expression, L: Lagrangian, j: JetPoint) -> float:
    """Bracket on the jet space induced by a regular Lagrangian.

    Built from the inverse velocity Hessian; the antisymmetrized mixed
    derivatives of the momentum map contribute the velocity-velocity term.
    Raises :class:`SingularLagrangian` at degenerate points.
    """
    structure = _JetStructure(L, j)
    env = jet_bindings(j)
    fy, fv = _jet_gradients(f, L.n, env)
    gy, gv = _jet_gradients(g, L.n, env)
    return float(gv @ structure.inverse @ fy - gy @ structure.inverse @ fv + gv @ structure.weight @ fv)


def lagrangian_hamiltonian_vector_field(f: Expression, L: Lagrangian, j: JetPoint) -> JetTangent:
    """Jet-space field whose pairing with dg reproduces the jet bracket."""
    structure = _JetStructure(L, j)
    fy, fv = _jet_gradients(f, L.n, jet_bindings(j))
    dy = -structure.inverse @ fv
    dv = structure.inverse @ fy + structure.weight @ fv
    return JetTangent(dy=dy, dv=dv)


def evolution_derivative(H: HamiltonianForm, f: Expression, q: VerticalPhasePoint) -> float:
    """Total time derivative of f along the Hamiltonian flow at a point."""
    n = q.n
    _check_same_n("Hamiltonian", H.n, "point", q.n)
    names = phase_vars(n)
    check_free_vars(f, names, "a phase function")
    env = phase_bindings(q)
    _, fg = value_gradient(f, names, env)
    _, hg = value_gradient(H.expr, names, env)
    ys = slice(1, n + 1)
    ps = slice(n + 1, 2 * n + 1)
    return float(fg[0] + hg[ps] @ fg[ys] - hg[ys] @ fg[ps])


def evolution_derivative_split(
    H: HamiltonianForm, frame: ReferenceFrame, f: Expression, q: VerticalPhasePoint
) -> float:
    """Evolution derivative through a reference frame: frame transport terms
    plus the bracket with the frame-split inner Hamiltonian.

    Agrees with :func:`evolution_derivative` identically; the split isolates
    which part of the rate is frame drift and which is genuine dynamics.
    The inner Hamiltonian ``H - p_i Gamma^i`` of :func:`frame_splitting` is
    differentiated pointwise, from the gradients of H and of the frame.
    """
    n = q.n
    if H.n != n or frame.n != n:
        raise InputError("Hamiltonian, frame and point must share a dimension")
    names = phase_vars(n)
    check_free_vars(f, names, "a phase function")
    env = phase_bindings(q)
    _, fg = value_gradient(f, names, env)
    _, hg = value_gradient(H.expr, names, env)

    gamma, jac = _field_jacobian(frame.components, base_vars(n), event_bindings(q.t, q.y, n))

    ys = slice(1, n + 1)
    ps = slice(n + 1, 2 * n + 1)
    drift = q.p @ jac[:, 1:]  # d(p_j Gamma^j)/dy
    transport = float(gamma @ fg[ys]) - float(drift @ fg[ps])
    inner_y = hg[ys] - drift
    inner_p = hg[ps] - gamma
    return float(fg[0]) + transport + float(fg[ys] @ inner_p - inner_y @ fg[ps])
