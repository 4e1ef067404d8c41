"""Hamiltonian dynamics on the vertical phase space.

A Hamiltonian form is represented by its scalar part ``H(t, y, p)``; the
flow it generates is ``dy/dt = dH/dp``, ``dp/dt = -dH/dy``.  The module
also certifies canonical transformations through the bracket relations on
their Jacobian blocks, measures generating-function residuals, and builds
the first-order phase-space Lagrangian whose variational equations are the
Hamilton equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import (
    FibredAutomorphism,
    JetPoint,
    ReferenceFrame,
    VerticalPhasePoint,
    VerticalTangent,
    _check_same_n,
    _field_jacobian,
    _worst,
    check_free_vars,
    p_names,
    phase_bindings,
    phase_vars,
    y_names,
)
from .errors import InputError
from .expr import (
    Const,
    Expression,
    Var,
    _flow_function,
    differentiate,
    expression,
    parse,
    substitute,
    value_gradient,
)
from .integrate import Trajectory, rk4_path, step_count
from .lagrange import Lagrangian

CANONICAL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class HamiltonianForm:
    """Scalar part ``H(t, y, p)`` of a Hamiltonian form on phase space."""

    expr: Expression
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("dimension must be at least 1")
        check_free_vars(self.expr, phase_vars(self.n), "a Hamiltonian")

    @classmethod
    def parse(cls, source: str, n: int) -> "HamiltonianForm":
        return cls(parse(source), n)


def _phase_gradient(H: HamiltonianForm, q: VerticalPhasePoint) -> tuple[float, np.ndarray]:
    return value_gradient(H.expr, phase_vars(H.n), phase_bindings(q))


def _hamilton_field(H: HamiltonianForm):
    """The Hamilton vector field as ``f(t, [y..., p...]) -> [dH/dp..., -dH/dy...]``.

    One generated function per Hamiltonian; it does not evaluate H itself.
    """
    return _flow_function(H.expr, phase_vars(H.n), "hamilton field")


def hamilton_rhs(H: HamiltonianForm, q: VerticalPhasePoint) -> VerticalTangent:
    """Right-hand side of the Hamilton equations at a phase point."""
    _check_same_n("Hamiltonian", H.n, "point", q.n)
    field = _hamilton_field(H)(float(q.t), np.concatenate([q.y, q.p]).tolist())
    return VerticalTangent(dy=field[: H.n], dp=field[H.n :], dt=1.0)


def integrate_hamilton(
    H: HamiltonianForm, q0: VerticalPhasePoint, t_end: float, dt: float
) -> Trajectory:
    """Fixed-step RK4 flow of the Hamilton equations, sampled every step."""
    _check_same_n("Hamiltonian", H.n, "start point", q0.n)
    n_steps = step_count(q0.t, t_end, dt)
    # The field alone would not notice a start outside H's domain: the
    # gradient of log(y1) exists where log(y1) does not.
    H.expr.evaluate(phase_bindings(q0))
    # Raw field evaluation: divergent states must flow into the
    # integrator's blow-up checks instead of tripping point validation.
    times, states = rk4_path(_hamilton_field(H), q0.t, np.concatenate([q0.y, q0.p]), dt, n_steps)
    return Trajectory("phase", times, states, dt)


def frame_splitting(H: HamiltonianForm, frame: ReferenceFrame) -> Expression:
    """Frame-dependent inner Hamiltonian ``H - p_i Gamma^i`` as an expression."""
    _check_same_n("Hamiltonian", H.n, "frame", frame.n)
    root = H.expr.root
    for name, component in zip(p_names(H.n), frame.components):
        root = root - Var(name) * component.root
    return expression(root)


def hamiltonian_map(H: HamiltonianForm, q: VerticalPhasePoint) -> JetPoint:
    """Momentum-to-velocity map: the jet with ``v = dH/dp`` at the point."""
    _check_same_n("Hamiltonian", H.n, "point", q.n)
    _, grad = _phase_gradient(H, q)
    return JetPoint(q.t, q.y, grad[H.n + 1 :])


# ---------------------------------------------------------------------------
# Canonical transformations


@dataclass(frozen=True)
class CanonicalTransform:
    """Phase-space coordinate change given componentwise over (t, y, p)."""

    y_out: tuple[Expression, ...]
    p_out: tuple[Expression, ...]

    def __post_init__(self):
        n = len(self.y_out)
        if n == 0 or len(self.p_out) != n:
            raise InputError("coordinate and momentum maps must have the same length")
        object.__setattr__(self, "y_out", tuple(self.y_out))
        object.__setattr__(self, "p_out", tuple(self.p_out))
        for comp in self.y_out + self.p_out:
            check_free_vars(comp, phase_vars(n), "a phase transform component")

    @classmethod
    def parse(cls, y_sources: Sequence[str], p_sources: Sequence[str]) -> "CanonicalTransform":
        return cls(tuple(parse(s) for s in y_sources), tuple(parse(s) for s in p_sources))

    @classmethod
    def identity(cls, n: int) -> "CanonicalTransform":
        return cls(
            tuple(expression(Var(name)) for name in y_names(n)),
            tuple(expression(Var(name)) for name in p_names(n)),
        )

    @property
    def n(self) -> int:
        return len(self.y_out)

    def apply(self, q: VerticalPhasePoint) -> VerticalPhasePoint:
        _check_same_n("transform", self.n, "point", q.n)
        env = phase_bindings(q)
        return VerticalPhasePoint(
            q.t,
            [comp.evaluate(env) for comp in self.y_out],
            [comp.evaluate(env) for comp in self.p_out],
        )

    def jacobian_blocks(
        self, q: VerticalPhasePoint
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Blocks (A, B, C, D) = (dy'/dy, dy'/dp, dp'/dy, dp'/dp) at a point."""
        n = self.n
        names = phase_vars(n)
        env = phase_bindings(q)
        _, y_jac = _field_jacobian(self.y_out, names, env)
        _, p_jac = _field_jacobian(self.p_out, names, env)
        ys = slice(1, n + 1)
        ps = slice(n + 1, 2 * n + 1)
        return y_jac[:, ys], y_jac[:, ps], p_jac[:, ys], p_jac[:, ps]


@dataclass(frozen=True)
class CanonicalReport:
    """Worst-case residuals of the three canonical bracket relations."""

    coordinate_residual: float  # max |{y'^i, y'^j}|
    momentum_residual: float  # max |{p'_i, p'_j}|
    pairing_residual: float  # max |{y'^i, p'_j} - delta^i_j|
    tolerance: float

    @property
    def max_residual(self) -> float:
        return _worst(self.coordinate_residual, self.momentum_residual, self.pairing_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def canonical_relation_residuals(
    transform: CanonicalTransform, q: VerticalPhasePoint
) -> tuple[float, float, float]:
    """Pointwise residuals of the bracket relations between new coordinates.

    A transform preserves the vertical bracket exactly when the new
    coordinates satisfy ``{y'^i, y'^j} = 0``, ``{p'_i, p'_j} = 0`` and
    ``{y'^i, p'_j} = delta^i_j``; the three returned numbers are the max
    deviations from those identities at the given point.
    """
    a, b, c, d = transform.jacobian_blocks(q)
    yy = a @ b.T - b @ a.T
    pp = c @ d.T - d @ c.T
    pairing = a @ d.T - b @ c.T - np.eye(transform.n)
    return (
        float(np.max(np.abs(yy))),
        float(np.max(np.abs(pp))),
        float(np.max(np.abs(pairing))),
    )


def canonical_check(
    transform: CanonicalTransform,
    points: Sequence[VerticalPhasePoint],
    tolerance: float = CANONICAL_TOLERANCE,
) -> CanonicalReport:
    """Certify canonicity on a finite sample set of phase points."""
    if not points:
        raise InputError("canonical check needs at least one sample point")
    worst = [0.0, 0.0, 0.0]
    for q in points:
        residuals = canonical_relation_residuals(transform, q)
        worst = [_worst(w, r) for w, r in zip(worst, residuals)]
    return CanonicalReport(worst[0], worst[1], worst[2], float(tolerance))


@dataclass(frozen=True)
class GeneratingFunctionReport:
    """Worst-case residuals of the three generating-function relations."""

    position_residual: float  # dS/dy_i - (p'_j dy'^j/dy_i - p_i)
    momentum_residual: float  # dS/dp_i - p'_j dy'^j/dp_i
    energy_residual: float  # (H' after - H) - (p'_j dy'^j/dt - dS/dt)
    tolerance: float

    @property
    def max_residual(self) -> float:
        return _worst(self.position_residual, self.momentum_residual, self.energy_residual)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def generating_function_residual(
    transform: CanonicalTransform,
    S: Expression,
    H: HamiltonianForm,
    H_new: HamiltonianForm,
    points: Sequence[VerticalPhasePoint],
    tolerance: float = CANONICAL_TOLERANCE,
) -> GeneratingFunctionReport:
    """Test whether ``S(t, y, p)`` generates the transform.

    The relations compare the differential of S against the difference of
    the canonical one-forms before and after the transform; the third one
    ties the two Hamiltonians together through the explicit time dependence.
    """
    n = transform.n
    if H.n != n or H_new.n != n:
        raise InputError("transform and Hamiltonians must share a dimension")
    check_free_vars(S, phase_vars(n), "a generating function")
    if not points:
        raise InputError("generating-function check needs at least one sample point")

    names = phase_vars(n)
    ys = slice(1, n + 1)
    ps = slice(n + 1, 2 * n + 1)
    worst = [0.0, 0.0, 0.0]
    for q in points:
        env = phase_bindings(q)
        s_grad = np.array(S.gradient(names, env))
        p_new = np.array([comp.evaluate(env) for comp in transform.p_out])
        _, y_jac = _field_jacobian(transform.y_out, names, env)

        r_pos = s_grad[ys] - (p_new @ y_jac[:, ys] - q.p)
        r_mom = s_grad[ps] - p_new @ y_jac[:, ps]
        image = transform.apply(q)
        h_before = H.expr.evaluate(env)
        h_after = H_new.expr.evaluate(phase_bindings(image))
        r_energy = (h_after - h_before) - (float(p_new @ y_jac[:, 0]) - s_grad[0])

        worst[0] = _worst(worst[0], float(np.max(np.abs(r_pos))))
        worst[1] = _worst(worst[1], float(np.max(np.abs(r_mom))))
        worst[2] = _worst(worst[2], abs(r_energy))
    return GeneratingFunctionReport(worst[0], worst[1], worst[2], float(tolerance))


def canonical_from_automorphism(auto: FibredAutomorphism) -> CanonicalTransform:
    """Lift a base coordinate change to phase space symbolically.

    New coordinates are the forward map; new momenta follow the cotangent
    rule ``p'_i = (d old_j / d new_i)(t, y') p_j``, with the inverse map's
    Jacobian re-expressed through the old coordinates by substitution.
    """
    n = auto.n
    forward_subs = {name: comp for name, comp in zip(y_names(n), auto.forward)}
    p_out = []
    for i, y_i in enumerate(y_names(n)):
        root = Const(0.0)
        for j in range(n):
            partial = differentiate(auto.inverse[j], y_i)
            in_old = substitute(partial, forward_subs)
            root = root + in_old.root * Var(p_names(n)[j])
        p_out.append(expression(root))
    y_out = tuple(expression(comp.root) for comp in auto.forward)
    return CanonicalTransform(y_out, tuple(p_out))


def phase_space_lagrangian(H: HamiltonianForm) -> Lagrangian:
    """First-order Lagrangian on the doubled fibre whose equations of
    motion are the Hamilton equations.

    Coordinates 1..n are the positions, n+1..2n carry the momenta; the
    density is ``sum_i y_{n+i} v_i - H``.  Its Euler-Lagrange residual at a
    second jet is ``-(p_t + dH/dy)`` in the first block and
    ``y_t - dH/dp`` in the second.
    """
    n = H.n
    doubled = y_names(2 * n)
    momentum_subs = {
        p: expression(Var(doubled[n + i])) for i, p in enumerate(p_names(n))
    }
    root = Const(0.0)
    for i in range(n):
        root = root + Var(doubled[n + i]) * Var(f"v{i + 1}")
    root = root - substitute(H.expr, momentum_subs).root
    return Lagrangian(expression(root), 2 * n)
