"""RK4 over lists of floats against a numpy reference, and the integrators'
contracts for step requests, sample spacing and blow-ups."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from tdmech.bundle import JetPoint, VerticalPhasePoint, jet_vars, phase_vars
from tdmech.constraints import constrained_hamilton_residual
from tdmech.errors import (
    DomainError,
    InputError,
    IntegrationBlowup,
    SingularLagrangian,
)
from tdmech.hamilton import HamiltonianForm, integrate_hamilton
from tdmech.integrate import _SAMPLE_BUDGET, Trajectory, rk4_path, rk4_to, step_count
from tdmech.lagrange import Lagrangian, integrate_lagrange
from treewalk import _evaluate_trees

# ---------------------------------------------------------------------------
# Reference: classical RK4 on numpy arrays, with right-hand sides that walk
# the derivative trees.  It shares no stepping or generated code with the
# library.


def _reference_stage(state: np.ndarray, t: float) -> np.ndarray:
    if not np.all(np.isfinite(state)):
        raise IntegrationBlowup(float(t))
    return state


def _reference_step(rhs, t, state, dt):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, _reference_stage(state + 0.5 * dt * k1, t))
    k3 = rhs(t + 0.5 * dt, _reference_stage(state + 0.5 * dt * k2, t))
    k4 = rhs(t + dt, _reference_stage(state + dt * k3, t))
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_path(rhs, t0, state0, dt, n_steps):
    state = np.asarray(state0, dtype=float)
    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, state.size))
    states[0] = state
    for k in range(n_steps):
        state = _reference_step(rhs, times[k], state, dt)
        if not np.all(np.isfinite(state)):
            raise IntegrationBlowup(float(times[k]))
        states[k + 1] = state
    return times, states


def _env(names, t, state) -> dict:
    return dict(zip(names, (float(t), *map(float, state))))


def _hamilton_reference_rhs(H: HamiltonianForm):
    n = H.n
    names = phase_vars(n)

    def rhs(t, state):
        _, grad = _evaluate_trees(H.expr, names, _env(names, t, state), hessian=False)
        out = np.empty(2 * n)
        out[:n] = grad[n + 1 :]
        out[n:] = -grad[1 : n + 1]
        return out

    return rhs


def _lagrange_reference_rhs(L: Lagrangian):
    n = L.n
    names = jet_vars(n)
    ys, vs = slice(1, n + 1), slice(n + 1, 2 * n + 1)

    def rhs(t, state):
        _, grad, hess = _evaluate_trees(L.expr, names, _env(names, t, state), hessian=True)
        v = state[n:]
        yv = hess[ys, vs]
        force = np.empty(n)
        for i in range(n):
            transport = v[0] * yv[0, i]
            for j in range(1, n):
                transport = transport + v[j] * yv[j, i]
            force[i] = grad[ys][i] - hess[0, vs][i] - transport
        return np.concatenate([v, lu_solve(lu_factor(hess[vs, vs]), force)])

    return rhs


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Drawn systems

_coefficients = st.floats(-1.0, 1.0, allow_nan=False).map(lambda c: round(c, 6))
_starts = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _hamiltonians(draw):
    """Kinetic term plus drawn polynomial, sin/exp and explicitly timed terms."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    templates = [
        lambda c, i, j: f"{c!r}*y{i}^2",
        lambda c, i, j: f"{c!r}*y{i}^4",
        lambda c, i, j: f"{c!r}*y{i}*y{j}",
        lambda c, i, j: f"{c!r}*y{i}*p{j}",
        lambda c, i, j: f"{c!r}*p{i}^2*y{j}^2",
        lambda c, i, j: f"{c!r}*sin(y{i} - y{j})",
        lambda c, i, j: f"{c!r}*exp(0.3*y{i})*p{j}",
        lambda c, i, j: f"{c!r}*sin(2.0*t)*y{i}",
        lambda c, i, j: f"{c!r}*t*p{i}*y{j}",
    ]
    terms = [f"0.5*p{i}^2" for i in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 5))):
        template = draw(st.sampled_from(templates))
        terms.append(template(draw(_coefficients), draw(index), draw(index)))
    H = HamiltonianForm.parse(" + ".join(terms), n)
    state = draw(st.lists(_starts, min_size=2 * n, max_size=2 * n))
    t0 = draw(st.floats(0.0, 3.0))
    return H, VerticalPhasePoint(t0, state[:n], state[n:])


@st.composite
def _lagrangians(draw):
    """Kinetic terms whose velocity Hessian stays positive definite, with
    position- and time-dependent couplings that fill the tv and yv blocks."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    terms = []
    for i in range(1, n + 1):
        mass = draw(st.floats(0.0, 1.0))
        terms.append(f"0.5*(1.0 + {round(mass, 6)!r}*y{i}^2)*v{i}^2")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # |coupling| <= 0.4 keeps the velocity Hessian diagonally dominant.
            terms.append(f"{round(0.4 * draw(_coefficients), 6)!r}*v{i}*v{j}")
        for j in range(1, n + 1):
            # Fills every yv entry with a varying value, so that the order of
            # the velocity sum shows in the last bits.
            terms.append(f"{draw(_coefficients)!r}*y{j}^2*v{i}")
    templates = [
        lambda c, i, j: f"{c!r}*y{i}*v{j}",
        lambda c, i, j: f"{c!r}*sin(t)*y{i}*v{j}",
        lambda c, i, j: f"{c!r}*t*v{i}",
        lambda c, i, j: f"{c!r}*y{i}^2*y{j}^2",
        lambda c, i, j: f"{c!r}*cos(y{i})",
        lambda c, i, j: f"{c!r}*exp(0.2*y{i})*v{j}",
    ]
    for _ in range(draw(st.integers(1, 5))):
        template = draw(st.sampled_from(templates))
        terms.append(template(draw(_coefficients), draw(index), draw(index)))
    L = Lagrangian.parse(" + ".join(terms), n)
    state = draw(st.lists(_starts, min_size=2 * n, max_size=2 * n))
    t0 = draw(st.floats(0.0, 3.0))
    return L, JetPoint(t0, state[:n], state[n:])


class TestMatchesNumpyReference:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(system=_hamiltonians(), steps=st.integers(1, 25))
    def test_hamilton_flow_is_bit_identical(self, system, steps):
        H, q0 = system
        dt = 1e-2
        traj = integrate_hamilton(H, q0, q0.t + steps * dt, dt)
        times, states = _reference_path(
            _hamilton_reference_rhs(H), q0.t, np.concatenate([q0.y, q0.p]), dt, traj.n_samples - 1
        )
        assert _same_bits(traj.times, times)
        assert _same_bits(traj.states, states)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(system=_lagrangians(), steps=st.integers(1, 25))
    def test_lagrange_flow_is_bit_identical(self, system, steps):
        L, j0 = system
        dt = 1e-2
        traj = integrate_lagrange(L, j0, j0.t + steps * dt, dt)
        times, states = _reference_path(
            _lagrange_reference_rhs(L), j0.t, np.concatenate([j0.y, j0.v]), dt, traj.n_samples - 1
        )
        assert _same_bits(traj.times, times)
        assert _same_bits(traj.states, states)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(system=_hamiltonians(), steps=st.integers(2, 25))
    def test_unconstrained_residual_is_the_per_direction_loop(self, system, steps):
        H, q0 = system
        dt = 1e-2
        traj = integrate_hamilton(H, q0, q0.t + steps * dt, dt)
        n = H.n
        names = phase_vars(n)
        rates = np.empty_like(traj.states)
        rates[1:-1] = (traj.states[2:] - traj.states[:-2]) / (2.0 * dt)
        rates[0] = (-3.0 * traj.states[0] + 4.0 * traj.states[1] - traj.states[2]) / (2.0 * dt)
        rates[-1] = (3.0 * traj.states[-1] - 4.0 * traj.states[-2] + traj.states[-3]) / (2.0 * dt)
        worst = 0.0
        for t, state, rate in zip(traj.times, traj.states, rates):
            _, grad = _evaluate_trees(H.expr, names, _env(names, t, state), hessian=False)
            err_y = rate[:n] - grad[n + 1 :]
            err_p = rate[n:] + grad[1 : n + 1]
            for direction in np.eye(2 * n):
                worst = max(worst, abs(float(direction[:n] @ err_p - direction[n:] @ err_y)))
        report = constrained_hamilton_residual(H, None, traj)
        assert _same_bits(np.array(report.max_residual), np.array(worst))

    def test_four_rhs_calls_per_step(self):
        calls = []

        def rhs(t, state):
            calls.append(t)
            return [-x for x in state]

        rk4_path(rhs, 0.0, [1.0, 2.0], 0.1, 7)
        assert len(calls) == 28
        calls.clear()
        rk4_to(rhs, 0.0, [1.0], 0.35, 0.1)  # three full steps and a remainder
        assert len(calls) == 16


# ---------------------------------------------------------------------------
# Blow-ups: a domain failure inside the flow is a blow-up, at the start it is
# the input's.


class TestDomainFailures:
    def test_overflow_inside_the_flow_is_a_blowup(self):
        H = HamiltonianForm.parse("0.5*p1^2 - exp(y1^2)", 1)
        with pytest.raises(IntegrationBlowup) as info:
            integrate_hamilton(H, VerticalPhasePoint(0.0, [3.0], [0.0]), 1.0, 1e-2)
        assert 0.0 <= info.value.last_t < 1.0
        assert info.value.last_t == pytest.approx(round(info.value.last_t / 1e-2) * 1e-2)
        assert isinstance(info.value.__cause__, DomainError)
        assert "exp" in info.value.__cause__.node_source

    def test_start_outside_the_domain_stays_a_domain_error(self):
        H = HamiltonianForm.parse("0.5*p1^2 + log(y1)", 1)
        with pytest.raises(DomainError, match="log"):
            integrate_hamilton(H, VerticalPhasePoint(0.0, [-1.0], [0.0]), 1.0, 1e-2)
        L = Lagrangian.parse("0.5*v1^2 - log(y1)", 1)
        with pytest.raises(DomainError, match="log"):
            integrate_lagrange(L, JetPoint(0.0, [-1.0], [0.0]), 1.0, 1e-2)

    def test_degenerate_lagrangian_stays_singular(self):
        L = Lagrangian.parse("v1*y1", 1)
        with pytest.raises(SingularLagrangian):
            integrate_lagrange(L, JetPoint(0.0, [1.0], [0.5]), 1.0, 1e-2)


# ---------------------------------------------------------------------------
# Step requests and sample spacing


class TestStepRequests:
    @pytest.mark.parametrize(
        "t0, t_end, dt",
        [
            (0.0, 1.0, float("nan")),
            (0.0, float("nan"), 1e-3),
            (float("nan"), 1.0, 1e-3),
            (0.0, float("inf"), 1e-3),
            (float("-inf"), 1.0, 1e-3),
            (0.0, 1.0, float("inf")),
        ],
    )
    def test_non_finite_requests_are_input_errors(self, t0, t_end, dt):
        with pytest.raises(InputError):
            step_count(t0, t_end, dt)

    @pytest.mark.parametrize(
        "t, t_target, dt",
        [(float("nan"), 1.0, 1e-3), (0.0, float("inf"), 1e-3), (0.0, 1.0, float("nan"))],
    )
    def test_non_finite_requests_to_a_target_are_input_errors(self, t, t_target, dt):
        with pytest.raises(InputError):
            rk4_to(lambda s, state: state, t, [1.0], t_target, dt)

    def test_step_count_overflowing_float_range_is_an_input_error(self):
        with pytest.raises(InputError):
            step_count(0.0, 1.0, 1e-320)

    @pytest.mark.parametrize(
        "t_end, dt",
        [(1.0, float("nan")), (float("nan"), 1e-3), (float("inf"), 1e-3), (1.0, 1e-300)],
        ids=["dt-nan", "t_end-nan", "t_end-inf", "dt-tiny"],
    )
    def test_integrate_refuses_without_allocating(self, t_end, dt):
        H = HamiltonianForm.parse("0.5*p1^2 + 0.5*y1^2", 1)
        q0 = VerticalPhasePoint(0.0, [1.0], [0.0])
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                integrate_hamilton(H, q0, t_end, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "t, t_target, dt",
        [(0.0, (_SAMPLE_BUDGET + 1) * 0.5, 0.5), (0.0, -1.0, 1e-300), (0.0, 1e300, 1e-300)],
        ids=["just-over", "backwards", "overflowing"],
    )
    def test_target_span_over_the_step_budget_is_refused_before_stepping(self, t, t_target, dt):
        def rhs(s, state):
            raise AssertionError("stepped")

        with pytest.raises(InputError, match=f"more than {_SAMPLE_BUDGET} steps"):
            rk4_to(rhs, t, [1.0], t_target, dt)

    def test_target_span_at_the_step_budget_is_accepted(self):
        calls = []

        def rhs(s, state):
            calls.append(s)
            raise DomainError("stop", "y1")

        # Accepted by the budget: the first evaluation is reached.
        with pytest.raises(DomainError):
            rk4_to(rhs, 0.0, [1.0], _SAMPLE_BUDGET * 0.5, 0.5)
        assert calls == [0.0]

    def test_sample_budget_is_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="budget"):
                # (n_steps + 1) * 2 components is just over the budget.
                rk4_path(lambda t, s: s, 0.0, [0.0, 0.0], 1e-3, _SAMPLE_BUDGET // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSampleSpacing:
    @pytest.mark.parametrize("t0", [1e4, 1e6])
    def test_far_from_zero_start_integrates(self, t0):
        H = HamiltonianForm.parse("0.5*p1^2 + 0.5*y1^2", 1)
        traj = integrate_hamilton(H, VerticalPhasePoint(t0, (1.0,), (0.0,)), t0 + 1.0, 1e-3)
        assert traj.n_samples == 1001

    def test_uneven_grid_still_rejected(self):
        dt = 1e-3
        times = dt * np.arange(11)
        times[6:] += 1e-6 * dt
        with pytest.raises(InputError, match="uniform"):
            Trajectory("phase", times, np.zeros((11, 2)), dt)
