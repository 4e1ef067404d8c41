"""Symmetry currents, energy functions and the weak conservation identity."""

import functools
import math

import numpy as np
import pytest
from conftest import random_smooth_expression

from tdmech.bundle import (
    JetPoint,
    ReferenceFrame,
    VerticalPhasePoint,
    phase_bindings,
)
from tdmech.currents import (
    CurrentReport,
    energy_function,
    hamiltonian_current,
    lie_derivative,
    symmetry_current,
    weak_identity_residual,
)
from tdmech.errors import InputError, OffShellTrajectory
from tdmech.expr import expression, parse
from tdmech.hamilton import (
    HamiltonianForm,
    frame_splitting,
    hamiltonian_map,
    integrate_hamilton,
)
from tdmech.integrate import Trajectory
from tdmech.lagrange import Lagrangian, integrate_lagrange, legendre_map

FREE = Lagrangian.parse("0.5*v1^2", 1)
OSC = Lagrangian.parse("0.5*v1^2 - 0.5*y1^2", 1)
OSC_H = HamiltonianForm.parse("0.5*p1^2 + 0.5*y1^2", 1)

CURVED_L = Lagrangian.parse("0.5*exp(y1)*v1^2", 1)
CURVED_H = HamiltonianForm.parse("0.5*exp(-y1)*p1^2", 1)


def jet(t, y, v):
    return JetPoint(t, (y,), (v,))


def phase(t, y, p):
    return VerticalPhasePoint(t, (y,), (p,))


# --- pointwise current values ---


def test_translation_current_is_minus_momentum():
    assert symmetry_current(FREE, 0.0, (parse("1"),), jet(0.0, 0.0, 2.0)) == -2.0


def test_time_translation_current_is_energy():
    assert symmetry_current(FREE, 1.0, (parse("0"),), jet(0.0, 0.0, 2.0)) == 2.0


def test_zero_field_zero_current():
    assert symmetry_current(OSC, 0.0, (parse("0"),), jet(0.3, 1.0, 2.0)) == 0.0


def test_current_rejects_fractional_time_component():
    with pytest.raises(InputError):
        symmetry_current(FREE, 0.5, (parse("1"),), jet(0.0, 0.0, 2.0))


def test_current_rejects_wrong_component_count():
    with pytest.raises(InputError):
        symmetry_current(FREE, 0.0, (parse("1"), parse("0")), jet(0.0, 0.0, 2.0))


def test_current_rejects_velocity_dependent_field():
    with pytest.raises(InputError):
        symmetry_current(FREE, 0.0, (parse("v1"),), jet(0.0, 0.0, 2.0))


def test_energy_in_rest_frame():
    frame = ReferenceFrame.parse(("0",))
    assert energy_function(FREE, frame, jet(0.0, 0.0, 2.0)) == 2.0


def test_energy_in_moving_frame():
    frame = ReferenceFrame.parse(("1",))
    assert energy_function(FREE, frame, jet(0.0, 0.0, 3.0)) == 1.5


def test_frame_rejects_velocity_dependence():
    with pytest.raises(InputError):
        ReferenceFrame.parse(("v1",))


def test_energy_matches_time_translation_current_in_frame():
    # u^t = 1, u = Gamma reproduces the frame energy
    frame = ReferenceFrame.parse(("0.4*y1",))
    j = jet(0.2, 1.3, -0.7)
    assert energy_function(OSC, frame, j) == pytest.approx(
        symmetry_current(OSC, 1.0, frame.components, j), abs=1e-14
    )


# --- Lie derivative of the Lagrangian ---


def test_autonomous_lagrangian_time_invariant():
    assert lie_derivative(OSC, 1.0, (parse("0"),), jet(0.7, 1.1, -0.3)) == 0.0


def test_free_lagrangian_translation_invariant():
    assert lie_derivative(FREE, 0.0, (parse("1"),), jet(0.0, 5.0, 2.0)) == 0.0


def test_potential_breaks_translation_invariance():
    assert lie_derivative(OSC, 0.0, (parse("1"),), jet(0.0, 1.0, 2.0)) == -1.0


def test_lie_derivative_includes_prolongation_term():
    # u = y1 d/dy1 has total rate v1, so L = 0.5 v1^2 picks up v1^2
    assert lie_derivative(FREE, 0.0, (parse("y1"),), jet(0.0, 1.0, 3.0)) == 9.0


# --- weak identity along trajectories ---


@functools.lru_cache(maxsize=1)
def oscillator_trajectory():
    return integrate_lagrange(OSC, jet(0.0, 1.0, 0.0), 2.0 * math.pi, 1e-3)


def test_oscillator_energy_report():
    report = weak_identity_residual(OSC, 1.0, (parse("0"),), oscillator_trajectory())
    assert isinstance(report, CurrentReport)
    assert report.values[0] == 0.5
    assert report.lie_derivative_max == 0.0
    assert report.max_drift <= 1e-7
    assert report.max_residual <= 1e-5


def test_free_particle_momentum_report():
    traj = integrate_lagrange(FREE, jet(0.0, 0.0, 0.3), 1.0, 1e-3)
    report = weak_identity_residual(FREE, 0.0, (parse("1"),), traj)
    assert report.max_drift <= 1e-10
    assert report.max_residual <= 1e-10


def test_broken_symmetry_still_balances():
    # translation is not a symmetry of the oscillator: the current drifts
    # but the defect is still accounted for by the Lie derivative
    report = weak_identity_residual(OSC, 0.0, (parse("1"),), oscillator_trajectory())
    assert report.max_residual <= 1e-5
    assert report.max_drift > 0.9
    assert report.lie_derivative_max == pytest.approx(1.0, abs=1e-6)


def test_time_dependent_field_balances():
    # u = cos(t) d/dy1: neither side vanishes but their sum does
    report = weak_identity_residual(OSC, 0.0, (parse("cos(t)"),), oscillator_trajectory())
    assert report.max_residual <= 1e-5
    assert report.lie_derivative_max > 0.5


def test_off_shell_trajectory_rejected():
    times = 1e-2 * np.arange(101)
    states = np.column_stack([2.0 * times, np.full(101, 2.0)])
    fake = Trajectory("jet", times, states, 1e-2)
    with pytest.raises(OffShellTrajectory):
        weak_identity_residual(OSC, 0.0, (parse("1"),), fake)


def test_nan_equation_of_motion_defect_is_off_shell():
    # dL/dy1 = 0*(1e308*10) is 0*inf, NaN, at every sample.
    L = Lagrangian.parse("0.5*v1^2 + 0*(1e308*10)*y1", 1)
    times = 1e-2 * np.arange(101)
    states = np.column_stack([2.0 * times, np.full(101, 2.0)])
    traj = Trajectory("jet", times, states, 1e-2)
    with pytest.raises(OffShellTrajectory, match="sample 0 "):
        weak_identity_residual(L, 0.0, (parse("1"),), traj)


def test_phase_trajectory_rejected():
    traj = integrate_hamilton(OSC_H, phase(0.0, 1.0, 0.0), 1.0, 1e-3)
    with pytest.raises(InputError):
        weak_identity_residual(OSC, 1.0, (parse("0"),), traj)


def test_moving_frame_energy_constant_on_free_flow():
    traj = integrate_lagrange(FREE, jet(0.0, 0.0, 0.3), 5.0, 1e-3)
    frame = ReferenceFrame.parse(("0.7",))
    values = np.array(
        [
            energy_function(FREE, frame, JetPoint(t, s[:1], s[1:]))
            for t, s in zip(traj.times, traj.states)
        ]
    )
    # velocity is bitwise constant on free flows, so the drift vanishes
    assert float(np.max(np.abs(values - values[0]))) == 0.0


# --- Hamiltonian currents ---


def test_hamiltonian_translation_current():
    H = HamiltonianForm.parse("0.5*p1^2", 1)
    assert hamiltonian_current(H, 0.0, (parse("1"),), phase(0.0, 0.0, 3.0)) == -3.0


def test_hamiltonian_time_current_is_hamiltonian():
    H = HamiltonianForm.parse("0.5*p1^2", 1)
    assert hamiltonian_current(H, 1.0, (parse("0"),), phase(0.0, 0.0, 2.0)) == 2.0


def test_frame_current_matches_split_hamiltonian(rng):
    H = HamiltonianForm.parse("0.5*p1^2 + 0.5*p2^2 + sin(y1)*p2 + t*y2", 2)
    frame = ReferenceFrame.parse(("0.3*y2", "1 - 0.2*y1"))
    split = frame_splitting(H, frame)
    for _ in range(20):
        t, y1, y2, p1, p2 = rng.uniform(-2.0, 2.0, size=5)
        q = VerticalPhasePoint(t, (y1, y2), (p1, p2))
        assert hamiltonian_current(H, 1.0, frame.components, q) == pytest.approx(
            split.evaluate(phase_bindings(q)), abs=1e-12
        )


# --- current equality across the Legendre correspondence ---


def jet_current_fields():
    return [
        (0.0, (parse("1"),)),
        (1.0, (parse("0"),)),
        (1.0, (parse("0.3*y1 - sin(t)"),)),
    ]


@pytest.mark.parametrize("pair", [(OSC, OSC_H), (CURVED_L, CURVED_H)])
def test_currents_agree_at_phase_points(pair, rng):
    L, H = pair
    for u_t, u in jet_current_fields():
        for _ in range(25):
            t, y, p = rng.uniform(-1.5, 1.5, size=3)
            q = phase(t, y, p)
            lifted = symmetry_current(L, u_t, u, hamiltonian_map(H, q))
            assert hamiltonian_current(H, u_t, u, q) == pytest.approx(lifted, abs=1e-8)


@pytest.mark.parametrize("pair", [(OSC, OSC_H), (CURVED_L, CURVED_H)])
def test_currents_agree_along_solutions(pair):
    L, H = pair
    traj = integrate_lagrange(L, jet(0.0, 0.9, 0.2), 3.0, 1e-2)
    for u_t, u in jet_current_fields():
        for t, state in zip(traj.times, traj.states):
            j = JetPoint(t, state[:1], state[1:])
            lagrangian_side = symmetry_current(L, u_t, u, j)
            hamiltonian_side = hamiltonian_current(H, u_t, u, legendre_map(L, j))
            assert hamiltonian_side == pytest.approx(lagrangian_side, abs=1e-8)


# --- superposition ---


def test_current_splits_into_energy_and_vertical_part(rng):
    L = Lagrangian.parse("0.5*v1^2 + 0.5*v2^2 - cos(y1) + y2*sin(t)", 2)
    frame = ReferenceFrame.parse(("0.2*y2", "sin(t)"))
    for _ in range(10):
        w = [random_smooth_expression(rng, ["t", "y1", "y2"]) for _ in range(2)]
        u = [expression(a.root + b.root) for a, b in zip(w, frame.components)]
        j = JetPoint(
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0, size=2),
            rng.uniform(-1.0, 1.0, size=2),
        )
        combined = symmetry_current(L, 1.0, u, j)
        split = energy_function(L, frame, j) + symmetry_current(L, 0.0, w, j)
        assert combined == pytest.approx(split, abs=1e-12)
