import math

import numpy as np
import pytest

from tdmech.bundle import (
    FibredAutomorphism,
    ReferenceFrame,
    VerticalPhasePoint,
    holonomic_phase_transform,
)
from tdmech.errors import InputError, IntegrationBlowup
from tdmech.expr import parse
from tdmech.hamilton import (
    CanonicalReport,
    CanonicalTransform,
    GeneratingFunctionReport,
    HamiltonianForm,
    canonical_check,
    canonical_from_automorphism,
    canonical_relation_residuals,
    frame_splitting,
    generating_function_residual,
    hamilton_rhs,
    hamiltonian_map,
    integrate_hamilton,
    phase_space_lagrangian,
)
from tdmech.lagrange import euler_lagrange_residual
from tdmech.bundle import SecondJetPoint


def phase_samples(rng, n, count=20, low=-2.0, high=2.0):
    return [
        VerticalPhasePoint(rng.uniform(low, high), rng.uniform(low, high, n), rng.uniform(low, high, n))
        for _ in range(count)
    ]


class TestHamiltonRhs:
    def test_free_particle(self):
        H = HamiltonianForm.parse("p1^2/2", 1)
        tangent = hamilton_rhs(H, VerticalPhasePoint(0.0, [0.0], [3.0]))
        assert tangent.dt == 1.0
        assert tangent.dy[0] == pytest.approx(3.0)
        assert tangent.dp[0] == 0.0

    def test_oscillator_at_turning_point(self):
        H = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        tangent = hamilton_rhs(H, VerticalPhasePoint(0.0, [1.0], [0.0]))
        assert tangent.dy[0] == 0.0
        assert tangent.dp[0] == pytest.approx(-1.0)

    def test_frame_form_flow(self):
        # H = p Gamma with Gamma = y: the drift dy = y, dp = -p of a
        # moving-frame connection.
        H = HamiltonianForm.parse("p1*y1", 1)
        tangent = hamilton_rhs(H, VerticalPhasePoint(0.0, [4.0], [0.5]))
        assert tangent.dy[0] == pytest.approx(4.0)
        assert tangent.dp[0] == pytest.approx(-0.5)

    def test_rejects_velocity_variables(self):
        with pytest.raises(InputError):
            HamiltonianForm.parse("v1*p1", 1)


class TestIntegrateHamilton:
    def test_linear_flow_exact(self):
        H = HamiltonianForm.parse("p1^2/2", 1)
        path = integrate_hamilton(H, VerticalPhasePoint(0.0, [0.0], [1.0]), 1.0, 1e-3)
        assert path.kind == "phase"
        assert path.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert path.states[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_oscillator_against_closed_form(self):
        H = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        path = integrate_hamilton(H, VerticalPhasePoint(0.0, [1.0], [0.0]), 2 * np.pi, 1e-3)
        # The grid stops at the last full step below 2*pi, so compare
        # against the closed form at the actual sample times.
        assert np.max(np.abs(path.states[:, 0] - np.cos(path.times))) < 1e-8
        assert np.max(np.abs(path.states[:, 1] + np.sin(path.times))) < 1e-8

    def test_pure_force(self):
        H = HamiltonianForm.parse("y1", 1)
        path = integrate_hamilton(H, VerticalPhasePoint(0.0, [0.0], [0.0]), 1.0, 1e-3)
        assert abs(path.states[-1, 1] + 1.0) < 1e-10

    def test_constant_shift_gives_identical_trajectory(self):
        base = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        shifted = HamiltonianForm.parse("(p1^2 + y1^2)/2 + 5", 1)
        q0 = VerticalPhasePoint(0.0, [1.0], [0.25])
        a = integrate_hamilton(base, q0, 3.0, 1e-2)
        b = integrate_hamilton(shifted, q0, 3.0, 1e-2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_autonomous_energy_drift_bounded(self):
        H = HamiltonianForm.parse("p1^2/2 - cos(y1)", 1)
        q0 = VerticalPhasePoint(0.0, [1.2], [0.0])
        path = integrate_hamilton(H, q0, 10.0, 1e-3)
        energy = np.array(
            [
                H.expr.evaluate({"t": t, "y1": s[0], "p1": s[1]})
                for t, s in zip(path.times, path.states)
            ]
        )
        assert np.max(np.abs(energy - energy[0])) <= 1e-7

    def test_finite_time_blowup_reported(self):
        # dy/dt = y^2 escapes in finite time from y(0)=1.
        H = HamiltonianForm.parse("y1^2*p1", 1)
        with pytest.raises(IntegrationBlowup) as info:
            integrate_hamilton(H, VerticalPhasePoint(0.0, [1.0], [0.0]), 2.0, 1e-3)
        assert 0.5 < info.value.last_t <= 2.0

    def test_rejects_nonpositive_step(self):
        H = HamiltonianForm.parse("p1^2/2", 1)
        with pytest.raises(InputError):
            integrate_hamilton(H, VerticalPhasePoint(0.0, [0.0], [1.0]), 1.0, -1e-3)


class TestFrameSplitting:
    def test_rest_frame_is_identity(self, rng):
        H = HamiltonianForm.parse("p1^2/2 + sin(y1)*t", 1)
        split = frame_splitting(H, ReferenceFrame.parse(["0"]))
        for q in phase_samples(rng, 1, 10):
            env = {"t": q.t, "y1": q.y[0], "p1": q.p[0]}
            assert split.evaluate(env) == pytest.approx(H.expr.evaluate(env), abs=1e-15)

    def test_frame_form_splits_to_zero(self, rng):
        H = HamiltonianForm.parse("p1*y1", 1)
        split = frame_splitting(H, ReferenceFrame.parse(["y1"]))
        for q in phase_samples(rng, 1, 10):
            assert split.evaluate({"t": q.t, "y1": q.y[0], "p1": q.p[0]}) == 0.0

    def test_constant_drift_removed(self, rng):
        H = HamiltonianForm.parse("p1^2/2 + p1*0.7", 1)
        split = frame_splitting(H, ReferenceFrame.parse(["0.7"]))
        for q in phase_samples(rng, 1, 10):
            env = {"t": q.t, "y1": q.y[0], "p1": q.p[0]}
            assert split.evaluate(env) == pytest.approx(q.p[0] ** 2 / 2, abs=1e-13)


class TestHamiltonianMap:
    def test_free_particle(self):
        H = HamiltonianForm.parse("p1^2/2", 1)
        j = hamiltonian_map(H, VerticalPhasePoint(0.0, [0.0], [3.0]))
        assert j.v[0] == pytest.approx(3.0)

    def test_momentum_independent_hamiltonian(self):
        H = HamiltonianForm.parse("y1^2", 1)
        j = hamiltonian_map(H, VerticalPhasePoint(0.0, [2.0], [5.0]))
        assert j.v[0] == 0.0

    def test_coupled_term(self):
        H = HamiltonianForm.parse("0.5*p1^2 + p1*y1", 1)
        j = hamiltonian_map(H, VerticalPhasePoint(0.0, [2.0], [1.0]))
        assert j.v[0] == pytest.approx(3.0)


class TestCanonicalCheck:
    def test_identity_is_exact(self, rng):
        report = canonical_check(CanonicalTransform.identity(2), phase_samples(rng, 2))
        assert report.max_residual == 0.0
        assert report.passed

    def test_holonomic_scaling(self, rng):
        T = CanonicalTransform.parse(["2*y1"], ["p1/2"])
        report = canonical_check(T, phase_samples(rng, 1))
        assert report.max_residual == 0.0

    def test_rotation_passes_reflection_fails(self, rng):
        points = phase_samples(rng, 1)
        good = CanonicalTransform.parse(["p1"], ["-y1"])
        assert canonical_check(good, points).passed
        bad = CanonicalTransform.parse(["p1"], ["y1"])
        report = canonical_check(bad, points)
        assert not report.passed
        assert report.pairing_residual == pytest.approx(2.0)

    def test_pointwise_residual_blocks(self):
        bad = CanonicalTransform.parse(["p1"], ["y1"])
        yy, pp, pairing = canonical_relation_residuals(
            bad, VerticalPhasePoint(0.0, [1.0], [1.0])
        )
        assert (yy, pp) == (0.0, 0.0)
        assert pairing == pytest.approx(2.0)

    def test_nonlinear_canonical_pair(self, rng):
        # y' = y e^p, p' = p e^-p / (1 + ... ) is hard to write exactly;
        # instead use the momentum shift by a potential gradient, which is
        # canonical for any smooth potential.
        T = CanonicalTransform.parse(["y1"], ["p1 + 3*y1^2"])
        report = canonical_check(T, phase_samples(rng, 1))
        assert report.max_residual < 1e-12

    def test_mixed_dimension_relations(self, rng):
        # Swap one conjugate pair, leave the other alone.
        T = CanonicalTransform.parse(["p1", "y2"], ["-y1", "p2"])
        report = canonical_check(T, phase_samples(rng, 2))
        assert report.max_residual == 0.0

    def test_needs_points(self):
        with pytest.raises(InputError):
            canonical_check(CanonicalTransform.identity(1), [])

    def test_nan_residual_fails(self, rng):
        # 0*(1e308*10) is 0*inf, NaN: dy1'/dp1 is NaN everywhere.
        T = CanonicalTransform.parse(["y1 + 0*(1e308*10)*p1"], ["p1"])
        yy, pp, pairing = canonical_relation_residuals(T, VerticalPhasePoint(0.0, [0.5], [0.5]))
        assert math.isnan(yy) and pp == 0.0 and math.isnan(pairing)
        report = canonical_check(T, phase_samples(rng, 1))
        assert math.isnan(report.coordinate_residual) and report.momentum_residual == 0.0
        assert math.isnan(report.pairing_residual) and math.isnan(report.max_residual)
        assert not report.passed

    def test_report_maximum_keeps_nan(self):
        report = CanonicalReport(0.0, math.nan, 0.5, 1.0)
        assert math.isnan(report.max_residual) and not report.passed
        assert CanonicalReport(0.0, 0.25, 0.5, 1.0).max_residual == 0.5


class TestCanonicalFromAutomorphism:
    @pytest.mark.parametrize(
        "forward,inverse",
        [
            (["2*y1"], ["y1/2"]),
            (["y1 + 0.3*sin(y2)", "y2"], ["y1 - 0.3*sin(y2)", "y2"]),
            (["y1 + t^2", "y2 + y1^3 + t^2"], ["y1 - t^2", "y2 - (y1 - t^2)^3 - t^2"]),
        ],
    )
    def test_lift_is_canonical(self, rng, forward, inverse):
        auto = FibredAutomorphism.parse(forward, inverse)
        T = canonical_from_automorphism(auto)
        report = canonical_check(T, phase_samples(rng, auto.n, 15))
        assert report.max_residual <= 1e-8

    def test_matches_numeric_phase_transform(self, rng):
        auto = FibredAutomorphism.parse(
            ["y1 + 0.3*sin(y2)", "y2"], ["y1 - 0.3*sin(y2)", "y2"]
        )
        T = canonical_from_automorphism(auto)
        for q in phase_samples(rng, 2, 10):
            via_expr = T.apply(q)
            via_jet = holonomic_phase_transform(auto, q)
            assert np.max(np.abs(via_expr.y - via_jet.y)) < 1e-12
            assert np.max(np.abs(via_expr.p - via_jet.p)) < 1e-12


class TestGeneratingFunction:
    def test_identity_with_zero_function(self, rng):
        T = CanonicalTransform.identity(1)
        H = HamiltonianForm.parse("p1^2/2 + sin(t)*y1", 1)
        report = generating_function_residual(T, parse("0"), H, H, phase_samples(rng, 1))
        assert report.max_residual == 0.0
        assert report.passed

    def test_time_independent_shift(self, rng):
        # y' = y + 1 with S = 0: first two relations hold identically and
        # the third reduces to matching the Hamiltonians.
        T = CanonicalTransform.parse(["y1 + 1"], ["p1"])
        H = HamiltonianForm.parse("y1^2", 1)
        H_new = HamiltonianForm.parse("(y1 - 1)^2", 1)
        report = generating_function_residual(T, parse("0"), H, H_new, phase_samples(rng, 1))
        assert report.max_residual < 1e-12
        mismatched = generating_function_residual(T, parse("0"), H, H, phase_samples(rng, 1))
        assert mismatched.energy_residual > 0.1

    def test_wrong_time_dependence_detected(self, rng):
        T = CanonicalTransform.identity(1)
        H = HamiltonianForm.parse("p1^2/2", 1)
        report = generating_function_residual(T, parse("t"), H, H, phase_samples(rng, 1))
        assert report.position_residual == 0.0
        assert report.momentum_residual == 0.0
        assert report.energy_residual == pytest.approx(1.0)
        assert not report.passed

    def test_nan_residual_fails(self, rng):
        T = CanonicalTransform.identity(1)
        H = HamiltonianForm.parse("p1^2/2", 1)
        S = parse("0*(1e308*10)*y1")  # dS/dy1 is NaN
        report = generating_function_residual(T, S, H, H, phase_samples(rng, 1))
        assert math.isnan(report.position_residual) and math.isnan(report.max_residual)
        assert (report.momentum_residual, report.energy_residual) == (0.0, 0.0)
        assert not report.passed

    def test_report_maximum_keeps_nan(self):
        report = GeneratingFunctionReport(0.0, 0.5, math.nan, 1.0)
        assert math.isnan(report.max_residual) and not report.passed


class TestPhaseSpaceLagrangian:
    def test_free_particle_structure(self):
        H = HamiltonianForm.parse("p1^2/2", 1)
        L = phase_space_lagrangian(H)
        assert L.n == 2
        # Density y2*v1 - y2^2/2 at a concrete point.
        assert L.expr.evaluate({"t": 0.0, "y1": 1.0, "y2": 3.0, "v1": 2.0, "v2": 9.0}) == pytest.approx(1.5)

    def test_equations_of_motion_are_hamiltons(self, rng):
        H = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        L = phase_space_lagrangian(H)
        for _ in range(10):
            y, p = rng.uniform(-2, 2, 2)
            y_t, p_t = rng.uniform(-2, 2, 2)
            s = SecondJetPoint(0.0, [y, p], [y_t, p_t], rng.uniform(-2, 2, 2))
            r = euler_lagrange_residual(L, s)
            assert r[0] == pytest.approx(-(p_t + y), abs=1e-10)
            assert r[1] == pytest.approx(y_t - p, abs=1e-10)

    def test_general_hamiltonian_reduction(self, rng):
        H = HamiltonianForm.parse("p1^2/2 + exp(y1)*p1 + cos(t)*y1", 1)
        L = phase_space_lagrangian(H)
        names = ("t", "y1", "p1")
        for _ in range(10):
            t = rng.uniform(-1, 1)
            y, p = rng.uniform(-1, 1, 2)
            y_t, p_t = rng.uniform(-1, 1, 2)
            s = SecondJetPoint(t, [y, p], [y_t, p_t], rng.uniform(-1, 1, 2))
            grad = H.expr.gradient(names, {"t": t, "y1": y, "p1": p})
            r = euler_lagrange_residual(L, s)
            assert r[0] == pytest.approx(-(p_t + grad[1]), abs=1e-10)
            assert r[1] == pytest.approx(y_t - grad[2], abs=1e-10)
