import math

import numpy as np
import pytest

from tdmech.bundle import JetPoint, RepeatedJetPoint, SecondJetPoint, VerticalPhasePoint
from tdmech.constraints import (
    AssociationReport,
    ConstraintSpace,
    association_check,
    cartan_pullback_residual,
    constrained_hamilton_residual,
    constraint_residual,
    tangency_residual,
)
from tdmech.errors import InputError, OffShellTrajectory
from tdmech.hamilton import HamiltonianForm, integrate_hamilton
from tdmech.integrate import Trajectory, difference_quotients
from tdmech.lagrange import Lagrangian, euler_lagrange_residual

FLAT_L = Lagrangian.parse("0.5*v1^2", 1)
FLAT_H = HamiltonianForm.parse("p1^2/2", 1)

# One cyclic velocity: the momentum map collapses the second fibre
# direction and the image is the hyperplane p2 = 0.
DEGENERATE_L = Lagrangian.parse("0.5*v1^2", 2)


def degenerate_H(c: float) -> HamiltonianForm:
    return HamiltonianForm.parse(f"0.5*p1^2 + p2*({c})", 2)


def phase_points(rng, n, count=20, low=-2.0, high=2.0):
    return [
        VerticalPhasePoint(rng.uniform(low, high), rng.uniform(low, high, n), rng.uniform(low, high, n))
        for _ in range(count)
    ]


def jet_points(rng, n, count=20, low=-2.0, high=2.0):
    return [
        JetPoint(rng.uniform(low, high), rng.uniform(low, high, n), rng.uniform(low, high, n))
        for _ in range(count)
    ]


class TestConstraintResidual:
    def test_hyperregular_pair_has_no_constraints(self, rng):
        for q in phase_points(rng, 1):
            assert np.array_equal(constraint_residual(FLAT_L, FLAT_H, q), [0.0])

    def test_degenerate_image_hyperplane(self):
        H = degenerate_H(2.0)
        on = VerticalPhasePoint(0.0, [1.0, 1.0], [3.0, 0.0])
        assert np.array_equal(constraint_residual(DEGENERATE_L, H, on), [0.0, 0.0])
        off = VerticalPhasePoint(0.0, [1.0, 1.0], [3.0, 1.0])
        assert np.array_equal(constraint_residual(DEGENERATE_L, H, off), [0.0, 1.0])

    def test_mismatched_pair_oracle(self):
        # L = v^2/2 has pi = v; H = p^2 maps p to velocity 2p, so the
        # defect is p - 2p = -p.
        H = HamiltonianForm.parse("p1^2", 1)
        q = VerticalPhasePoint(0.0, [0.0], [3.0])
        assert constraint_residual(FLAT_L, H, q)[0] == pytest.approx(-3.0, abs=1e-14)

    def test_constraint_space_container(self, rng):
        space = ConstraintSpace(DEGENERATE_L, degenerate_H(0.5))
        assert space.n == 2
        q = VerticalPhasePoint(0.0, [0.0, 0.0], [1.0, 0.25])
        assert space.residual(q)[1] == pytest.approx(0.25)
        with pytest.raises(InputError):
            ConstraintSpace(FLAT_L, degenerate_H(0.0))


class TestTangencyResidual:
    def test_hyperregular_pair(self, rng):
        for q in phase_points(rng, 1):
            assert np.max(np.abs(tangency_residual(FLAT_L, FLAT_H, q))) < 1e-14

    def test_constant_drift_family_is_tangent_everywhere(self, rng):
        H = degenerate_H(2.0)
        for q in phase_points(rng, 2):
            assert np.array_equal(tangency_residual(DEGENERATE_L, H, q), [0.0, 0.0])

    def test_position_dependent_drift_breaks_tangency_off_constraint(self):
        H = HamiltonianForm.parse("0.5*p1^2 + p2*y2", 2)
        on = VerticalPhasePoint(0.0, [1.0, 1.0], [2.0, 0.0])
        assert np.array_equal(tangency_residual(DEGENERATE_L, H, on), [0.0, 0.0])
        off = VerticalPhasePoint(0.0, [1.0, 1.0], [2.0, 0.5])
        residual = tangency_residual(DEGENERATE_L, H, off)
        assert residual[0] == 0.0
        assert residual[1] == pytest.approx(-0.5)

    def test_against_finite_difference_flow(self, rng):
        # Oracle: move the point a little along the Hamilton flow direction
        # and difference the constraint values.
        L = Lagrangian.parse("0.5*exp(y1)*v1^2", 1)
        H = HamiltonianForm.parse("0.5*p1^2 + sin(y1)*p1 + t*y1", 1)
        h = 1e-6
        for q in phase_points(rng, 1, count=10, low=-1.0, high=1.0):
            exact = tangency_residual(L, H, q)
            from tdmech.hamilton import hamilton_rhs

            flow = hamilton_rhs(H, q)
            plus = constraint_residual(
                L, H, VerticalPhasePoint(q.t + h, q.y + h * flow.dy, q.p + h * flow.dp)
            )
            minus = constraint_residual(
                L, H, VerticalPhasePoint(q.t - h, q.y - h * flow.dy, q.p - h * flow.dp)
            )
            oracle = (plus - minus) / (2 * h)
            assert np.max(np.abs(exact - oracle)) < 1e-6


class TestAssociationCheck:
    def test_hyperregular_pair(self, rng):
        report = association_check(FLAT_L, FLAT_H, jet_points(rng, 1), phase_points(rng, 1))
        assert report.max_residual == 0.0
        assert report.passed

    @pytest.mark.parametrize("c", [-1.0, 0.0, 2.0])
    def test_degenerate_family(self, rng, c):
        report = association_check(
            DEGENERATE_L, degenerate_H(c), jet_points(rng, 2), phase_points(rng, 2)
        )
        assert report.max_residual <= 1e-12
        assert report.passed

    def test_wrong_normalization_rejected(self):
        # H = p^2 doubles the velocity map; the energy relation misses by
        # exactly p^2 and the round trip by |v|.
        H = HamiltonianForm.parse("p1^2", 1)
        jets = [JetPoint(0.0, [0.0], [1.0])]
        phases = [VerticalPhasePoint(0.0, [0.0], [1.0])]
        report = association_check(FLAT_L, H, jets, phases)
        assert not report.passed
        assert report.map_residual == pytest.approx(1.0)
        assert report.energy_residual == pytest.approx(1.0)

    def test_needs_samples(self, rng):
        with pytest.raises(InputError):
            association_check(FLAT_L, FLAT_H, [], phase_points(rng, 1))

    def test_nan_energy_residual_fails(self, rng):
        # 0*(1e308*10) is 0*inf, NaN: H is NaN everywhere, its p-gradient is not.
        H = HamiltonianForm.parse("0.5*p1^2 + 0*(1e308*10)*y1", 1)
        report = association_check(FLAT_L, H, jet_points(rng, 1), phase_points(rng, 1))
        assert report.map_residual == 0.0
        assert math.isnan(report.energy_residual) and math.isnan(report.max_residual)
        assert not report.passed

    def test_report_maximum_keeps_nan(self):
        report = AssociationReport(0.0, math.nan, 1.0)
        assert math.isnan(report.max_residual) and not report.passed


class TestHamiltoniansAgreeOnConstraintSpace:
    def test_drift_family_members_match_on_image(self, rng):
        # Both pass association for the same degenerate L, so their values
        # must agree wherever the constraint functions vanish.
        H_a, H_b = degenerate_H(-1.0), degenerate_H(2.0)
        for report in (
            association_check(DEGENERATE_L, H_a, jet_points(rng, 2), phase_points(rng, 2)),
            association_check(DEGENERATE_L, H_b, jet_points(rng, 2), phase_points(rng, 2)),
        ):
            assert report.passed
        for _ in range(50):
            q = VerticalPhasePoint(
                rng.uniform(-2, 2), rng.uniform(-2, 2, 2), [rng.uniform(-2, 2), 0.0]
            )
            assert np.max(np.abs(constraint_residual(DEGENERATE_L, H_a, q))) == 0.0
            env = {"t": q.t, "y1": q.y[0], "y2": q.y[1], "p1": q.p[0], "p2": q.p[1]}
            assert abs(H_a.expr.evaluate(env) - H_b.expr.evaluate(env)) <= 1e-8


def linear_trajectory(y0, slopes, p0, dt=1e-3, n_samples=101):
    times = dt * np.arange(n_samples)
    states = np.empty((n_samples, 2 * len(y0)))
    for i, (y, s) in enumerate(zip(y0, slopes)):
        states[:, i] = y + s * times
    for i, p in enumerate(p0):
        states[:, len(y0) + i] = p
    return Trajectory("phase", times, states, dt)


class TestConstrainedHamiltonResidual:
    def test_unconstrained_reduces_to_hamilton_residual(self):
        H = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        path = integrate_hamilton(H, VerticalPhasePoint(0.0, [1.0], [0.0]), 1.0, 1e-3)
        report = constrained_hamilton_residual(H, None, path)
        assert report.max_residual <= 1e-6
        assert report.passed

    def test_closed_form_constrained_solution(self):
        H = degenerate_H(3.0)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [2.0, 3.0], [2.0, 0.0])
        report = constrained_hamilton_residual(H, space, path)
        assert report.max_residual <= 1e-6

    def test_gauge_direction_is_not_enforced(self):
        # The second fibre velocity is pure gauge: its conjugate momentum
        # direction leaves the constraint space, so a wrong slope there
        # must not show up in the weak residual.
        H = degenerate_H(3.0)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [2.0, -7.0], [2.0, 0.0])
        report = constrained_hamilton_residual(H, space, path)
        assert report.max_residual <= 1e-6

    def test_wrong_base_slope_is_enforced(self):
        H = degenerate_H(3.0)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [5.0, 3.0], [2.0, 0.0])
        report = constrained_hamilton_residual(H, space, path)
        assert report.max_residual == pytest.approx(3.0, rel=1e-6)
        assert not report.passed

    def test_off_constraint_trajectory_rejected(self):
        H = degenerate_H(3.0)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [2.0, 3.0], [2.0, 0.1])
        with pytest.raises(OffShellTrajectory):
            constrained_hamilton_residual(H, space, path)

    def test_nan_pairing_fails(self):
        # -dH/dy1 is NaN, so every paired rate error is NaN.
        H = HamiltonianForm.parse("0.5*p1^2 + p2*(3.0) + 0*(1e308*10)*y1", 2)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [2.0, 3.0], [2.0, 0.0])
        report = constrained_hamilton_residual(H, space, path)
        assert math.isnan(report.max_residual)
        assert not report.passed

    def test_nan_constraint_defect_is_off_shell(self):
        # dH/dp1 is NaN, so the velocity map and the constraint values are.
        H = HamiltonianForm.parse("0.5*p1^2 + p2*(3.0) + 0*(1e308*10)*p1", 2)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = linear_trajectory([1.0, 0.5], [2.0, 3.0], [2.0, 0.0])
        with pytest.raises(OffShellTrajectory, match="sample 0 "):
            constrained_hamilton_residual(H, space, path)

    def test_hamilton_solution_on_constraint_passes(self):
        H = degenerate_H(-1.0)
        space = ConstraintSpace(DEGENERATE_L, H)
        path = integrate_hamilton(
            H, VerticalPhasePoint(0.0, [0.3, -0.2], [1.5, 0.0]), 2.0, 1e-3
        )
        report = constrained_hamilton_residual(H, space, path)
        assert report.max_residual <= 1e-6


class TestProjectionToLagrangeSolutions:
    def _euler_lagrange_from_samples(self, L, path):
        n = L.n
        ys = path.states[:, :n]
        vs = difference_quotients(ys, path.dt)
        worst = 0.0
        for k in range(1, path.n_samples - 1):
            accel = (ys[k + 1] - 2 * ys[k] + ys[k - 1]) / path.dt**2
            s = SecondJetPoint(path.times[k], ys[k], vs[k], accel)
            worst = max(worst, float(np.max(np.abs(euler_lagrange_residual(L, s)))))
        return worst

    def test_degenerate_projection(self):
        H = degenerate_H(2.0)
        path = integrate_hamilton(
            H, VerticalPhasePoint(0.0, [0.3, -0.2], [1.5, 0.0]), 2.0, 1e-3
        )
        assert self._euler_lagrange_from_samples(DEGENERATE_L, path) <= 1e-5

    def test_oscillator_projection(self):
        L = Lagrangian.parse("0.5*v1^2 - 0.5*y1^2", 1)
        H = HamiltonianForm.parse("(p1^2 + y1^2)/2", 1)
        path = integrate_hamilton(H, VerticalPhasePoint(0.0, [1.0], [0.0]), 2.0, 1e-3)
        assert self._euler_lagrange_from_samples(L, path) <= 1e-5


class TestCartanPullback:
    def _repeated(self, rng, n):
        return RepeatedJetPoint(
            rng.uniform(-1, 1),
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n),
        )

    def test_hyperregular_pair(self, rng):
        for _ in range(20):
            r1, r2 = cartan_pullback_residual(FLAT_L, FLAT_H, self._repeated(rng, 1))
            assert max(r1, r2) <= 1e-8

    def test_degenerate_pair(self, rng):
        H = degenerate_H(2.0)
        for _ in range(20):
            r1, r2 = cartan_pullback_residual(DEGENERATE_L, H, self._repeated(rng, 2))
            assert max(r1, r2) <= 1e-8

    def test_curved_metric_pair(self, rng):
        # Hyperregular curved pair: H = e^{-y} p^2 / 2 inverts pi = e^y v.
        L = Lagrangian.parse("0.5*exp(y1)*v1^2", 1)
        H = HamiltonianForm.parse("0.5*exp(-y1)*p1^2", 1)
        for _ in range(20):
            r1, r2 = cartan_pullback_residual(L, H, self._repeated(rng, 1))
            assert max(r1, r2) <= 1e-8

    def test_detects_non_associated_pair(self):
        H = HamiltonianForm.parse("p1^2", 1)
        r = RepeatedJetPoint(0.0, [0.0], [1.0], [1.0], [0.0])
        r1, r2 = cartan_pullback_residual(FLAT_L, H, r)
        # vhat - dH/dp = 1 - 2 = -1 while vhat - v = 0.
        assert r1 == pytest.approx(1.0)
