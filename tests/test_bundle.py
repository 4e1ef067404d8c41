"""Bundle geometry: frames, adapted coordinates, lifts, phase transforms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tdmech.bundle import (
    FibredAutomorphism,
    JetPoint,
    ReferenceFrame,
    VerticalPhasePoint,
    adapted_coordinates,
    holonomic_phase_transform,
    lift_to_phase,
    relative_velocity,
)
from tdmech.errors import InputError, SingularMatrix
from tdmech.expr import parse
from tdmech.integrate import rk4_path


class TestRelativeVelocity:
    def test_frame_moving_with_position(self):
        frame = ReferenceFrame.parse(["y1"])
        j = JetPoint(0.0, [2.0], [5.0])
        assert relative_velocity(frame, j).tolist() == [3.0]

    def test_rest_frame(self):
        frame = ReferenceFrame.parse(["0"])
        j = JetPoint(1.0, [2.0], [5.0])
        assert relative_velocity(frame, j).tolist() == [5.0]

    def test_dimension_mismatch(self):
        frame = ReferenceFrame.parse(["0", "0"])
        with pytest.raises(InputError):
            relative_velocity(frame, JetPoint(0.0, [1.0], [1.0]))

    def test_frame_may_not_depend_on_velocity(self):
        with pytest.raises(InputError):
            ReferenceFrame.parse(["v1"])

    def test_frame_may_not_depend_on_momentum(self):
        with pytest.raises(InputError):
            ReferenceFrame.parse(["p1"])


class TestAdaptedCoordinates:
    def test_constant_drift(self):
        # Moving at 0.5 for 2 time units displaces by 1.
        frame = ReferenceFrame.parse(["0.5"])
        out = adapted_coordinates(frame, 0.0, 2.0, [3.0])
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_exponential_flow(self):
        # dy/ds = y with y(1) = e has y(0) = 1.
        frame = ReferenceFrame.parse(["y1"])
        out = adapted_coordinates(frame, 0.0, 1.0, [math.e])
        assert out[0] == pytest.approx(1.0, abs=1e-8)

    def test_forward_direction(self):
        frame = ReferenceFrame.parse(["y1"])
        out = adapted_coordinates(frame, 1.0, 0.0, [1.0])
        assert out[0] == pytest.approx(math.e, rel=1e-8)

    def test_span_of_too_many_steps_is_refused(self):
        frame = ReferenceFrame.parse(["y1"])
        with pytest.raises(InputError, match="more than"):
            adapted_coordinates(frame, 0.0, 1.0, [1.0], dt=1e-300)

    def test_labels_constant_along_observer_lines(self):
        # Flowing along the frame and re-labelling must return the start label.
        frame = ReferenceFrame.parse(["sin(t) + 0.3*y1"])

        def rhs(s, state):
            return frame.velocity(s, state)

        times, states = rk4_path(rhs, 0.0, np.array([0.7]), 1e-3, 5000)
        label0 = adapted_coordinates(frame, 0.0, 0.0, states[0])
        drift = 0.0
        for k in range(0, 5001, 250):
            label = adapted_coordinates(frame, 0.0, float(times[k]), states[k])
            drift = max(drift, abs(float(label[0] - label0[0])))
        assert drift <= 1e-7


class TestLiftToPhase:
    def test_position_field_lifts_with_negative_momentum(self):
        field = lift_to_phase(0, (parse("y1"),))
        dt, dy, dp = field.at(VerticalPhasePoint(0.0, [2.0], [3.0]))
        assert dt == 0.0
        assert dy.tolist() == [2.0]
        assert dp.tolist() == [-3.0]

    def test_rigid_translation_keeps_momentum(self):
        field = lift_to_phase(0, (parse("1"),))
        _, dy, dp = field.at(VerticalPhasePoint(0.0, [2.0], [3.0]))
        assert dy.tolist() == [1.0]
        assert dp.tolist() == [0.0]

    def test_velocity_dependence_rejected(self):
        with pytest.raises(InputError):
            lift_to_phase(0, (parse("v1"),))
        with pytest.raises(InputError):
            lift_to_phase(0, (parse("p1"),))

    def test_time_component_restricted(self):
        with pytest.raises(InputError):
            lift_to_phase(0.5, (parse("0"),))

    def test_vertical_flow_leaves_time_fixed(self):
        field = lift_to_phase(0, (parse("sin(y1)"),))
        t, y, p = 0.4, np.array([0.2]), np.array([1.0])
        for _ in range(50):
            dt, dy, dp = field.at(VerticalPhasePoint(t, y, p))
            t, y, p = t + 0.01 * dt, y + 0.01 * dy, p + 0.01 * dp
        assert t == 0.4


class TestHolonomicPhaseTransform:
    def test_scaling(self):
        auto = FibredAutomorphism.parse(["2*y1"], ["y1/2"])
        q = VerticalPhasePoint(0.0, [1.0], [4.0])
        out = holonomic_phase_transform(auto, q)
        assert out.y.tolist() == [2.0]
        assert out.p.tolist() == [2.0]

    def test_shear_preserves_pairing(self, rng):
        auto = FibredAutomorphism.parse(
            ["y1 + 0.3*sin(y2)", "y2 + t"], ["y1 - 0.3*sin(y2 - t)", "y2 - t"]
        )
        for _ in range(20):
            t, y1, y2, p1, p2 = rng.uniform(-1, 1, 5)
            q = VerticalPhasePoint(t, [y1, y2], [p1, p2])
            assert auto.roundtrip_residual(float(t), q.y) <= 1e-9
            out = holonomic_phase_transform(auto, q)
            # p'.dy' = p.dy for matched displacements: check via finite differences.
            h = 1e-6
            for direction in np.eye(2):
                shifted = auto.apply(float(t), q.y + h * direction)
                dy_new = (shifted - out.y) / h
                assert float(out.p @ dy_new) == pytest.approx(
                    float(q.p @ direction), abs=1e-5
                )

    def test_singular_jacobian_detected(self):
        # An extreme squeeze: the inverse Jacobian falls below the pivot floor.
        auto = FibredAutomorphism.parse(["1e13*y1"], ["1e-13*y1"])
        with pytest.raises(SingularMatrix):
            holonomic_phase_transform(auto, VerticalPhasePoint(0.0, [1.0], [1.0]))


class TestPointValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            JetPoint(0.0, [float("nan")], [0.0])
        with pytest.raises(InputError):
            VerticalPhasePoint(float("inf"), [0.0], [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            JetPoint(0.0, [1.0, 2.0], [0.0])
