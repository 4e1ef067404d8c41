"""Fixed-step Runge-Kutta integration and the sampled-trajectory container.

The integrator is the classical fourth-order scheme with a constant step.
No structure preservation is claimed; accuracy comes from the small step
sizes used by the callers and is covered by the conservation checks.

The state is stepped as a list of Python floats: a right-hand side
``rhs(t, state)`` receives one and may return any sequence of floats.
Each stage is ``s + (0.5*dt)*k`` (``s + dt*k3`` for the last) and each step
``s + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)``, elementwise and in that
order, which are the roundings numpy's array expressions of the same
formulas give.  A non-finite stage or step is an
:class:`~tdmech.errors.IntegrationBlowup` at the start time of the step,
and so is a :class:`~tdmech.errors.DomainError` from any evaluation of the
right-hand side but the first: the state left the domain on the way.  At
the start point itself a ``DomainError`` stays one, since the input lies
outside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InputError, IntegrationBlowup

#: Slack added before flooring a span/step quotient, so spans that are an
#: exact multiple of the step in real arithmetic stay exact in floats.
_STEP_SLACK = 1e-9

#: Most floats a recorded path may hold, ``(n_steps + 1) * len(state)``:
#: 800 MB of samples.  Larger requests are refused before allocating.  It
#: also bounds the full steps of :func:`rk4_to`, which records none.
_SAMPLE_BUDGET = 10**8


def _check_request(t0: float, t_end: float, dt: float) -> None:
    if not (math.isfinite(t0) and math.isfinite(t_end) and math.isfinite(dt)):
        raise InputError(f"t0, t_end and dt must be finite, got {t0}, {t_end}, {dt}")
    if dt <= 0.0:
        raise InputError(f"step size must be positive, got {dt}")


def step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of full steps of size ``dt`` from ``t0`` towards ``t_end``."""
    _check_request(t0, t_end, dt)
    if t_end <= t0:
        raise InputError(f"t_end={t_end} must lie after t0={t0}")
    steps = (t_end - t0) / dt + _STEP_SLACK
    if not math.isfinite(steps):
        raise InputError(f"too many steps of size {dt} from t0={t0} to t_end={t_end}")
    return int(math.floor(steps))


def _stage(s: list, h: float, k, t: float) -> list:
    out = [x + h * y for x, y in zip(s, k)]
    # A non-finite stage means the current step already diverged; report
    # the step start as the last good time.
    if not all(map(math.isfinite, out)):
        raise IntegrationBlowup(t)
    return out


def _step(rhs: Callable, t: float, s: list, dt: float, k1=None) -> list:
    """One RK4 step from ``(t, s)``; ``k1`` is ``rhs(t, s)`` if already known."""
    try:
        if k1 is None:
            k1 = rhs(t, s)
        h = 0.5 * dt
        k2 = rhs(t + h, _stage(s, h, k1, t))
        k3 = rhs(t + h, _stage(s, h, k2, t))
        k4 = rhs(t + dt, _stage(s, dt, k3, t))
    except DomainError as exc:
        raise IntegrationBlowup(t) from exc
    w = dt / 6.0
    out = [x + w * (((a + 2.0 * b) + 2.0 * c) + d) for x, a, b, c, d in zip(s, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise IntegrationBlowup(t)
    return out


def rk4_path(
    rhs: Callable, t0: float, state0, dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate and record every sample; times are ``t0 + k*dt`` exactly.

    ``rhs(t, state)`` receives the state as a list of floats and may return
    any sequence of floats; it is called exactly four times per step.
    Returns the sample times and one state row per sample.  Raises
    :class:`InputError` when the samples would exceed ``_SAMPLE_BUDGET``
    floats, before allocating them.
    """
    state = np.asarray(state0, dtype=float).tolist()
    if (n_steps + 1) * len(state) > _SAMPLE_BUDGET:
        raise InputError(
            f"{n_steps} steps of {len(state)} components exceed the budget"
            f" of {_SAMPLE_BUDGET} samples"
        )
    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, len(state)))
    states[0] = state
    ts = times.tolist()
    # Outside _step: a DomainError at the start point stays one.
    k1 = rhs(ts[0], state) if n_steps else None
    for k in range(n_steps):
        state = _step(rhs, ts[k], state, dt, k1)
        states[k + 1] = state
        k1 = None
    return times, states


def rk4_to(rhs: Callable, t: float, state0, t_target: float, dt: float) -> np.ndarray:
    """Integrate to an exact target time, in either direction.

    Full signed steps of magnitude ``dt`` are followed by one remainder step
    that lands on ``t_target``.  ``rhs`` is called as for :func:`rk4_path`.
    Raises :class:`InputError` before the first step when the span holds
    more than ``_SAMPLE_BUDGET`` full steps.
    """
    _check_request(t, t_target, dt)
    state = np.asarray(state0, dtype=float).tolist()
    span = t_target - t
    if span == 0.0:
        return np.array(state)
    steps = abs(span) / dt + _STEP_SLACK
    if not steps <= _SAMPLE_BUDGET:
        raise InputError(
            f"the span from t={t} to {t_target} takes more than"
            f" {_SAMPLE_BUDGET} steps of size {dt}"
        )
    direction = 1.0 if span > 0 else -1.0
    step = direction * dt
    n_full = int(np.floor(steps))
    t_reached = t + n_full * step
    remainder = t_target - t_reached
    last = abs(remainder) > 1e-14 * max(1.0, abs(t_target))
    # Outside _step: a DomainError at the start point stays one.
    k1 = rhs(t, state) if n_full or last else None
    for k in range(n_full):
        state = _step(rhs, t + k * step, state, step, k1)
        k1 = None
    if last:
        state = _step(rhs, t_reached, state, remainder, k1)
    return np.array(state)


def difference_quotients(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivatives of uniformly sampled rows.

    Centered differences inside, one-sided three-point stencils at the two
    ends, so every sample gets an O(dt^2) rate.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
        return difference_quotients(v, dt)[:, 0]
    if v.shape[0] < 3:
        raise InputError("difference quotients need at least three samples")
    if dt <= 0.0:
        raise InputError(f"step size must be positive, got {dt}")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled solution curve.

    ``kind`` is ``"phase"`` for samples ``(y, p)`` or ``"jet"`` for samples
    ``(y, v)``; ``states`` holds one sample per row with the two blocks
    concatenated.
    """

    kind: str
    times: np.ndarray
    states: np.ndarray
    dt: float

    def __post_init__(self):
        if self.kind not in ("phase", "jet"):
            raise InputError(f"unknown trajectory kind {self.kind!r}")
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise InputError("trajectory needs one state row per sample time")
        if states.shape[1] % 2 != 0:
            raise InputError("trajectory state rows must hold two equal blocks")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise InputError("trajectory samples must be finite")
        if times.size >= 2:
            gaps = np.diff(times)
            if np.any(gaps <= 0.0):
                raise InputError("sample times must increase strictly")
            # Each time is rounded to the float grid near it, so far from
            # t = 0 the gaps carry a few units in the last place of |t|.
            slack = 1e-12 + 4.0 * float(np.spacing(np.max(np.abs(times))))
            if np.max(np.abs(gaps - self.dt)) > slack:
                raise InputError("sample times must be uniform in the step size")

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    @property
    def n_samples(self) -> int:
        return self.times.size

    def first_block(self) -> np.ndarray:
        return self.states[:, : self.n]

    def second_block(self) -> np.ndarray:
        return self.states[:, self.n :]
