"""Hand-written reference solutions for the two flow workloads.

The right-hand sides, the energy and the observable rate below are derived
by hand from the systems in ``workloads.py`` and use numpy only; nothing
here calls tdmech.  The DOP853 integrations run in a child process,

    python3 bench/reference.py lagrange|hamilton  < arrays.npz  > result.npy

so that importing ``scipy.integrate`` and its working arrays never count in
the benchmark process's peak memory.
"""

from __future__ import annotations

import io
import subprocess
import sys
from pathlib import Path

import numpy as np

# DOP853 with tight tolerances.  All tasks of a batch are stacked into one
# system, so the error norm is an RMS over tasks; the state tolerances in
# workloads.py leave a margin of more than 100x over what that dilution costs.
REF_RTOL = 1e-12
REF_ATOL = 1e-12
TIMEOUT_S = 120

# Coefficients of the driven FPU-beta chain.
FPU_BETA = 1.0
DRIVE = 0.3
DRIVE_FREQ = 1.7


def _lagrange_parts(t, X):
    y1, y2, y3, v1, v2, v3 = X.T
    w = 0.5 + 0.1 * np.sin(t)
    u1 = v1 - w * y2
    u2 = v2 + w * y1
    m3 = 1.0 + 0.2 * y3**2
    kinetic = 0.5 * (u1**2 + u2**2 + m3 * v3**2)
    potential = 0.5 * y1**2 + 0.6 * y2**2 + 0.4 * y3**2 + 0.1 * y1**4 + 0.05 * y1**2 * y3**2
    return w, u1, u2, m3, kinetic - potential


def lagrange_rhs(t, X):
    """Euler-Lagrange equations of the rotating-frame Lagrangian, solved for
    the accelerations by hand; one state ``(y, v)`` per row."""
    y1, y2, y3, v1, v2, v3 = X.T
    w, u1, u2, m3, _ = _lagrange_parts(t, X)
    dw = 0.1 * np.cos(t)
    a1 = w * u2 - (y1 + 0.4 * y1**3 + 0.1 * y1 * y3**2) + dw * y2 + w * v2
    a2 = -w * u1 - 1.2 * y2 - dw * y1 - w * v1
    a3 = (-0.2 * y3 * v3**2 - (0.8 * y3 + 0.1 * y1**2 * y3)) / m3
    return np.stack([v1, v2, v3, a1, a2, a3], axis=1)


def lagrange_energy(t, X):
    """Time-translation current ``p.v - L``."""
    _, u1, u2, m3, lagr = _lagrange_parts(t, X)
    v1, v2, v3 = X[:, 3], X[:, 4], X[:, 5]
    return u1 * v1 + u2 * v2 + m3 * v3**2 - lagr


def hamilton_force(t, Y):
    """``-dH/dy`` of the chain with fixed ends; one position vector per row."""
    padded = np.zeros((Y.shape[0], Y.shape[1] + 2))
    padded[:, 1:-1] = Y
    d = np.diff(padded, axis=1)
    spring = d + FPU_BETA * d**3
    force = spring[:, 1:] - spring[:, :-1]
    force[:, 0] += DRIVE * np.sin(DRIVE_FREQ * t)
    return force


def hamilton_rhs(t, X):
    n = X.shape[1] // 2
    return np.concatenate([X[:, n:], hamilton_force(t, X[:, :n])], axis=1)


def observable_rate(t, X):
    """``df/dt + {f, H}`` of ``y1*p2 - y2*p1 + 0.5*t*p3^2 + y4^3 + sin(y3)*p4``
    along the chain, and the sum of the magnitudes of its terms."""
    y1, y2, y3, y4, p1, p2, p3, p4 = X.T
    f_t = 0.5 * p3**2
    f_y = np.stack([p2, -p1, np.cos(y3) * p4, 3.0 * y4**2], axis=1)
    f_p = np.stack([-y2, y1, t * p3, np.sin(y3)], axis=1)
    h_p = X[:, 4:]
    h_y = -hamilton_force(t, X[:, :4])
    rate = f_t + np.sum(f_y * h_p, axis=1) - np.sum(f_p * h_y, axis=1)
    scale = np.abs(f_t) + np.sum(np.abs(f_y * h_p), axis=1) + np.sum(np.abs(f_p * h_y), axis=1)
    return rate, scale


RHS = {"lagrange": lagrange_rhs, "hamilton": hamilton_rhs}


def _integrate(rhs, t0: np.ndarray, x0: np.ndarray, steps: np.ndarray, dt: float) -> np.ndarray:
    """Per task: the state after ``steps`` steps of ``dt``, and max|x'''| over
    those steps, from the exact vector field's second differences."""
    from scipy.integrate import solve_ivp

    shape = x0.shape
    offsets = dt * np.arange(steps.max() + 1)

    def fun(s, z):
        return rhs(t0 + s, z.reshape(shape)).ravel()

    sol = solve_ivp(fun, (0.0, float(offsets[-1])), x0.ravel(), method="DOP853",
                    rtol=REF_RTOL, atol=REF_ATOL, t_eval=offsets)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    states = sol.y.T.reshape((offsets.size,) + shape)
    tasks = np.arange(shape[0])
    field = np.stack([rhs(t0 + s, states[k]) for k, s in enumerate(offsets)])
    third = (np.abs(field[2:] - 2.0 * field[1:-1] + field[:-2]) / dt**2).max(axis=2)
    # a second difference centred at sample k + 1 lies inside a task of n steps when k <= n - 2
    inside = np.arange(third.shape[0])[:, None] <= steps[None, :] - 2
    return np.column_stack([states[steps, tasks], np.where(inside, third, 0.0).max(axis=0)])


def solve(kind: str, t0: np.ndarray, x0: np.ndarray, steps: np.ndarray, dt: float):
    """Run ``_integrate`` in a child process: (final states, max|x'''|) per task."""
    buffer = io.BytesIO()
    np.savez(buffer, t0=t0, x0=x0, steps=steps, dt=dt)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), kind],
                          input=buffer.getvalue(), capture_output=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed:\n{proc.stderr.decode()[-3000:]}")
    out = np.load(io.BytesIO(proc.stdout))
    return out[:, :-1], out[:, -1]


def main() -> None:
    with np.load(io.BytesIO(sys.stdin.buffer.read())) as data:
        result = _integrate(RHS[sys.argv[1]], data["t0"], data["x0"], data["steps"], float(data["dt"]))
    np.save(sys.stdout.buffer, result)


if __name__ == "__main__":
    main()
