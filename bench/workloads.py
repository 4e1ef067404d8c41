"""The three benchmark workloads: seeded inputs, timed tasks, independent checks.

A workload builds every task input from ``(seed, task index)`` alone, so the
same seed gives the same inputs whatever the speed of the program.  ``run``
holds the tdmech calls that are timed; ``record`` and ``check`` judge the
outputs afterwards against references that share no code with tdmech's
derivative or integrator paths:

* the flows are integrated again from the hand-written numpy right-hand
  sides of ``reference.py`` with ``scipy.integrate.solve_ivp`` (DOP853), a
  batch of tasks at a time, in a child process;
* CLI answers are known by construction, or recomputed by central finite
  differences of ``Expression.evaluate`` written here.

The benchmark calls tdmech through module attributes (``lagrange.integrate_
lagrange``, ``cli.main``) so that the traced run, which rebinds those names,
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from tdmech import bundle, cli, constraints, currents, expr, hamilton, lagrange, poisson

# Task index of warm-up inputs, far from the indices a run reaches.
WARMUP_INDEX = 10**9


class Workload:
    """Interface the harness drives; one instance per run."""

    name = ""
    round_size = 1  # tasks the loop always runs together
    trace_tasks = 24  # fixed task count of a traced run, so counts repeat

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], index])

    def prepare(self) -> None:
        """Parse the systems and warm up; counted in ``setup_s``."""

    def make_input(self, index: int, tag: str = "run"):
        raise NotImplementedError

    def run(self, task):
        """The timed tdmech calls of one task."""
        raise NotImplementedError

    def record(self, index: int, task, output, error: str | None) -> dict:
        """Untimed: keep what ``check`` needs, with a digest of the output."""
        raise NotImplementedError

    def check(self, records: list[dict]) -> dict[int, str]:
        """Untimed: map the index of each wrong task to the reason."""
        raise NotImplementedError


def _split_failed(records: list[dict]) -> tuple[dict[int, str], list[dict]]:
    bad = {r["index"]: r["error"] for r in records if r["error"]}
    return bad, [r for r in records if not r["error"]]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _initial_states(records: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start times, start states and step counts of the records' tasks."""
    t0 = np.array([r["t0"] for r in records])
    return t0, np.array([r["x0"] for r in records]), np.array([r["steps"] for r in records])


# ---------------------------------------------------------------------------
# lagrange-flow: rotating frame with a time-varying rate, n = 3

LAGRANGE_DT = 1e-3
# Steps per task.  Tasks of one size would put every task latency into one
# of a few sharp peaks, one per speed state of a shared host, and the median
# would jump between them from run to run.  The sizes cycle through a fixed
# list, a round of tasks each, so that every run has the same mix and the
# seed moves only the initial states: sizes drawn per task moved the
# median latency of a run by up to 6% with the seed.
LAGRANGE_STEPS = tuple(range(10, 31, 2))
_RATE = "(0.5+0.1*sin(t))"
LAGRANGIAN = (
    f"0.5*((v1-{_RATE}*y2)^2+(v2+{_RATE}*y1)^2+(1+0.2*y3^2)*v3^2)"
    " - (0.5*y1^2+0.6*y2^2+0.4*y3^2+0.1*y1^4+0.05*y1^2*y3^2)"
)
# RK4 at dt=1e-3 over 30 steps is exact to ~1e-14 here; a wrong term in the
# equations of motion moves the final state by more than 1e-6.
LAGRANGE_STATE_TOL = 1e-9
WEAK_IDENTITY_BOUND = 1e-5
ENERGY_TOL = 1e-10


class LagrangeFlow(Workload):
    """Integrate one seeded jet, then balance the time-translation current."""

    name = "lagrange-flow"
    round_size = len(LAGRANGE_STEPS)
    trace_tasks = 2 * len(LAGRANGE_STEPS)

    def prepare(self):
        self.L = lagrange.Lagrangian.parse(LAGRANGIAN, 3)
        self.u = tuple(expr.parse("0") for _ in range(3))
        self.run(self.make_input(WARMUP_INDEX, steps=2))

    def make_input(self, index, tag="run", steps=None):
        rng = self.rng(index)
        t0 = rng.uniform(0.0, 2.0 * math.pi)
        y, v = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        return (t0, y, v, steps or LAGRANGE_STEPS[index % len(LAGRANGE_STEPS)])

    def run(self, task):
        t0, y, v, steps = task
        traj = lagrange.integrate_lagrange(
            self.L, bundle.JetPoint(t0, y, v), t0 + steps * LAGRANGE_DT, LAGRANGE_DT
        )
        report = currents.weak_identity_residual(self.L, 1.0, self.u, traj)
        return traj, report

    def record(self, index, task, output, error):
        if error is not None:
            return {"index": index, "error": error, "digest": None}
        traj, report = output
        t0, y, v, steps = task
        final = traj.states[-1]
        span = steps * LAGRANGE_DT
        energy = float(reference.lagrange_energy(t0 + span, final[None, :])[0])
        error = None
        if traj.n_samples != steps + 1 or abs(traj.times[-1] - (t0 + span)) > 1e-12:
            error = f"trajectory has {traj.n_samples} samples ending at t={traj.times[-1]}"
        elif not report.max_residual <= WEAK_IDENTITY_BOUND:
            error = f"weak-identity residual {report.max_residual:.3e} > {WEAK_IDENTITY_BOUND}"
        elif abs(report.values[-1] - energy) > ENERGY_TOL * (1.0 + abs(energy)):
            error = f"current {float(report.values[-1])!r} != hand-computed energy {energy!r}"
        return {
            "index": index,
            "error": error,
            "t0": t0,
            "x0": np.concatenate([y, v]),
            "steps": steps,
            "final": final.copy(),
            "digest": _digest(final, report.residuals, report.values),
        }

    def check(self, records):
        bad, good = _split_failed(records)
        if good:
            t0, x0, steps = _initial_states(good)
            finals, _ = reference.solve("lagrange", t0, x0, steps, LAGRANGE_DT)
            for r, want in zip(good, finals):
                state_err = float(np.max(np.abs(r["final"] - want)))
                if state_err > LAGRANGE_STATE_TOL:
                    bad[r["index"]] = f"final state off the DOP853 reference by {state_err:.3e}"
        return bad


# ---------------------------------------------------------------------------
# hamilton-flow: driven FPU-beta chain with fixed ends, n = 4

HAMILTON_DT = 5e-3
HAMILTON_STEPS = tuple(range(50, 151, 10))  # cycled, as for the Lagrange flow
SPLIT_EVERY = 10
HAMILTONIAN = (
    "0.5*(p1^2+p2^2+p3^2+p4^2)"
    " + 0.5*(y1^2+(y2-y1)^2+(y3-y2)^2+(y4-y3)^2+y4^2)"
    f" + {0.25 * reference.FPU_BETA!r}*(y1^4+(y2-y1)^4+(y3-y2)^4+(y4-y3)^4+y4^4)"
    f" - {reference.DRIVE!r}*sin({reference.DRIVE_FREQ!r}*t)*y1"
)
FRAME = ("0.1*sin(t) + 0.05*y2", "0.2*cos(t)*y1", "0.1*t - 0.05*y4^2", "0.3*y3")
OBSERVABLE = "y1*p2 - y2*p1 + 0.5*t*p3^2 + y4^3 + sin(y3)*p4"
# RK4 at dt=5e-3 over 150 steps stays within ~1e-10 of the reference here.
HAMILTON_STATE_TOL = 1e-7
# The residual compares three-point difference quotients with the Hamilton
# vector field.  Their truncation error is dt^2/6 |x'''| inside and
# dt^2/3 |x'''| at the two one-sided ends, so the residual is bounded by
# dt^2/3 max|x'''|; x''' is taken from the reference solution.  The O(dt^3)
# remainder brought the ratio to 1.02 at most over 60 seeded tasks; 2 leaves
# room, and a wrong term or stencil gives residuals orders of magnitude larger.
STENCIL_SAFETY = 2.0
STENCIL_FLOOR = 1e-10
RATE_TOL = 1e-12  # relative to the sum of term magnitudes: rounding only


class HamiltonFlow(Workload):
    """Integrate one seeded phase point, check the Hamilton residual, and
    compare the frame-split evolution derivative with the unsplit one."""

    name = "hamilton-flow"
    round_size = len(HAMILTON_STEPS)
    trace_tasks = 2 * len(HAMILTON_STEPS)

    def prepare(self):
        self.H = hamilton.HamiltonianForm.parse(HAMILTONIAN, 4)
        self.frame = bundle.ReferenceFrame.parse(FRAME)
        self.f = expr.parse(OBSERVABLE)
        self.run(self.make_input(WARMUP_INDEX, steps=2))

    def make_input(self, index, tag="run", steps=None):
        rng = self.rng(index)
        t0 = rng.uniform(0.0, 2.0 * math.pi)
        y, p = rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 4)
        return (t0, y, p, steps or HAMILTON_STEPS[index % len(HAMILTON_STEPS)])

    def run(self, task):
        t0, y, p, steps = task
        traj = hamilton.integrate_hamilton(
            self.H, bundle.VerticalPhasePoint(t0, y, p), t0 + steps * HAMILTON_DT, HAMILTON_DT
        )
        flow = constraints.constrained_hamilton_residual(self.H, None, traj)
        rows = range(0, traj.n_samples, SPLIT_EVERY)
        rates = np.empty((len(rows), 2))
        for k, row in enumerate(rows):
            q = bundle.VerticalPhasePoint(traj.times[row], traj.states[row, :4], traj.states[row, 4:])
            rates[k, 0] = poisson.evolution_derivative_split(self.H, self.frame, self.f, q)
            rates[k, 1] = poisson.evolution_derivative(self.H, self.f, q)
        return traj, flow, rates

    def record(self, index, task, output, error):
        if error is not None:
            return {"index": index, "error": error, "digest": None}
        traj, flow, rates = output
        t0, y, p, steps = task
        hand, scale = reference.observable_rate(traj.times[::SPLIT_EVERY], traj.states[::SPLIT_EVERY])
        tol = RATE_TOL * (1.0 + scale)
        split_gap = np.abs(rates[:, 0] - rates[:, 1])
        hand_gap = np.abs(rates[:, 1] - hand)
        error = None
        if traj.n_samples != steps + 1:
            error = f"trajectory has {traj.n_samples} samples"
        elif np.any(split_gap > tol):
            error = f"split rate differs from unsplit rate by {split_gap.max():.3e}"
        elif np.any(hand_gap > tol):
            error = f"evolution derivative differs from hand value by {hand_gap.max():.3e}"
        return {
            "index": index,
            "error": error,
            "t0": t0,
            "x0": np.concatenate([y, p]),
            "steps": steps,
            "final": traj.states[-1].copy(),
            "residual": flow.max_residual,
            "digest": _digest(traj.states[-1], [flow.max_residual], rates),
        }

    def check(self, records):
        bad, good = _split_failed(records)
        if good:
            t0, x0, steps = _initial_states(good)
            finals, third = reference.solve("hamilton", t0, x0, steps, HAMILTON_DT)
            bounds = STENCIL_SAFETY * HAMILTON_DT**2 / 3.0 * third + STENCIL_FLOOR
            for r, want, bound in zip(good, finals, bounds):
                state_err = float(np.max(np.abs(r["final"] - want)))
                if state_err > HAMILTON_STATE_TOL:
                    bad[r["index"]] = f"final state off the DOP853 reference by {state_err:.3e}"
                elif not r["residual"] <= bound:
                    bad[r["index"]] = f"Hamilton residual {r['residual']:.3e} above stencil bound {bound:.3e}"
        return bad


# ---------------------------------------------------------------------------
# cli-sampled: one in-process ``tdmech.cli.main`` call per task


@dataclass(frozen=True)
class CliTask:
    argv: tuple[str, ...]
    config: Path
    out_dir: Path
    expected_code: int
    check: Callable[[Path], str | None]


def _num(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    raw = path.read_bytes()
    if b"\r" in raw or not raw.endswith(b"\n"):
        raise ValueError(f"{path.name} must use LF line endings")
    lines = raw.decode("utf-8").split("\n")[:-1]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _read_report(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, n + 1)]


FD_STEP = 1e-6
FD2_STEP = 1e-4
FD_TOL = 1e-7  # central first differences: O(h^2) + O(eps/h)
FD2_TOL = 1e-5  # mixed second differences feed an inverse: looser
SPOT_ROWS = 4


def _fd_gradient(e: expr.Expression, env: dict, names: list[str]) -> np.ndarray:
    out = np.empty(len(names))
    for k, name in enumerate(names):
        hi, lo = dict(env), dict(env)
        hi[name] += FD_STEP
        lo[name] -= FD_STEP
        out[k] = (e.evaluate(hi) - e.evaluate(lo)) / (2.0 * FD_STEP)
    return out


def _fd_mixed(e: expr.Expression, env: dict, rows: list[str], cols: list[str]) -> np.ndarray:
    out = np.empty((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            total = 0.0
            for sa, sb, sign in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                point = dict(env)
                point[a] += sa * FD2_STEP
                point[b] += sb * FD2_STEP
                total += sign * e.evaluate(point)
            out[i, j] = total / (4.0 * FD2_STEP**2)
    return out


def _spot(rows: np.ndarray) -> np.ndarray:
    return rows[np.unique(np.linspace(0, len(rows) - 1, SPOT_ROWS).astype(int))]


def _check_rows(path: Path, header: list[str], samples: int, sampled: int):
    """Read a sampled CSV; the first ``sampled`` columns must lie in [-1, 1]."""
    got_header, rows = _read_csv(path)
    if got_header != header:
        return None, f"{path.name} header {got_header} != {header}"
    if rows.shape[0] != samples:
        return None, f"{path.name} has {rows.shape[0]} rows, expected {samples}"
    if not np.all(np.isfinite(rows)) or np.any(np.abs(rows[:, :sampled]) > 1.0):
        return None, f"{path.name} holds non-finite or out-of-range sample points"
    return rows, None


def _close(got: float, want: float, tol: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want) + scale)


class CliSampled(Workload):
    """Cycle through the CLI commands on freshly generated configs."""

    name = "cli-sampled"
    trace_tasks = 27

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.families = (
            self._legendre,
            self._bracket_vertical,
            self._bracket_homogeneous,
            self._bracket_lagrangian,
            self._canonical_good,
            self._canonical_bad,
            self._association,
            self._constraints,
            self._rel_transform,
        )
        self.round_size = len(self.families)

    def prepare(self):
        for k in range(self.round_size):
            task = self.make_input(WARMUP_INDEX * self.round_size + k, tag="warmup", samples=3)
            self.run(task)
        shutil.rmtree(self.work_dir / "warmup", ignore_errors=True)

    def make_input(self, index, tag="run", samples=None):
        family = self.families[index % self.round_size]
        rng = self.rng(index)
        config, argv, expected, check = family(rng, samples)
        base = self.work_dir / tag
        base.mkdir(parents=True, exist_ok=True)
        path = base / f"task{index}.cfg"
        path.write_text(config, encoding="utf-8")
        out_dir = base / f"task{index}"
        argv = (argv[0], "--config", str(path), "--out", str(out_dir), *argv[1:])
        return CliTask(argv, path, out_dir, expected, check)

    def run(self, task):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(task.argv))
        return code, stderr.getvalue()

    def record(self, index, task, output, error):
        rec = {"index": index, "error": error, "digest": None, "bytes": 0}
        if error is None:
            code, stderr = output
            artifacts = sorted(task.out_dir.iterdir()) if task.out_dir.is_dir() else []
            h = hashlib.sha256()
            for path in artifacts:
                data = path.read_bytes()
                h.update(path.name.encode() + b"\0" + data)
                rec["bytes"] += len(data)
            rec["digest"] = h.hexdigest()
            if code != task.expected_code:
                rec["error"] = f"exit code {code}, expected {task.expected_code}: {stderr.strip()}"
            elif stderr:
                rec["error"] = f"unexpected stderr: {stderr.strip()}"
            else:
                try:
                    rec["error"] = task.check(task.out_dir)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    rec["error"] = f"unreadable artifacts: {exc!r}"
        shutil.rmtree(task.out_dir, ignore_errors=True)
        task.config.unlink(missing_ok=True)
        return rec

    def check(self, records):
        bad, good = _split_failed(records)
        # Re-run the first round with the same configs: artifacts must be
        # byte-identical.
        for r in good:
            if r["index"] < self.round_size:
                again = self.make_input(r["index"], tag="rerun")
                if self.record(r["index"], again, self.run(again), None)["digest"] != r["digest"]:
                    bad[r["index"]] = "re-run with the same config wrote different artifacts"
        return bad

    # -- families: each returns (config, argv, expected exit code, check) --

    def _sampling(self, rng, samples, default):
        count = default if samples is None else samples
        return count, f"\n[sampling]\nseed = {int(rng.integers(1, 2**31))}\nsamples = {count}\n"

    def _legendre(self, rng, samples):
        a1, a2, a3, c, b, k, e, w = rng.uniform(0.2, 1.5, 8)
        text = (
            f"0.5*{_num(a1)}*v1^2 + 0.5*{_num(a2)}*(1 + {_num(c)}*y1^2)*v2^2"
            f" + 0.5*{_num(a3)}*v3^2 + {_num(b)}*y1*v2 - {_num(k)}*cos(y2)*v3"
            f" + {_num(e)}*sin(t)*v1*v3 - 0.5*{_num(w)}*(y1^2 + y2^2 + y3^2)"
        )
        count, sampling = self._sampling(rng, samples, 200)
        config = f'[system]\nn = 3\nlagrangian = "{text}"\n{sampling}'
        header = ["t", *_names("y", 3), *_names("v", 3), *_names("p", 3)]
        L = expr.parse(text)

        def check(out):
            rows, err = _check_rows(out / "legendre.csv", header, count, 7)
            if err:
                return err
            for row in _spot(rows):
                env = dict(zip(header[:7], row[:7]))
                fd = _fd_gradient(L, env, header[4:7])
                if not all(_close(g, f, FD_TOL) for g, f in zip(row[7:], fd)):
                    return f"legendre p={row[7:]} but finite differences give {fd}"
            return None

        return config, ("legendre",), 0, check

    def _bracket(self, rng, samples, n, space, f, g, names, extra_system=""):
        count, sampling = self._sampling(rng, samples, 150 if space != "lagrangian" else 100)
        config = (
            f"[system]\nn = {n}\n{extra_system}\n"
            f'[bracket]\nf = "{f}"\ng = "{g}"\nspace = "{space}"\n{sampling}'
        )
        return config, count, [*names, "value"], expr.parse(f), expr.parse(g)

    def _bracket_vertical(self, rng, samples):
        a, b, c, d, e, h = rng.uniform(0.2, 1.5, 6)
        f = f"{_num(a)}*y1*p2 - {_num(b)}*y2^2*p1 + sin({_num(c)}*y1)*p1^2"
        g = f"exp({_num(d)}*y2)*p1 + {_num(e)}*y1^3 + {_num(h)}*t*p2^2"
        names = ["t", *_names("y", 2), *_names("p", 2)]
        config, count, header, fe, ge = self._bracket(rng, samples, 2, "vertical", f, g, names)

        def check(out):
            rows, err = _check_rows(out / "bracket.csv", header, count, len(names))
            if err:
                return err
            for row in _spot(rows):
                env = dict(zip(names, row))
                fg, gg = _fd_gradient(fe, env, names), _fd_gradient(ge, env, names)
                terms = fg[1:3] * gg[3:5] - gg[1:3] * fg[3:5]
                if not _close(row[-1], terms.sum(), FD_TOL, np.abs(terms).sum()):
                    return f"vertical bracket {row[-1]} but finite differences give {terms.sum()}"
            return None

        return config, ("bracket",), 0, check

    def _bracket_homogeneous(self, rng, samples):
        a, b, c, d, e = rng.uniform(0.2, 1.5, 5)
        f = f"{_num(a)}*t*p1 + y1^2*p0 + {_num(b)}*sin(t)*y1"
        g = f"p0*exp({_num(c)}*t) + {_num(d)}*y1*p1^2 - {_num(e)}*t^2*y1"
        names = ["t", "y1", "p1", "p0"]
        config, count, header, fe, ge = self._bracket(rng, samples, 1, "homogeneous", f, g, names)

        def check(out):
            rows, err = _check_rows(out / "bracket.csv", header, count, len(names))
            if err:
                return err
            for row in _spot(rows):
                env = dict(zip(names, row))
                fg, gg = _fd_gradient(fe, env, names), _fd_gradient(ge, env, names)
                terms = np.array([fg[1] * gg[2], -gg[1] * fg[2], fg[0] * gg[3], -gg[0] * fg[3]])
                if not _close(row[-1], terms.sum(), FD_TOL, np.abs(terms).sum()):
                    return f"homogeneous bracket {row[-1]} but finite differences give {terms.sum()}"
            return None

        return config, ("bracket",), 0, check

    def _bracket_lagrangian(self, rng, samples):
        m1, m2, c, b, q, a, d = rng.uniform(0.5, 1.5, 7)
        lagr = (
            f"0.5*{_num(m1)}*v1^2 + 0.5*{_num(m2)}*(1 + {_num(c)}*y1^2)*v2^2"
            f" + {_num(b)}*(y1*v2 - y2*v1) + {_num(q)}*y1*y2*v1 - 0.5*(y1^2 + y2^2)"
        )
        f = f"{_num(a)}*y1*v2 + v1^2"
        g = f"sin(y2)*v1 + {_num(d)}*t*y1"
        names = ["t", *_names("y", 2), *_names("v", 2)]
        config, count, header, fe, ge = self._bracket(
            rng, samples, 2, "lagrangian", f, g, names, f'lagrangian = "{lagr}"\n'
        )
        L = expr.parse(lagr)

        def check(out):
            rows, err = _check_rows(out / "bracket.csv", header, count, len(names))
            if err:
                return err
            for row in _spot(rows):
                env = dict(zip(names, row))
                fg, gg = _fd_gradient(fe, env, names), _fd_gradient(ge, env, names)
                inverse = np.linalg.inv(_fd_mixed(L, env, names[3:], names[3:]))
                yv = _fd_mixed(L, env, names[1:3], names[3:])
                weight = inverse @ (yv - yv.T).T @ inverse
                fy, fv, gy, gv = fg[1:3], fg[3:], gg[1:3], gg[3:]
                terms = np.array([gv @ inverse @ fy, -(gy @ inverse @ fv), gv @ weight @ fv])
                if not _close(row[-1], terms.sum(), FD2_TOL, np.abs(terms).sum()):
                    return f"Lagrangian bracket {row[-1]} but finite differences give {terms.sum()}"
            return None

        return config, ("bracket",), 0, check

    def _canonical(self, rng, samples, which):
        theta, d, k = rng.uniform(0.2, 1.2, 3)
        scale = 1.0 + rng.uniform(0.1, 0.5)
        cos, sin = math.cos(theta), math.sin(theta)
        shared = f'y2 = "y2 + {_num(d)}*sin(t)"\np2 = "p2 + {_num(k)}*y2^3"\n'
        config = (
            "[system]\nn = 2\n\n"
            f'[transform.good]\ny1 = "{_num(cos)}*y1 + {_num(sin)}*p1"\n'
            f'p1 = "-{_num(sin)}*y1 + {_num(cos)}*p1"\n{shared}\n'
            f'[transform.bad]\ny1 = "{_num(scale)}*y1"\np1 = "p1"\n{shared}'
        )
        count, sampling = self._sampling(rng, samples, 100)
        config += sampling

        def check(out):
            records = _read_report(out / "report.jsonl")
            if [r["check"] for r in records] != [f"canonical:{which}"]:
                return f"unexpected report records {records}"
            record = records[0]
            if which == "good" and not (record["pass"] and record["max_residual"] <= 1e-12):
                return f"rotation plus shear reported non-canonical: {record}"
            if which == "bad" and (
                record["pass"] or not _close(record["max_residual"], scale - 1.0, 1e-12)
            ):
                return f"scaling by {scale!r} should fail with residual {scale - 1.0!r}: {record}"
            return None

        return config, ("check-canonical", "--transform", which), 0 if which == "good" else 1, check

    def _canonical_good(self, rng, samples):
        return self._canonical(rng, samples, "good")

    def _canonical_bad(self, rng, samples):
        return self._canonical(rng, samples, "bad")

    def _association(self, rng, samples):
        m1, m2, b, w, e = rng.uniform(0.5, 1.5, 5)
        potential = f"0.5*{_num(w)}*(y1^2 + y2^2) + {_num(e)}*sin(t)*y1"
        lagr = (
            f"0.5*{_num(m1)}*v1^2 + 0.5*{_num(m2)}*v2^2"
            f" + {_num(b)}*(y1*v2 - y2*v1) - ({potential})"
        )
        ham = (
            f"(p1 + {_num(b)}*y2)^2/(2*{_num(m1)}) + (p2 - {_num(b)}*y1)^2/(2*{_num(m2)})"
            f" + {potential}"
        )
        count, sampling = self._sampling(rng, samples, 100)
        config = f'[system]\nn = 2\nlagrangian = "{lagr}"\nhamiltonian = "{ham}"\n{sampling}'

        def check(out):
            records = _read_report(out / "report.jsonl")
            names = [r["check"] for r in records]
            if names != ["association-map", "association-energy"] or not all(r["pass"] for r in records):
                return f"magnetic pair must be associated: {records}"
            return None

        return config, ("check-association",), 0, check

    def _constraints(self, rng, samples):
        # Small couplings keep |x'''| below 1, so the O(dt^2) stencil error of
        # the constrained-flow residual stays under its 1e-6 tolerance.
        w1, w2, e, f, c = rng.uniform(0.1, 0.4, 5)
        potential = f"0.5*{_num(w1)}*y1^2 + 0.5*{_num(w2)}*y2^2 + {_num(e)}*y1*y2 + {_num(f)}*sin(t)*y1"
        y = rng.uniform(-0.5, 0.5, 3)
        p = [*rng.uniform(-0.5, 0.5, 2), 0.0]
        config = (
            "[system]\nn = 3\n"
            f'lagrangian = "0.5*v1^2 + 0.5*v2^2 - ({potential})"\n'
            f'hamiltonian = "0.5*p1^2 + 0.5*p2^2 + {_num(c)}*p3 + {potential}"\n\n'
            "[integrator]\ndt = 0.001\nt0 = 0.0\nt_end = 0.05\n\n"
            f"[initial]\ny = [{', '.join(map(_num, y))}]\np = [{', '.join(map(_num, p))}]\n"
        )

        def check(out):
            records = {r["check"]: r for r in _read_report(out / "report.jsonl")}
            if sorted(records) != ["constrained-flow", "constraint-residual", "constraint-tangency"]:
                return f"unexpected report records {sorted(records)}"
            if not records["constrained-flow"]["pass"]:
                return f"constrained flow failed: {records['constrained-flow']}"
            # p3 = 0 is preserved exactly and the fibre maps are linear, so
            # both constraint diagnostics vanish identically.
            for name in ("constraint-residual", "constraint-tangency"):
                if records[name]["max_residual"] != 0.0:
                    return f"{name} should vanish exactly: {records[name]}"
            return None

        return config, ("check-constraints",), 0, check

    def _rel_transform(self, rng, samples):
        beta = rng.uniform(-0.6, 0.6)
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        z0, z1, z2 = rng.uniform(-1.0, 1.0, 3)
        v = rng.uniform(-0.5, 0.5, 2)
        conformal = rng.uniform(0.1, 0.5)
        omega = f"(1 + {_num(conformal)}*z1^2)"
        config = (
            "[system]\nn = 1\n\n[relativity]\n"
            f'maps = ["{_num(gamma)}*(z0 - {_num(beta)}*z1)", '
            f'"{_num(gamma)}*(z1 - {_num(beta)}*z0)", "z2"]\n'
            f"z0 = {_num(z0)}\nz = [{_num(z1)}, {_num(z2)}]\nv = [{_num(v[0])}, {_num(v[1])}]\n\n"
            f'[metric]\nrow0 = ["{omega}", "0", "0"]\nrow1 = ["-{omega}", "0"]\nrow2 = ["-{omega}"]\n'
        )
        # Velocity addition along the boost axis, then the unit lift of the
        # conformally flat metric at the image point.
        image = np.array([gamma * (z0 - beta * z1), gamma * (z1 - beta * z0), z2])
        slope = np.array([(v[0] - beta) / (1.0 - beta * v[0]), v[1] / (gamma * (1.0 - beta * v[0]))])
        dz0 = 1.0 / math.sqrt((1.0 + conformal * image[1] ** 2) * (1.0 - slope @ slope))
        want = np.concatenate([image, slope, [dz0], dz0 * slope])
        header = ["z0", "z1", "z2", "v1", "v2", "dz0", "dz1", "dz2"]

        def check(out):
            got_header, rows = _read_csv(out / "transform.csv")
            if got_header != header or rows.shape != (1, len(header)):
                return f"transform.csv has header {got_header} and shape {rows.shape}"
            if not all(_close(g, w, 1e-12) for g, w in zip(rows[0], want)):
                return f"transform row {rows[0]} != velocity addition {want}"
            return None

        return config, ("rel-transform",), 0, check


WORKLOADS = {w.name: w for w in (LagrangeFlow, HamiltonFlow, CliSampled)}
WORKLOAD_IDS = {name: k for k, name in enumerate(WORKLOADS, start=1)}


def make(name: str, seed: int, work_dir: Path) -> Workload:
    return WORKLOADS[name](seed, work_dir)

