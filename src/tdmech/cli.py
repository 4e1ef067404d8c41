"""Batch command-line interface.

Every command reads a declarative config file, runs one library operation
and writes its artifacts into the output directory: trajectories and
sampled values as CSV (17 significant digits, LF line endings), check
results as JSON lines with fields {check, max_residual, tolerance, pass}.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .bundle import JetPoint, VerticalPhasePoint, HomogeneousPhasePoint, p_names, v_names, y_names
from .config import DEFAULT_SEED, SystemConfig, load_config
from .constraints import (
    ASSOCIATION_TOLERANCE,
    CONSTRAINT_TOLERANCE,
    ConstraintSpace,
    association_check,
    constrained_hamilton_residual,
    tangency_residual,
)
from .currents import weak_identity_residual
from .errors import InputError, MechanicsError
from .expr import parse as parse_expression
from .hamilton import (
    CANONICAL_TOLERANCE,
    CanonicalTransform,
    HamiltonianForm,
    canonical_check,
    integrate_hamilton,
)
from .integrate import _SAMPLE_BUDGET
from .lagrange import Lagrangian, integrate_lagrange, legendre_invert, legendre_map
from .poisson import bracket_homogeneous, bracket_lagrangian, bracket_vertical
from .relativity import (
    ChartTransform,
    Metric,
    SubmanifoldJet,
    lorentz_boost,
    normalize_to_hyperboloid,
    transform_jet,
)

DRIFT_TOLERANCE = 1e-7
WEAK_IDENTITY_TOLERANCE = 1e-5


def _format_row(values) -> str:
    return ",".join("%.17g" % value for value in values)


def _csv_command(out_dir: str, name: str, header: Sequence[str], rows) -> int:
    path = os.path.join(out_dir, name)
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(_format_row(row) + "\n")
            count += 1
    print(f"wrote {path} ({count} rows)")
    return 0


def _trajectory_command(out_dir: str, header: Sequence[str], traj) -> int:
    rows = ((t, *state) for t, state in zip(traj.times, traj.states))
    return _csv_command(out_dir, "trajectory.csv", header, rows)


def _write_report(path: str, records: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _report_command(out_dir: str, records: Sequence[dict]) -> int:
    for record in records:
        status = "pass" if record["pass"] else "FAIL"
        print(
            f"{record['check']}: {status} "
            f"(max_residual={record['max_residual']:.6g}, "
            f"tolerance={record['tolerance']:.6g})"
        )
    path = os.path.join(out_dir, "report.jsonl")
    _write_report(path, records)
    print(f"wrote {path}")
    return 0 if all(record["pass"] for record in records) else 1


def _record(check: str, residual: float, tolerance: float) -> dict:
    return {
        "check": check,
        "max_residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _require(value, message: str):
    if value is None:
        raise InputError(message)
    return value


def _integrator(config: SystemConfig, args):
    base = config.integrator
    dt = args.dt if args.dt is not None else (base.dt if base else None)
    t0 = args.t0 if args.t0 is not None else (base.t0 if base else 0.0)
    t_end = args.t_end if args.t_end is not None else (base.t_end if base else None)
    if dt is None or t_end is None:
        raise InputError("dt and t_end are required (config [integrator] or flags)")
    if dt <= 0:
        raise InputError("dt must be positive")
    return dt, t0, t_end


def _sampling(config: SystemConfig, args, width: int, sets: int = 1) -> np.ndarray:
    """``sets * samples`` points of ``width`` coordinates, uniform in [-1, 1):
    the same numbers as drawing the points one at a time."""
    seed = args.seed if args.seed is not None else config.seed
    samples = args.samples if args.samples is not None else config.samples
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if samples < 1:
        raise InputError("samples must be at least 1")
    if sets * samples * width > _SAMPLE_BUDGET:
        raise InputError(f"{sets * samples}x{width} samples exceed the budget of {_SAMPLE_BUDGET}")
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(sets * samples, width))


def _tolerance(args, default: float) -> float:
    if args.tolerance is None:
        return default
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise InputError(f"tolerance must be finite and non-negative, got {args.tolerance!r}")
    return args.tolerance


def _lagrangian(config: SystemConfig) -> Lagrangian:
    text = _require(config.lagrangian, "this command needs system.lagrangian")
    return Lagrangian.parse(text, config.n)


def _hamiltonian(config: SystemConfig) -> HamiltonianForm:
    text = _require(config.hamiltonian, "this command needs system.hamiltonian")
    return HamiltonianForm.parse(text, config.n)


def cmd_simulate_lagrange(config: SystemConfig, args, out_dir: str) -> int:
    L = _lagrangian(config)
    y = _require(config.initial.y, "simulate-lagrange needs initial.y")
    v = _require(config.initial.v, "simulate-lagrange needs initial.v")
    dt, t0, t_end = _integrator(config, args)
    traj = integrate_lagrange(L, JetPoint(t0, y, v), t_end, dt)
    return _trajectory_command(out_dir, ["t", *y_names(config.n), *v_names(config.n)], traj)


def cmd_simulate_hamilton(config: SystemConfig, args, out_dir: str) -> int:
    H = _hamiltonian(config)
    y = _require(config.initial.y, "simulate-hamilton needs initial.y")
    p = _require(config.initial.p, "simulate-hamilton needs initial.p")
    dt, t0, t_end = _integrator(config, args)
    traj = integrate_hamilton(H, VerticalPhasePoint(t0, y, p), t_end, dt)
    return _trajectory_command(out_dir, ["t", *y_names(config.n), *p_names(config.n)], traj)


def cmd_legendre(config: SystemConfig, args, out_dir: str) -> int:
    L = _lagrangian(config)
    n = config.n
    points = _sampling(config, args, 2 * n + 1)

    def rows():
        for coords in points:
            q = legendre_map(L, JetPoint(coords[0], coords[1 : n + 1], coords[n + 1 :]))
            yield (*coords, *q.p)

    header = ["t", *y_names(n), *v_names(n), *p_names(n)]
    return _csv_command(out_dir, "legendre.csv", header, rows())


def cmd_bracket(config: SystemConfig, args, out_dir: str) -> int:
    section = _require(config.bracket, "this command needs a [bracket] section")
    f = parse_expression(section.f)
    g = parse_expression(section.g)
    n = config.n
    if section.space == "vertical":
        header = ["t", *y_names(n), *p_names(n)]

        def value(coords):
            q = VerticalPhasePoint(coords[0], coords[1 : n + 1], coords[n + 1 :])
            return bracket_vertical(f, g, q)

    elif section.space == "homogeneous":
        header = ["t", *y_names(n), *p_names(n), "p0"]

        def value(coords):
            q = HomogeneousPhasePoint(
                coords[0], coords[1 : n + 1], coords[n + 1 : 2 * n + 1], coords[-1]
            )
            return bracket_homogeneous(f, g, q)

    else:
        L = _lagrangian(config)
        header = ["t", *y_names(n), *v_names(n)]

        def value(coords):
            j = JetPoint(coords[0], coords[1 : n + 1], coords[n + 1 :])
            return bracket_lagrangian(f, g, L, j)

    points = _sampling(config, args, len(header))
    rows = ((*coords, value(coords)) for coords in points)
    return _csv_command(out_dir, "bracket.csv", [*header, "value"], rows)


def cmd_check_canonical(config: SystemConfig, args, out_dir: str) -> int:
    if not config.transforms:
        raise InputError("this command needs at least one [transform.NAME] section")
    names = sorted(config.transforms)
    if args.transform is not None:
        if args.transform not in config.transforms:
            raise InputError(f"no [transform.{args.transform}] section in the config")
        names = [args.transform]
    tolerance = _tolerance(args, CANONICAL_TOLERANCE)
    n = config.n
    rows = _sampling(config, args, 2 * n + 1)
    points = [VerticalPhasePoint(c[0], c[1 : n + 1], c[n + 1 :]) for c in rows]

    expected = set(y_names(n)) | set(p_names(n))
    records = []
    for name in names:
        entries = config.transforms[name]
        if set(entries) != expected:
            raise InputError(
                f"[transform.{name}] must define exactly {', '.join(sorted(expected))}"
            )
        transform = CanonicalTransform(
            tuple(parse_expression(entries[key]) for key in y_names(n)),
            tuple(parse_expression(entries[key]) for key in p_names(n)),
        )
        report = canonical_check(transform, points, tolerance)
        records.append(_record(f"canonical:{name}", report.max_residual, tolerance))
    return _report_command(out_dir, records)


def cmd_check_conservation(config: SystemConfig, args, out_dir: str) -> int:
    L = _lagrangian(config)
    y = _require(config.initial.y, "check-conservation needs initial.y")
    v = _require(config.initial.v, "check-conservation needs initial.v")
    dt, t0, t_end = _integrator(config, args)
    drift_tolerance = _tolerance(args, DRIFT_TOLERANCE)

    if config.symmetry is not None:
        u_t = config.symmetry.u_t
        components = config.symmetry.components
    elif config.frame is not None:
        # frame energy current: time translation corrected by the frame field
        u_t, components = 1.0, config.frame
    else:
        u_t, components = 1.0, ("0",) * config.n
    u = tuple(parse_expression(text) for text in components)

    traj = integrate_lagrange(L, JetPoint(t0, y, v), t_end, dt)
    report = weak_identity_residual(L, u_t, u, traj)
    records = [
        _record("current-drift", report.max_drift, drift_tolerance),
        _record("weak-identity", report.max_residual, WEAK_IDENTITY_TOLERANCE),
    ]
    return _report_command(out_dir, records)


def cmd_check_association(config: SystemConfig, args, out_dir: str) -> int:
    L = _lagrangian(config)
    H = _hamiltonian(config)
    tolerance = _tolerance(args, ASSOCIATION_TOLERANCE)
    n = config.n
    # The jets are drawn first, then the phase points.
    jet_rows, phase_rows = np.split(_sampling(config, args, 2 * n + 1, sets=2), 2)
    jets = [JetPoint(c[0], c[1 : n + 1], c[n + 1 :]) for c in jet_rows]
    phases = [VerticalPhasePoint(c[0], c[1 : n + 1], c[n + 1 :]) for c in phase_rows]
    report = association_check(L, H, jets, phases, tolerance)
    records = [
        _record("association-map", report.map_residual, tolerance),
        _record("association-energy", report.energy_residual, tolerance),
    ]
    return _report_command(out_dir, records)


def cmd_check_constraints(config: SystemConfig, args, out_dir: str) -> int:
    L = _lagrangian(config)
    H = _hamiltonian(config)
    y = _require(config.initial.y, "check-constraints needs initial.y")
    p = _require(config.initial.p, "check-constraints needs initial.p")
    dt, t0, t_end = _integrator(config, args)
    tolerance = _tolerance(args, CONSTRAINT_TOLERANCE)

    traj = integrate_hamilton(H, VerticalPhasePoint(t0, y, p), t_end, dt)
    space = ConstraintSpace(L, H)
    flow = constrained_hamilton_residual(H, space, traj, tolerance=math.inf)

    constraint_max = 0.0
    tangency_max = 0.0
    for t, state in zip(traj.times, traj.states):
        q = VerticalPhasePoint(t, state[: config.n], state[config.n :])
        constraint_max = max(constraint_max, float(np.max(np.abs(space.residual(q)))))
        tangency_max = max(tangency_max, float(np.max(np.abs(tangency_residual(L, H, q)))))

    records = [
        _record("constrained-flow", flow.max_residual, tolerance),
        _record("constraint-residual", constraint_max, tolerance),
        _record("constraint-tangency", tangency_max, tolerance),
    ]
    return _report_command(out_dir, records)


def cmd_rel_transform(config: SystemConfig, args, out_dir: str) -> int:
    section = _require(config.relativity, "this command needs a [relativity] section")
    transform = ChartTransform.parse(section.maps)
    j = SubmanifoldJet(section.z0, section.z, section.v)
    image = transform_jet(transform, j)

    m = image.m
    header = ["z0"] + [f"z{i}" for i in range(1, m + 1)]
    header += [f"v{i}" for i in range(1, m + 1)]
    row = [image.z0, *image.z, *image.v]
    if config.metric is not None:
        metric = Metric.parse(config.metric)
        lift = normalize_to_hyperboloid(metric, image, section.branch)
        header += ["dz0"] + [f"dz{i}" for i in range(1, m + 1)]
        row += [lift.dz0, *lift.dz]

    return _csv_command(out_dir, "transform.csv", header, [row])


def cmd_self_test(config, args, out_dir: str) -> int:
    records = []

    coords = _sampling(SystemConfig(n=1, seed=DEFAULT_SEED, samples=1), args, 3)[0]
    q = VerticalPhasePoint(coords[0], coords[1:2], coords[2:])
    pairing = bracket_vertical(parse_expression("y1"), parse_expression("p1"), q)
    records.append(_record("self:pairing", abs(pairing - 1.0), 1e-12))

    image = transform_jet(lorentz_boost(0.5), SubmanifoldJet(0.0, (0.0,), (0.6,)))
    records.append(_record("self:boost", abs(image.v[0] - 1.0 / 7.0), 1e-12))

    L = Lagrangian.parse("0.5*exp(y1)*v1^2", 1)
    j = JetPoint(0.3, (0.4,), (-0.7,))
    back = legendre_invert(L, legendre_map(L, j))
    records.append(_record("self:legendre", abs(back.v[0] - j.v[0]), 1e-10))

    osc = Lagrangian.parse("0.5*v1^2 - 0.5*y1^2", 1)
    traj = integrate_lagrange(osc, JetPoint(0.0, (1.0,), (0.0,)), 2.0 * math.pi, 1e-3)
    report = weak_identity_residual(osc, 1.0, (parse_expression("0"),), traj)
    records.append(_record("self:energy-drift", report.max_drift, DRIFT_TOLERANCE))

    return _report_command(out_dir, records)


_COMMANDS = {
    "simulate-lagrange": (cmd_simulate_lagrange, True),
    "simulate-hamilton": (cmd_simulate_hamilton, True),
    "legendre": (cmd_legendre, True),
    "bracket": (cmd_bracket, True),
    "check-canonical": (cmd_check_canonical, True),
    "check-conservation": (cmd_check_conservation, True),
    "check-association": (cmd_check_association, True),
    "check-constraints": (cmd_check_constraints, True),
    "rel-transform": (cmd_rel_transform, True),
    "self-test": (cmd_self_test, False),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` keeps nothing between calls: each returns a fresh
    namespace filled from the defaults.
    """
    parser = argparse.ArgumentParser(
        prog="tdmech",
        description="Batch tools for time-dependent mechanics systems.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in _COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=needs_config, help="config file path")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--dt", type=float, default=None)
        sub.add_argument("--t0", type=float, default=None)
        sub.add_argument("--t-end", dest="t_end", type=float, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--samples", type=int, default=None)
        sub.add_argument("--tolerance", type=float, default=None)
        if name == "check-canonical":
            sub.add_argument("--transform", default=None, help="check only this transform")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, needs_config = _COMMANDS[args.command]
    try:
        config = load_config(args.config) if needs_config else None
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        return command(config, args, out_dir)
    except MechanicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
