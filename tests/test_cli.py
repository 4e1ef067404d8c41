"""End-to-end command runs: artifacts, exit codes and determinism."""

import json
import math
import tracemalloc

import pytest

from tdmech.cli import main

OSCILLATOR = """
[system]
n = 1
lagrangian = "0.5*v1^2 - 0.5*y1^2"
hamiltonian = "0.5*p1^2 + 0.5*y1^2"

[integrator]
dt = 0.001
t0 = 0.0
t_end = 6.283185307179586

[initial]
y = [1.0]
v = [0.0]
p = [0.0]

[symmetry]
u_t = 1
u = ["0"]
"""

DEGENERATE = """
[system]
n = 2
lagrangian = "0.5*v1^2"
hamiltonian = "0.5*p1^2 + 2*p2"

[integrator]
dt = 0.01
t_end = 1.0

[initial]
y = [0.2, 0.0]
v = [0.5, 0.0]
p = [0.5, 0.0]

[sampling]
seed = 7
samples = 30
"""

BOOST = """
[system]
n = 1

[relativity]
maps = ["1.1547005383792517*(z0 - 0.5*z1)", "1.1547005383792517*(z1 - 0.5*z0)"]
z0 = 0.0
z = [0.0]
v = [0.6]

[metric]
row0 = ["1", "0"]
row1 = ["-1"]
"""


@pytest.fixture
def config_for(tmp_path):
    def write(text, name="system.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def read_report(out_dir):
    lines = (out_dir / "report.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_simulate_hamilton_row_count(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate-hamilton", "--config", config_for(OSCILLATOR), "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,y1,p1"
    assert len(lines) - 1 == math.floor(2.0 * math.pi / 1e-3) + 1 == 6284


def test_simulate_lagrange_header(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate-lagrange",
            "--config",
            config_for(OSCILLATOR),
            "--out",
            str(out),
            "--t-end",
            "1.0",
            "--dt",
            "0.01",
        ]
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,y1,v1"
    assert len(lines) - 1 == 101


def test_row_count_follows_grid(config_for, tmp_path):
    out = tmp_path / "out"
    config = config_for(OSCILLATOR)
    for t_end, dt, expected in ((1.0, 0.3, 4), (2.0, 0.25, 9)):
        code = main(
            ["simulate-hamilton", "--config", config, "--out", str(out),
             "--t-end", str(t_end), "--dt", str(dt)]
        )
        assert code == 0
        rows = len((out / "trajectory.csv").read_text().splitlines()) - 1
        assert rows == math.floor(t_end / dt) + 1 == expected


def test_simulation_is_deterministic(config_for, tmp_path):
    config = config_for(OSCILLATOR)
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["simulate-hamilton", "--config", config, "--out", str(out)]) == 0
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()


def test_reports_are_deterministic(config_for, tmp_path):
    config = config_for(DEGENERATE)
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert main(["check-association", "--config", config, "--out", str(out)]) == 0
    assert (first / "report.jsonl").read_bytes() == (second / "report.jsonl").read_bytes()


def test_conservation_check_passes_for_energy(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(["check-conservation", "--config", config_for(OSCILLATOR), "--out", str(out)])
    assert code == 0
    records = read_report(out)
    assert {record["check"] for record in records} == {"current-drift", "weak-identity"}
    assert all(record["pass"] for record in records)
    drift = next(r for r in records if r["check"] == "current-drift")
    assert drift["max_residual"] <= 1e-7
    assert drift["tolerance"] == 1e-7


def test_conservation_check_fails_for_broken_symmetry(config_for, tmp_path):
    broken = OSCILLATOR.replace('u_t = 1\nu = ["0"]', 'u_t = 0\nu = ["1"]')
    out = tmp_path / "out"
    code = main(
        ["check-conservation", "--config", config_for(broken), "--out", str(out),
         "--t-end", "1.0"]
    )
    assert code == 1
    records = read_report(out)
    drift = next(r for r in records if r["check"] == "current-drift")
    identity = next(r for r in records if r["check"] == "weak-identity")
    assert not drift["pass"]
    assert identity["pass"]


def test_canonical_check_rejects_non_canonical(config_for, tmp_path):
    text = (
        "[system]\nn = 1\n\n"
        '[transform.rotate]\ny1 = "p1"\np1 = "-y1"\n\n'
        '[transform.flip]\ny1 = "p1"\np1 = "y1"\n'
    )
    out = tmp_path / "out"
    code = main(["check-canonical", "--config", config_for(text), "--out", str(out)])
    assert code == 1
    records = {record["check"]: record for record in read_report(out)}
    assert records["canonical:rotate"]["pass"]
    assert not records["canonical:flip"]["pass"]
    assert records["canonical:flip"]["max_residual"] == pytest.approx(2.0, abs=1e-12)


def test_canonical_check_transform_filter(config_for, tmp_path):
    text = (
        "[system]\nn = 1\n\n"
        '[transform.rotate]\ny1 = "p1"\np1 = "-y1"\n\n'
        '[transform.flip]\ny1 = "p1"\np1 = "y1"\n'
    )
    out = tmp_path / "out"
    args = ["check-canonical", "--config", config_for(text), "--out", str(out)]
    assert main(args + ["--transform", "rotate"]) == 0
    assert main(args + ["--transform", "missing"]) == 2


def test_association_check_detects_mismatch(config_for, tmp_path):
    text = (
        "[system]\nn = 1\n"
        'lagrangian = "0.5*v1^2"\nhamiltonian = "p1^2"\n\n'
        "[sampling]\nseed = 3\nsamples = 20\n"
    )
    out = tmp_path / "out"
    code = main(["check-association", "--config", config_for(text), "--out", str(out)])
    assert code == 1
    assert not all(record["pass"] for record in read_report(out))


def test_constraint_check_on_degenerate_pair(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(["check-constraints", "--config", config_for(DEGENERATE), "--out", str(out)])
    assert code == 0
    records = read_report(out)
    assert {record["check"] for record in records} == {
        "constrained-flow",
        "constraint-residual",
        "constraint-tangency",
    }
    assert all(record["pass"] for record in records)


def test_legendre_samples(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["legendre", "--config", config_for(OSCILLATOR), "--out", str(out), "--samples", "7"]
    )
    assert code == 0
    lines = (out / "legendre.csv").read_text().splitlines()
    assert lines[0] == "t,y1,v1,p1"
    assert len(lines) - 1 == 7
    # p1 equals v1 for this kinetic term
    for line in lines[1:]:
        _, _, v1, p1 = line.split(",")
        assert v1 == p1


def test_bracket_command_emits_pairing(config_for, tmp_path):
    text = OSCILLATOR + '\n[bracket]\nf = "y1"\ng = "p1"\n'
    out = tmp_path / "out"
    code = main(
        ["bracket", "--config", config_for(text), "--out", str(out), "--samples", "5"]
    )
    assert code == 0
    lines = (out / "bracket.csv").read_text().splitlines()
    assert lines[0] == "t,y1,p1,value"
    assert all(line.endswith(",1") for line in lines[1:])


def test_rel_transform_boost(config_for, tmp_path):
    out = tmp_path / "out"
    code = main(["rel-transform", "--config", config_for(BOOST), "--out", str(out)])
    assert code == 0
    lines = (out / "transform.csv").read_text().splitlines()
    assert lines[0] == "z0,z1,v1,dz0,dz1"
    values = [float(item) for item in lines[1].split(",")]
    assert abs(values[2] - 1.0 / 7.0) <= 1e-12
    assert abs(values[3] - 1.0 / math.sqrt(1.0 - 1.0 / 49.0)) <= 1e-12


def test_rel_transform_chart_boundary(config_for, tmp_path):
    text = (
        "[system]\nn = 1\n\n"
        '[relativity]\nmaps = ["z1", "z0"]\nz0 = 0.0\nz = [1.0]\nv = [0.0]\n'
    )
    out = tmp_path / "out"
    assert main(["rel-transform", "--config", config_for(text), "--out", str(out)]) == 2


def test_self_test_runs_without_config(tmp_path):
    out = tmp_path / "out"
    assert main(["self-test", "--out", str(out)]) == 0
    assert all(record["pass"] for record in read_report(out))


def test_missing_lagrangian_is_input_error(config_for, tmp_path):
    text = '[system]\nn = 1\nhamiltonian = "0.5*p1^2"\n'
    out = tmp_path / "out"
    code = main(["simulate-lagrange", "--config", config_for(text), "--out", str(out)])
    assert code == 2


def test_missing_config_file_is_input_error(tmp_path):
    code = main(["simulate-hamilton", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_config_error_reports_line(config_for, tmp_path, capsys):
    text = "[system]\nn = 1\nlagrangian = 0.5*v1^2\n"
    code = main(["simulate-lagrange", "--config", config_for(text)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--dt", "nan"], ["--t-end", "inf"], ["--dt", "1e-300"]],
    ids=["dt-nan", "t-end-inf", "dt-tiny"],
)
def test_unusable_step_request_is_input_error(config_for, tmp_path, flags):
    out = tmp_path / "out"
    config = config_for(OSCILLATOR)
    code = main(["simulate-hamilton", "--config", config, "--out", str(out), *flags])
    assert code == 2
    assert not (out / "trajectory.csv").exists()


def test_repeated_calls_share_a_parser_without_state(config_for, tmp_path, capsys):
    from tdmech.cli import _build_parser

    oscillator = config_for(OSCILLATOR)
    transforms = config_for(
        "[system]\nn = 1\n\n"
        '[transform.good]\ny1 = "p1"\np1 = "-y1"\n\n'
        '[transform.bad]\ny1 = "2*y1"\np1 = "p1"\n',
        name="transforms.cfg",
    )
    calls = [
        ["check-canonical", "--config", transforms, "--transform", "good", "--samples", "5"],
        ["check-canonical", "--config", transforms, "--samples", "5"],
        ["simulate-hamilton", "--config", oscillator, "--t-end", "0.5", "--dt", "0.01"],
        ["legendre", "--config", oscillator, "--samples", "7", "--seed", "3"],
        ["simulate-hamilton", "--config", oscillator, "--no-such-option"],
        ["legendre", "--help"],
        ["self-test"],
    ]

    def run(index, out):
        try:
            code = main([*calls[index], "--out", str(out)])
        except SystemExit as exc:
            code = ("exit", exc.code)
        text = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, files, text.out.replace(str(out), "OUT"), text.err

    # Reference: each call on a freshly built parser.
    first = {}
    for index in range(len(calls)):
        _build_parser.cache_clear()
        first[index] = run(index, tmp_path / f"first{index}")
    assert [first[i][0] for i in range(len(calls))] == [0, 1, 0, 0, ("exit", 2), ("exit", 0), 0]
    assert "unrecognized arguments: --no-such-option" in first[4][3]
    assert first[5][2].startswith("usage: tdmech legendre")

    # Then the same calls on one shared parser, in two other orders.
    order = [*reversed(range(len(calls))), 0, 4, 1, 5, 2, 6, 3]
    for k, index in enumerate(order):
        assert run(index, tmp_path / f"again{k}") == first[index]
    assert _build_parser() is _build_parser()


def test_non_finite_config_number_names_the_line(config_for, tmp_path, capsys):
    text = OSCILLATOR.replace("dt = 0.001", "dt = nan")
    code = main(["legendre", "--config", config_for(text), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 8: integrator.dt must be finite" in capsys.readouterr().err


SAMPLED = OSCILLATOR + '\n[bracket]\nf = "y1"\ng = "p1"\n\n[transform.rotate]\ny1 = "p1"\np1 = "-y1"\n'
SAMPLED_COMMANDS = ["legendre", "bracket", "check-canonical", "check-association"]


@pytest.mark.parametrize("command", [*SAMPLED_COMMANDS, "self-test"])
def test_negative_seed_is_input_error(command, config_for, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", config_for(SAMPLED), "--out", str(out), "--seed", "-1"])
    assert code == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_negative_config_seed_names_its_line(config_for, tmp_path, capsys):
    text = SAMPLED + "\n[sampling]\nseed = -4\n"
    line = text.splitlines().index("seed = -4") + 1
    code = main(["legendre", "--config", config_for(text), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"line {line}: sampling.seed must be non-negative, got -4" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", str(2**64 + 1), str(10**40)])
def test_large_seeds_still_work(seed, config_for, tmp_path):
    out = tmp_path / "out"
    args = ["--config", config_for(SAMPLED), "--out", str(out), "--seed", seed, "--samples", "3"]
    assert main(["legendre", *args]) == 0
    assert len((out / "legendre.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("command", SAMPLED_COMMANDS)
def test_sample_count_over_budget_is_refused_before_drawing(command, config_for, tmp_path, capsys):
    from tdmech.integrate import _SAMPLE_BUDGET

    out = tmp_path / "out"
    config = config_for(SAMPLED)
    tracemalloc.start()
    try:
        code = main([command, "--config", config, "--out", str(out), "--samples", "100000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"exceed the budget of {_SAMPLE_BUDGET}" in capsys.readouterr().err
    assert peak < 2**20
    assert not any(out.iterdir())


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-12"])
@pytest.mark.parametrize(
    "command, config",
    [
        ("check-conservation", SAMPLED),
        ("check-canonical", SAMPLED),
        ("check-association", SAMPLED),
        ("check-constraints", DEGENERATE),
    ],
    ids=["check-conservation", "check-canonical", "check-association", "check-constraints"],
)
def test_unusable_tolerance_is_input_error(command, config, tolerance, config_for, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", config_for(config), "--out", str(out), f"--tolerance={tolerance}"])
    assert code == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err
    assert not (out / "report.jsonl").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_strict_report(out_dir):
    lines = (out_dir / "report.jsonl").read_text().splitlines()
    return {
        record["check"]: record
        for record in (json.loads(line, parse_constant=_reject_constant) for line in lines)
    }


@pytest.mark.parametrize(
    "y1, p1, residual",
    [("y1 + 0*(1e308*10)*p1", "p1", "nan"), ("1e200*y1", "1e200*p1", "inf")],
    ids=["nan", "inf"],
)
def test_non_finite_canonical_residual_fails_as_strict_json(y1, p1, residual, config_for, tmp_path, capsys):
    # 0*(1e308*10) is 0*inf, NaN; 1e200*1e200 overflows to inf.
    text = f'[system]\nn = 1\n\n[transform.bad]\ny1 = "{y1}"\np1 = "{p1}"\n'
    out = tmp_path / "out"
    assert main(["check-canonical", "--config", config_for(text), "--out", str(out)]) == 1
    record = read_strict_report(out)["canonical:bad"]
    assert (record["max_residual"], record["pass"]) == (residual, False)
    assert f"canonical:bad: FAIL (max_residual={residual}," in capsys.readouterr().out


def test_nan_association_residual_fails_as_strict_json(config_for, tmp_path, capsys):
    text = (
        "[system]\nn = 1\n"
        'lagrangian = "0.5*v1^2"\nhamiltonian = "0.5*p1^2 + 0*(1e308*10)*y1"\n'
    )
    out = tmp_path / "out"
    assert main(["check-association", "--config", config_for(text), "--out", str(out)]) == 1
    records = read_strict_report(out)
    assert records["association-map"]["pass"]
    assert (records["association-energy"]["max_residual"], records["association-energy"]["pass"]) == (
        "nan",
        False,
    )
    assert "association-energy: FAIL (max_residual=nan," in capsys.readouterr().out


def test_zero_tolerance_is_accepted(config_for, tmp_path):
    out = tmp_path / "out"
    args = ["--config", config_for(SAMPLED), "--out", str(out), "--tolerance", "0"]
    assert main(["check-canonical", *args]) == 0
    assert read_report(out)[0]["tolerance"] == 0.0
