"""Golden artifacts: the README oscillator's CLI outputs, pinned to the byte.

The oscillator over 100 steps uses only ``+ - * /`` and 1x1 solves, so its
bits follow from IEEE 754 arithmetic alone, not from the host's libm or
BLAS.  The flows take steps of 0.02: at the README's 1e-3 a re-associated
RK4 step sum rounds to the same bits.  The conservation check needs the
small step, since its on-shell test compares finite-difference
accelerations with the equations of motion to 1e-5.  ``legendre.csv`` is also kept in ``tests/data`` so
that a failure there shows a diff and not just a hash.
"""

import hashlib
from pathlib import Path

import pytest

from tdmech.cli import main

GOLDEN_OSCILLATOR = """
[system]
n = 1
lagrangian = "0.5*v1^2 - 0.5*y1^2"
hamiltonian = "0.5*p1^2 + 0.5*y1^2"

[integrator]
dt = 0.02
t0 = 0.0
t_end = 2.0

[initial]
y = [1.0]
v = [0.0]
p = [0.0]

[sampling]
samples = 5
"""

# (command, extra flags, artifact) -> SHA-256 of the artifact
GOLDEN_SHA256 = {
    ("simulate-hamilton", (), "trajectory.csv"): "13a3a4f3db20a60dd10a35c98def8b30174b84f8011c62ed2a8b3c755a17746b",
    ("simulate-lagrange", (), "trajectory.csv"): "4ded622ff19bb01b721360767a539853e86f1d01e959da44ea4d276fa948692f",
    ("check-conservation", ("--dt", "1e-3", "--t-end", "0.1"), "report.jsonl"): "e26212a8785e35466be66dd9c5207e502d695ad952a042c9e908f59bc09a3c56",
    ("legendre", (), "legendre.csv"): "32f44e1fbbfbbe199ee936382f08b53441f1308c980ae24f42c75b3f90df24e0",
}

DATA = Path(__file__).parent / "data"


def _run(command, flags, tmp_path):
    config = tmp_path / "oscillator.cfg"
    config.write_text(GOLDEN_OSCILLATOR, encoding="utf-8")
    out = tmp_path / command
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("command, flags, artifact", list(GOLDEN_SHA256), ids=[key[0] for key in GOLDEN_SHA256])
def test_artifact_bytes_are_pinned(command, flags, artifact, tmp_path):
    data = (_run(command, flags, tmp_path) / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[command, flags, artifact]


def test_legendre_matches_the_expected_csv(tmp_path):
    got = (_run("legendre", (), tmp_path) / "legendre.csv").read_text(encoding="utf-8")
    assert got == (DATA / "golden_legendre.csv").read_text(encoding="utf-8")
