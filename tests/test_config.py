"""Config file parsing and validation."""

import pytest

from tdmech.config import load_config
from tdmech.errors import ConfigError

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

[sampling]
seed = 42
samples = 10
"""


def write(tmp_path, text):
    path = tmp_path / "system.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_oscillator_config_parses(tmp_path):
    config = load_config(write(tmp_path, OSCILLATOR))
    assert config.n == 1
    assert config.lagrangian == "0.5*v1^2 - 0.5*y1^2"
    assert config.integrator.dt == 0.001
    assert config.initial.y == (1.0,)
    assert config.seed == 42
    assert config.samples == 10


def test_defaults_applied(tmp_path):
    config = load_config(write(tmp_path, '[system]\nn = 2\n'))
    assert config.samples == 100
    assert config.lagrangian is None
    assert config.integrator is None


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/system.cfg")


def test_missing_n(tmp_path):
    with pytest.raises(ConfigError, match="system.n"):
        load_config(write(tmp_path, '[system]\nlagrangian = "v1"\n'))


def test_dimension_mismatch_names_field_and_line(tmp_path):
    text = '[system]\nn = 2\n\n[initial]\ny = [1.0]\n'
    with pytest.raises(ConfigError, match="line 5: initial.y") as info:
        load_config(write(tmp_path, text))
    assert info.value.line == 5


def test_unquoted_expression_rejected(tmp_path):
    text = '[system]\nn = 1\nlagrangian = 0.5*v1^2\n'
    with pytest.raises(ConfigError, match="line 3") as info:
        load_config(write(tmp_path, text))
    assert info.value.line == 3


def test_unparseable_expression_rejected(tmp_path):
    text = '[system]\nn = 1\nlagrangian = "0.5*v1^"\n'
    with pytest.raises(ConfigError, match="does not parse"):
        load_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
        load_config(write(tmp_path, "[system]\nn = 1\n\n[misc]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'm'"):
        load_config(write(tmp_path, "[system]\nn = 1\nm = 2\n"))


def test_malformed_line_reports_number(tmp_path):
    with pytest.raises(ConfigError, match="line 3"):
        load_config(write(tmp_path, "[system]\nn = 1\nnot a key value pair\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "[system]\nn = 1\nn = 2\n"))


def test_transform_sections_collected(tmp_path):
    text = OSCILLATOR + '\n[transform.rot]\ny1 = "p1"\np1 = "-y1"\n'
    config = load_config(write(tmp_path, text))
    assert config.transforms == {"rot": {"y1": "p1", "p1": "-y1"}}


def test_symmetry_component_count_checked(tmp_path):
    text = '[system]\nn = 2\n\n[symmetry]\nu_t = 0\nu = ["1"]\n'
    with pytest.raises(ConfigError, match="symmetry.u"):
        load_config(write(tmp_path, text))


def test_symmetry_parsed(tmp_path):
    text = '[system]\nn = 2\n\n[symmetry]\nu_t = 1\nu = ["0", "sin(t)"]\n'
    config = load_config(write(tmp_path, text))
    assert config.symmetry.u_t == 1.0
    assert config.symmetry.components == ("0", "sin(t)")


def test_metric_upper_triangle_shape_checked(tmp_path):
    text = '[system]\nn = 1\n\n[metric]\nrow0 = ["1"]\nrow1 = ["-1"]\n'
    with pytest.raises(ConfigError, match="metric.row0"):
        load_config(write(tmp_path, text))


def test_metric_parsed(tmp_path):
    text = '[system]\nn = 1\n\n[metric]\nrow0 = ["1", "0"]\nrow1 = ["-1"]\n'
    config = load_config(write(tmp_path, text))
    assert config.metric == (("1", "0"), ("-1",))


def test_bracket_space_validated(tmp_path):
    text = '[system]\nn = 1\n\n[bracket]\nf = "y1"\ng = "p1"\nspace = "sideways"\n'
    with pytest.raises(ConfigError, match="bracket.space"):
        load_config(write(tmp_path, text))


def test_relativity_shape_validated(tmp_path):
    text = '[system]\nn = 1\n\n[relativity]\nmaps = ["z1", "z0"]\nz = [0.0]\nv = [0.5, 0.2]\n'
    with pytest.raises(ConfigError, match="relativity.maps"):
        load_config(write(tmp_path, text))


def test_integrator_requires_dt_and_t_end(tmp_path):
    with pytest.raises(ConfigError, match="integrator"):
        load_config(write(tmp_path, "[system]\nn = 1\n\n[integrator]\ndt = 0.1\n"))


def test_negative_dt_rejected(tmp_path):
    text = "[system]\nn = 1\n\n[integrator]\ndt = -0.1\nt_end = 1.0\n"
    with pytest.raises(ConfigError, match="integrator.dt"):
        load_config(write(tmp_path, text))


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# system under test\n[system]\n; dimension\nn = 1\n\n"
    assert load_config(write(tmp_path, text)).n == 1


@pytest.mark.parametrize(
    "old, new, line, key",
    [
        ("dt = 0.001", "dt = nan", 8, "integrator.dt"),
        ("t_end = 6.283185307179586", "t_end = inf", 10, "integrator.t_end"),
        ("y = [1.0]", "y = [1.0, nan]", 13, "initial.y"),
    ],
    ids=["dt-nan", "t_end-inf", "y-nan"],
)
def test_non_finite_numbers_rejected_with_line(tmp_path, old, new, line, key):
    with pytest.raises(ConfigError, match=f"line {line}: {key} must be .*finite") as info:
        load_config(write(tmp_path, OSCILLATOR.replace(old, new)))
    assert info.value.line == line
