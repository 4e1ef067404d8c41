"""Declarative system configuration for the batch commands.

The format is flat ``key = value`` lines under ``[section]`` headers.
Strings are double-quoted, numbers are bare, lists are comma-separated
inside brackets.  Unknown sections or keys are rejected so that typos
surface as errors instead of silently ignored settings.

Expression values are parsed at load time; commands receive validated
text and rebuild the typed objects they need.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError, ParseError
from .expr import parse as parse_expression

DEFAULT_SEED = 20260823
DEFAULT_SAMPLES = 100

_KNOWN_KEYS = {
    "system": {"n", "lagrangian", "hamiltonian"},
    "integrator": {"dt", "t0", "t_end"},
    "initial": {"y", "v", "p"},
    "sampling": {"seed", "samples"},
    "symmetry": {"u_t", "u"},
    "frame": {"components"},
    "bracket": {"f", "g", "space"},
    "relativity": {"maps", "z0", "z", "v", "branch"},
}

_SECTION_LINE = re.compile(r"^\s*\[([^\]]+)\]\s*$")
_KEY_LINE = re.compile(r"^\s*([^=\s\[#;][^=]*?)\s*=")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t0: float
    t_end: float


@dataclass(frozen=True)
class InitialConfig:
    y: tuple[float, ...] | None = None
    v: tuple[float, ...] | None = None
    p: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SymmetryConfig:
    u_t: float
    components: tuple[str, ...]


@dataclass(frozen=True)
class BracketConfig:
    f: str
    g: str
    space: str = "vertical"


@dataclass(frozen=True)
class RelativityConfig:
    maps: tuple[str, ...]
    z0: float
    z: tuple[float, ...]
    v: tuple[float, ...]
    branch: int = 1


@dataclass(frozen=True)
class SystemConfig:
    """Validated contents of a configuration file."""

    n: int
    lagrangian: str | None = None
    hamiltonian: str | None = None
    frame: tuple[str, ...] | None = None
    transforms: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    metric: tuple[tuple[str, ...], ...] | None = None
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    integrator: IntegratorConfig | None = None
    initial: InitialConfig = field(default_factory=InitialConfig)
    symmetry: SymmetryConfig | None = None
    bracket: BracketConfig | None = None
    relativity: RelativityConfig | None = None


def _line_map(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) pairs to 1-based line numbers for error reports."""
    lines: dict[tuple[str, str], int] = {}
    section = ""
    for number, raw in enumerate(text.splitlines(), start=1):
        header = _SECTION_LINE.match(raw)
        if header:
            section = header.group(1).strip()
            lines[(section, "")] = number
            continue
        key = _KEY_LINE.match(raw)
        if key:
            lines.setdefault((section, key.group(1)), number)
    return lines


class _Reader:
    """One section's raw values plus line-aware error helpers."""

    def __init__(self, name: str, values: Mapping[str, str], lines, known: set[str]):
        self.name = name
        self.values = dict(values)
        self.lines = lines
        for key in self.values:
            if key not in known:
                raise ConfigError(
                    f"unknown key '{key}' in [{name}]", lines.get((name, key))
                )

    def line(self, key: str) -> int | None:
        return self.lines.get((self.name, key))

    def fail(self, key: str, message: str) -> ConfigError:
        return ConfigError(f"{self.name}.{key} {message}", self.line(key))

    def integer(self, key: str, default=None):
        if key not in self.values:
            return default
        raw = self.values[key].strip()
        try:
            return int(raw)
        except ValueError:
            raise self.fail(key, f"must be an integer, got {raw!r}") from None

    def number(self, key: str, default=None):
        if key not in self.values:
            return default
        raw = self.values[key].strip()
        try:
            value = float(raw)
        except ValueError:
            raise self.fail(key, f"must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise self.fail(key, f"must be finite, got {raw!r}")
        return value

    def string(self, key: str, default=None):
        if key not in self.values:
            return default
        return self._unquote(key, self.values[key].strip())

    def expression(self, key: str, default=None):
        if key not in self.values:
            return default
        return _checked_expression(self._unquote(key, self.values[key].strip()), self, key)

    def _unquote(self, key: str, raw: str) -> str:
        if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"' and '"' not in raw[1:-1]:
            return raw[1:-1]
        raise self.fail(key, f"must be a quoted string, got {raw!r}")

    def items(self, key: str, default=None):
        if key not in self.values:
            return default
        raw = self.values[key].strip()
        if not (raw.startswith("[") and raw.endswith("]")):
            raise self.fail(key, f"must be a bracketed list, got {raw!r}")
        return _split_items(raw[1:-1])

    def number_list(self, key: str, default=None):
        items = self.items(key)
        if items is None:
            return default
        try:
            values = tuple(float(item) for item in items)
        except ValueError:
            raise self.fail(key, "must be a list of numbers") from None
        if not all(map(math.isfinite, values)):
            raise self.fail(key, f"must be a list of finite numbers, got {values}")
        return values

    def expression_list(self, key: str, default=None):
        items = self.items(key)
        if items is None:
            return default
        out = []
        for item in items:
            text = self._unquote(key, item.strip())
            out.append(_checked_expression(text, self, key))
        return tuple(out)


def _split_items(inner: str) -> list[str]:
    """Split a bracketed list body on commas outside quotes."""
    items, current, quoted = [], [], False
    for ch in inner:
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current)
    if tail.strip() or items:
        items.append(tail)
    return items


def _checked_expression(text: str, reader: _Reader, key: str) -> str:
    try:
        parse_expression(text)
    except ParseError as exc:
        raise reader.fail(key, f"does not parse: {exc}") from None
    return text


def load_config(path) -> SystemConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None

    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if getattr(exc, "errors", None) else None
        raise ConfigError("malformed line", line) from None
    except configparser.Error as exc:
        raise ConfigError(
            str(exc).splitlines()[0], getattr(exc, "lineno", None)
        ) from None

    lines = _line_map(text)
    readers: dict[str, _Reader] = {}
    transforms: dict[str, dict[str, str]] = {}
    metric_reader = None
    for section in parser.sections():
        if section.startswith("transform."):
            name = section[len("transform.") :]
            if not name:
                raise ConfigError(
                    "transform section needs a name", lines.get((section, ""))
                )
            transforms[name] = dict(parser[section])
            continue
        if section == "metric":
            metric_reader = _Reader(
                section,
                parser[section],
                lines,
                {f"row{i}" for i in range(len(parser[section]))},
            )
            continue
        if section not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown section [{section}]", lines.get((section, ""))
            )
        readers[section] = _Reader(section, parser[section], lines, _KNOWN_KEYS[section])

    def reader(name: str) -> _Reader:
        return readers.get(name) or _Reader(name, {}, lines, _KNOWN_KEYS[name])

    system = reader("system")
    n = system.integer("n")
    if n is None or n < 1:
        raise ConfigError(
            "system.n must be a positive integer", system.line("n")
        )

    sampling = reader("sampling")
    integrator = None
    if "integrator" in readers:
        src = readers["integrator"]
        dt = src.number("dt")
        t_end = src.number("t_end")
        if dt is None or t_end is None:
            raise ConfigError(
                "integrator needs both dt and t_end", lines.get(("integrator", ""))
            )
        if dt <= 0:
            raise src.fail("dt", "must be positive")
        integrator = IntegratorConfig(dt, src.number("t0", 0.0), t_end)

    initial_src = reader("initial")
    initial = InitialConfig(
        initial_src.number_list("y"),
        initial_src.number_list("v"),
        initial_src.number_list("p"),
    )
    for key in ("y", "v", "p"):
        vector = getattr(initial, key)
        if vector is not None and len(vector) != n:
            raise initial_src.fail(key, f"must have {n} entries, got {len(vector)}")

    symmetry = None
    if "symmetry" in readers:
        src = readers["symmetry"]
        u = src.expression_list("u")
        if u is None:
            raise ConfigError("symmetry needs u", lines.get(("symmetry", "")))
        if len(u) != n:
            raise src.fail("u", f"must have {n} components, got {len(u)}")
        symmetry = SymmetryConfig(src.number("u_t", 0.0), u)

    frame = None
    if "frame" in readers:
        src = readers["frame"]
        frame = src.expression_list("components")
        if frame is None:
            raise ConfigError(
                "frame needs components", lines.get(("frame", ""))
            )
        if len(frame) != n:
            raise src.fail("components", f"must have {n} components, got {len(frame)}")

    bracket = None
    if "bracket" in readers:
        src = readers["bracket"]
        f = src.expression("f")
        g = src.expression("g")
        if f is None or g is None:
            raise ConfigError(
                "bracket needs both f and g", lines.get(("bracket", ""))
            )
        space = src.string("space", "vertical")
        if space not in ("vertical", "homogeneous", "lagrangian"):
            raise src.fail("space", "must be vertical, homogeneous or lagrangian")
        bracket = BracketConfig(f, g, space)

    relativity = None
    if "relativity" in readers:
        src = readers["relativity"]
        maps = src.expression_list("maps")
        z = src.number_list("z", ())
        v = src.number_list("v", ())
        if maps is None:
            raise ConfigError(
                "relativity needs maps", lines.get(("relativity", ""))
            )
        if len(maps) != len(z) + 1 or len(z) != len(v):
            raise src.fail("maps", "must have one more entry than z and v")
        branch = src.integer("branch", 1)
        if branch not in (1, -1):
            raise src.fail("branch", "must be 1 or -1")
        relativity = RelativityConfig(maps, src.number("z0", 0.0), z, v, branch)

    metric = None
    if metric_reader is not None:
        rows = []
        size = len(metric_reader.values)
        for i in range(size):
            row = metric_reader.expression_list(f"row{i}")
            if row is None:
                raise ConfigError(
                    f"metric.row{i} is missing", lines.get(("metric", ""))
                )
            if len(row) != size - i:
                raise metric_reader.fail(
                    f"row{i}", f"must have {size - i} entries (upper triangle)"
                )
            rows.append(row)
        metric = tuple(rows)

    checked_transforms: dict[str, dict[str, str]] = {}
    for name, entries in transforms.items():
        section = f"transform.{name}"
        src = _Reader(section, entries, lines, set(entries))
        checked_transforms[name] = {
            key: src.expression(key) for key in entries
        }

    lagrangian = system.expression("lagrangian")
    hamiltonian = system.expression("hamiltonian")
    seed = sampling.integer("seed", DEFAULT_SEED)
    if seed < 0:
        raise sampling.fail("seed", f"must be non-negative, got {seed}")

    return SystemConfig(
        n=n,
        lagrangian=lagrangian,
        hamiltonian=hamiltonian,
        frame=frame,
        transforms=checked_transforms,
        metric=metric,
        seed=seed,
        samples=sampling.integer("samples", DEFAULT_SAMPLES),
        integrator=integrator,
        initial=initial,
        symmetry=symmetry,
        bracket=bracket,
        relativity=relativity,
    )
