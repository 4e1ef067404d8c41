"""Spans around tdmech's public functions, recorded from outside the library.

``install`` rebinds each function of ``LAYERS`` on every ``tdmech.*`` module
that holds it (``tdmech.lagrange.value_gradient_hessian`` is the same object
as ``tdmech.expr.value_gradient_hessian``) and on the classes named with a
dot.  Spans are kept in memory while a task runs and written out at the end.
A name that a later version no longer has, or no longer calls through, simply
records no spans: that layer then reads ``calls = 0``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (layer, module, attribute); "Class.method" wraps a method, a tuple of
# those wraps several under one layer name.
LAYERS = (
    ("expr.parse", "tdmech.expr", "parse"),
    ("expr.evaluate", "tdmech.expr", "Expression.evaluate"),
    ("expr.value_gradient", "tdmech.expr", "value_gradient"),
    ("expr.value_gradient_hessian", "tdmech.expr", "value_gradient_hessian"),
    ("linalg.checked_solve", "tdmech.linalg", "checked_solve"),
    ("linalg.checked_inverse", "tdmech.linalg", "checked_inverse"),
    ("linalg.kernel_basis", "tdmech.linalg", "kernel_basis"),
    ("integrate.rk4_path", "tdmech.integrate", "rk4_path"),
    ("integrate.difference_quotients", "tdmech.integrate", "difference_quotients"),
    (
        "bundle.points",
        "tdmech.bundle",
        (
            "JetPoint.__init__",
            "SecondJetPoint.__init__",
            "RepeatedJetPoint.__init__",
            "VerticalPhasePoint.__init__",
            "HomogeneousPhasePoint.__init__",
        ),
    ),
    ("currents.weak_identity_residual", "tdmech.currents", "weak_identity_residual"),
    ("constraints.constrained_hamilton_residual", "tdmech.constraints", "constrained_hamilton_residual"),
    ("constraints.association_check", "tdmech.constraints", "association_check"),
    ("constraints.tangency_residual", "tdmech.constraints", "tangency_residual"),
    ("hamilton.canonical_check", "tdmech.hamilton", "canonical_check"),
    ("poisson.bracket_vertical", "tdmech.poisson", "bracket_vertical"),
    ("poisson.bracket_homogeneous", "tdmech.poisson", "bracket_homogeneous"),
    ("poisson.bracket_lagrangian", "tdmech.poisson", "bracket_lagrangian"),
    ("poisson.evolution_derivative", "tdmech.poisson", "evolution_derivative"),
    ("poisson.evolution_derivative_split", "tdmech.poisson", "evolution_derivative_split"),
    ("relativity.transform_jet", "tdmech.relativity", "transform_jet"),
    ("config.load_config", "tdmech.config", "load_config"),
    ("cli.main", "tdmech.cli", "main"),
)
# The right-hand side handed to rk4_path, wrapped per call.
RHS = "integrate.rhs"
TASK = "task"
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS) + (RHS,)
DERIVATIVE_LAYERS = ("expr.value_gradient", "expr.value_gradient_hessian")
LINALG_LAYERS = ("linalg.checked_solve", "linalg.checked_inverse", "linalg.kernel_basis")
STATS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"), ("us_per_call", "us"))


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent, task]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.steps = 0
        self._stack: list[int] = []
        self._task: int | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # Outside a task, or re-entering the same layer: no new span.
            if self._task is None or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self._task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def run_task(self, index: int, fn, *args):
        self._task = index
        try:
            return self.wrap(TASK, fn)(*args)
        finally:
            self._task = None

    def wrap_rk4(self, fn):
        signature = inspect.signature(fn)

        def rk4_path(*args, **kwargs):
            if self._task is not None:
                bound = signature.bind(*args, **kwargs)
                self.steps += int(bound.arguments["n_steps"])
                bound.arguments["rhs"] = self.wrap(RHS, bound.arguments["rhs"])
                args, kwargs = bound.args, bound.kwargs
            return fn(*args, **kwargs)

        return self.wrap("integrate.rk4_path", rk4_path)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent, task) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "task": task}
                    )
                    + "\n"
                )

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total and self milliseconds per layer; self = duration - children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in LAYER_NAMES}
        stats[TASK] = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child[sid]) / 1e6
        for entry in stats.values():
            entry["us_per_call"] = entry["total_ms"] * 1e3 / entry["calls"] if entry["calls"] else 0.0
        return stats


def _resolve(module, attr: str):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, last, None
    return owner, last, owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)


def install(tracer: Tracer) -> list[str]:
    """Rebind every layer; returns the layers found absent."""
    absent = []
    modules = [m for name, m in sys.modules.items() if name == "tdmech" or name.startswith("tdmech.")]
    for layer, module_name, attrs in LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(layer)
            continue
        found = False
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            owner, last, original = _resolve(module, attr)
            if original is None:
                continue
            found = True
            wrapper = tracer.wrap_rk4(original) if layer == "integrate.rk4_path" else tracer.wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, last, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        if not found:
            absent.append(layer)
    return absent


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, named ``<layer>.<stat>``."""
    stats = tracer.layer_stats()
    metrics = {}
    for layer in LAYER_NAMES:
        for stat, unit in STATS:
            metrics[f"{layer}.{stat}"] = (stats[layer][stat], unit)
    metrics["integrate.steps"] = (tracer.steps, "count")
    metrics["expr.derivative_share"] = (
        sum(stats[name]["self_ms"] for name in DERIVATIVE_LAYERS) / 1e3 / traced_s, "ratio"
    )
    metrics["linalg.share"] = (sum(stats[name]["self_ms"] for name in LINALG_LAYERS) / 1e3 / traced_s, "ratio")
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3, "ms")
    return metrics


def report(workload: str, metrics: dict, tasks: int) -> str:
    """A markdown table: one row per layer, then the shares and the overhead."""
    lines = [
        f"### {workload}: traced pass over {tasks} tasks",
        "",
        "| layer | calls | calls/task | total_ms | self_ms | us_per_call |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for layer in LAYER_NAMES:
        calls = metrics[f"{layer}.calls"][0]
        lines.append(
            f"| {layer} | {calls} | {calls / tasks:.1f} | {metrics[f'{layer}.total_ms'][0]:.2f}"
            f" | {metrics[f'{layer}.self_ms'][0]:.2f} | {metrics[f'{layer}.us_per_call'][0]:.2f} |"
        )
    lines.append("")
    for name in sorted(metrics):
        if not any(name == f"{layer}.{stat}" for layer in LAYER_NAMES for stat, _ in STATS):
            value, unit = metrics[name]
            lines.append(f"- {name} = {value:.6g} {unit}")
    return "\n".join(lines) + "\n"
