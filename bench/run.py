"""Run one seeded workload of the tdmech benchmark against this checkout's sources.

    python3 bench/run.py --workload lagrange-flow --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times tasks for ``--seconds`` of task time (at least
``MIN_TASKS`` tasks) and prints the end-to-end metrics, scaled to a
reference host speed by the calibration of ``hostspeed.py``.  With ``--trace 1``
it runs a fixed number of tasks twice, untraced and then traced, and prints
the per-layer metrics; the span dump and a report table go to
``.bench_out/``.  Either way every output is checked, the last line of
standard output is one JSON object, and the exit code is 0 only when every
task was correct (1 otherwise, 2 when the benchmark cannot run at all).
``--tasks N`` fixes the task count, for quick self-checks.

The benchmark runs in one process with one thread; the set-up probes run in
fresh child interpreters, one at a time.  See README.md in this directory.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TASKS = 100  # so that p90 has at least ten tasks beyond it
SETUP_PROBES = 10  # spread over the timed run, so one slow phase cannot move them all
CHECK_BATCH = 256
TRACE_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _import_times(stderr: str) -> dict:
    """Cumulative ms of the top-level tdmech imports and of scipy.linalg."""
    tdmech_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, field = int(parts[1]), parts[2]
        name, depth = field.strip(), len(field) - len(field.lstrip())
        if depth == 1 and (name == "tdmech" or name.startswith("tdmech.")):
            tdmech_us += cumulative
        if name == "scipy.linalg" and not scipy_us:
            scipy_us = cumulative
    return {"import_ms": tdmech_us / 1e3, "import_scipy_ms": scipy_us / 1e3}


def probe_setup(name: str, seed: int, work_dir: Path, importtime: bool) -> dict:
    """One fresh interpreter: ``import tdmech.cli`` plus the workload's preparation."""
    command = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(BENCH / "probe.py"), name, str(seed), str(work_dir / "probe")]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {"setup_s": result["imported"] - spawned + result["prepare_s"]}
    if importtime:
        out.update(_import_times(proc.stderr))
    return out


@dataclass
class Pass:
    """What one measured pass leaves: its timings and the verdicts on its outputs."""

    durations: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    wrong: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    bytes_written: int = 0


def measure(workload, *, seconds=None, tasks=None, tag="run", tracer=None, between=None,
            calibrate=False) -> Pass:
    """Run whole rounds of tasks until the task time reaches ``seconds`` and
    enough tasks ran, or until ``tasks`` tasks ran.

    Outputs are checked in batches between rounds, so the benchmark's own
    memory does not grow with the number of tasks.  ``between(busy)`` is
    called before each round, and with ``calibrate`` the host-speed kernel
    runs after each task; none of these is part of the timed task calls.
    """
    result, pending = Pass(), []
    busy = 0.0
    gc.collect()
    while True:
        if between is not None:
            between(busy)
        for _ in range(workload.round_size):
            index = len(result.durations)
            task = workload.make_input(index, tag)
            output = error = None
            start = time.perf_counter()
            try:
                output = tracer.run_task(index, workload.run, task) if tracer else workload.run(task)
            except Exception:  # a failing task is counted, not fatal
                error = traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - start
            result.durations.append(elapsed)
            result.starts.append(start)
            busy += elapsed
            if calibrate:
                result.calibrations.append(hostspeed.timed_kernel())
            record = workload.record(index, task, output, error)
            result.bytes_written += record.get("bytes", 0)
            if tracer is not None or tag == "untraced":
                result.digests.append(record["digest"])
            pending.append(record)
        if len(pending) >= CHECK_BATCH:
            result.wrong.update(workload.check(pending))
            pending = []
        done = len(result.durations)
        if (done >= tasks) if tasks is not None else (busy >= seconds and done >= MIN_TASKS):
            break
    result.wrong.update(workload.check(pending))
    return result


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_metadata(args, numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_values(durations: list, setups: list) -> dict:
    ms = [d * 1e3 for d in durations]
    return {
        "tasks_per_s": len(durations) / sum(durations),
        "task_p50_ms": percentile(ms, 0.5),
        "task_p90_ms": percentile(ms, 0.9),
        "setup_s": statistics.median(setups),
    }


def timed_run(args, workload, work_dir: Path):
    probes = []

    def probe(busy: float) -> None:
        if len(probes) < SETUP_PROBES and busy >= len(probes) * args.seconds / SETUP_PROBES:
            result, factor = hostspeed.probe_factor(
                lambda: probe_setup(args.workload, args.seed, work_dir, False))
            probes.append(dict(result, speed_factor=factor))

    workload.prepare()
    run = measure(workload, seconds=args.seconds, tasks=args.tasks, between=probe, calibrate=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probe(math.inf)
    bad = {f"task#{index}": reason for index, reason in sorted(run.wrong.items())}
    factors = hostspeed.local_factors([s + d / 2 for s, d in zip(run.starts, run.durations)],
                                      run.calibrations)
    raw = time_values(run.durations, [p["setup_s"] for p in probes])
    values = time_values([d * f for d, f in zip(run.durations, factors)],
                         [p["setup_s"] * p["speed_factor"] for p in probes])
    values["peak_rss_mib"] = peak_rss_mib
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    details = {
        "durations_ms": [d * 1e3 for d in run.durations],
        "task_starts_s": run.starts,
        "calibrations_s": run.calibrations,
        "setup_probes": probes,
        "raw": raw,
    }
    notes = [
        f"{len(run.durations)} tasks, {sum(run.durations):.3f} s of task time",
        f"host speed factor (median, reference kernel {hostspeed.REFERENCE_S * 1e3:g} ms): "
        f"{statistics.median(factors):.4f}",
        "unscaled: " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()),
        "setup_s probes (unscaled): " + ", ".join(f"{p['setup_s']:.4f}" for p in probes),
    ]
    return metrics, len(run.durations), bad, notes, details


def traced_run(args, workload, work_dir: Path):
    import tracing

    probes = [probe_setup(args.workload, args.seed, work_dir, True) for _ in range(TRACE_PROBES)]
    workload.prepare()
    tasks = args.tasks or workload.trace_tasks
    plain = measure(workload, tasks=tasks, tag="untraced")
    tracer = tracing.Tracer()
    absent = tracing.install(tracer)
    traced = measure(workload, tasks=tasks, tag="traced", tracer=tracer)
    bad = {f"untraced#{index}": reason for index, reason in sorted(plain.wrong.items())}
    bad.update({f"traced#{index}": reason for index, reason in sorted(traced.wrong.items())})
    for index, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            bad.setdefault(f"traced#{index}", "traced run gave other outputs than the untraced run")

    metrics = tracing.layer_metrics(tracer, sum(traced.durations), sum(plain.durations))
    metrics["setup.import_ms"] = (statistics.median(p["import_ms"] for p in probes), "ms")
    metrics["setup.import_scipy_ms"] = (statistics.median(p["import_scipy_ms"] for p in probes), "ms")
    metrics["cli.bytes_written"] = (traced.bytes_written, "bytes")

    stem = f"trace-{args.workload}-seed{args.seed}"
    tracer.dump(OUT / f"{stem}.spans.jsonl")
    table = tracing.report(args.workload, metrics, len(traced.durations))
    (OUT / f"{stem}.md").write_text(table, encoding="utf-8")
    notes = [table, f"spans: {len(tracer.spans)} written to .bench_out/{stem}.spans.jsonl"]
    if absent:
        notes.append("absent layers (calls = 0): " + ", ".join(absent))
    details = {
        "untraced_ms": [d * 1e3 for d in plain.durations],
        "traced_ms": [d * 1e3 for d in traced.durations],
        "setup_probes": probes,
        "absent_layers": absent,
    }
    return metrics, len(plain.durations) + len(traced.durations), bad, notes, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=None, help="fixed task count (self-checks)")
    args = parser.parse_args(argv)

    if not (SRC / "tdmech" / "__init__.py").is_file():
        print(f"error: no tdmech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import tdmech

    if Path(tdmech.__file__).resolve().parent != (SRC / "tdmech").resolve():
        print(f"error: imported tdmech from {tdmech.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    meta = run_metadata(args, numpy.__version__)
    workload = workloads.make(args.workload, args.seed, work_dir)
    try:
        runner = traced_run if args.trace else timed_run
        metrics, attempted, bad, notes, details = runner(args, workload, work_dir)
    except Exception:  # set-up or a reference failed: no result can be given
        traceback.print_exc()
        print("error: the benchmark could not run to the end", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_tasks = len(bad)
    print(f"tdmech benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed_tasks / attempted:.6g} ratio ({failed_tasks} of {attempted} tasks wrong)")
    for where, reason in list(bad.items())[:10]:
        print(f"WRONG {where}: {reason.strip()}", file=sys.stderr)

    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed_tasks,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, meta=meta, wrong=bad, **details)
    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
