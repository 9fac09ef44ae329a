"""gridsec benchmark runner.

    python3 perfbench/run.py --workload {sweep,detect,bdd,cli,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, from traced calls each paired with an untraced one. The line before it
is a JSON object with the machine, the workload's composition and sample
counts. ``--workload all`` runs every workload in turn at one seed.

Load comes from this one process: operations run one after another, and
the ``cli`` workload waits for each command's interpreter before it starts
the next. No thread environment variable is set; BLAS runs with its
default thread count, as users run it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "detect", "bdd", "cli")

SETUP_SAMPLES = 7  # fresh-process set-ups per run; setup_s is their median
# The calibration kernel's CPU time at reference speed: about its time on
# the 2-vCPU Xeon virtual machine the benchmark was tuned on, so that a
# latency at reference speed reads about as it would there.
CALIB_NOMINAL_S = 0.7e-3
CALIB_WINDOW_S = 1.0  # kernel samples this close to an operation gauge it
CALIB_EVERY_S = 0.05  # one kernel pass per this much operation wall time
PROBE_SAMPLES = 3  # bare-interpreter and import samples in a traced run
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ok_frac", "fraction"),
    ("match_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


class Calibration:
    """A fixed kernel, run between operations, that gauges how fast the
    machine runs at that moment. It is made of what gridsec spends its
    time on, small dense numpy algebra driven from a Python loop, and calls
    nothing of gridsec, so a change to the program leaves it alone.

    A shared virtual machine runs whole stretches of seconds to minutes up
    to about 1.5x slower, or faster; the kernel slows with it. An
    operation's CPU time divided by the median CPU time of the kernel
    passes within ``CALIB_WINDOW_S`` of it, times ``CALIB_NOMINAL_S``, is
    its CPU time at reference speed."""

    STEPS = 20

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).normal(size=(40, 27))
        self.eye = np.eye(27)
        self.samples: list[tuple[float, float]] = []  # (start, CPU time)

    def __call__(self) -> float:
        """One pass; its CPU time."""
        np, x = self.np, self.a
        t0 = time.process_time()
        for _ in range(self.STEPS):
            g = x.T @ x
            np.linalg.solve(g + self.eye, x[:27, 0])
            x = x * 1.0000001
        return time.process_time() - t0

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            self.samples.append((time.perf_counter(), self()))

    def at_reference(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s``, spent between ``start`` and ``end``, at reference
        speed."""
        lo = bisect.bisect_left(self.samples, (start - CALIB_WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + CALIB_WINDOW_S,))
        ref = statistics.median(k for _, k in self.samples[lo:hi])
        return cpu_s / ref * CALIB_NOMINAL_S


_calibration: Calibration | None = None


def calibration() -> Calibration:
    global _calibration
    if _calibration is None:
        _calibration = Calibration()
        for _ in range(10):  # warm caches and numpy's lazy set-up
            _calibration()
    return _calibration


def cpu_s() -> float:
    """CPU time (user and system) so far of this process, all its threads,
    and its ended child processes."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + r.ru_utime + r.ru_stime


def measure_setup(workload: str) -> tuple[float, dict]:
    """``import gridsec`` plus the workload's public set-up calls, run in
    this process; returns the CPU time they took (all threads) and the
    set-up's result. Call it before anything else imports numpy."""
    t0 = time.process_time()
    import gridsec  # noqa: F401

    from workloads import WORKLOADS

    ctx = WORKLOADS[workload][0]()
    return time.process_time() - t0, ctx


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_setup_sample(workload: str) -> float:
    """One set-up in a fresh interpreter: the CPU time it took, as the
    interpreter timed itself, at reference speed (``Calibration``, run in
    that interpreter right after the set-up)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"] / probe["calibration_s"] * CALIB_NOMINAL_S


def interpreter_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas: dict = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_unit(ops, call=None):
    """Run every operation once, back to back, and check each output as
    soon as its operation returns; the checks are not timed. Returns the
    unit's wall time (the sum of the operations' wall times: a closed loop
    with no think time) and one ``Outcome`` per operation. Exceptions are
    recorded, never raised; one the operation does not list in
    ``expected_errors`` also marks its output incorrect.

    An operation is timed by its CPU time, its child processes' included;
    ``latency`` turns that into its latency. CPU time leaves out the
    stretches in which the host holds the process or is slow to wake a
    child's CPU; on this program's single-threaded work it is the wall time
    without them. The calibration kernel runs, untimed, after each
    operation: once, or once per ``CALIB_EVERY_S`` of a long operation."""
    from workloads import Outcome

    cal = calibration()
    cal.sample()
    outcomes = []
    clock = time.perf_counter
    for op in ops:
        cpu0, t0 = cpu_s(), clock()
        try:
            out = call(op) if call else op.call()
        except Exception as exc:  # a failed operation is a counted outcome
            out, error = None, exc
        else:
            error = None
        wall, cpu = clock() - t0, cpu_s() - cpu0
        cal.sample(max(1, min(10, int(wall / CALIB_EVERY_S))))
        timing = {"cpu_s": cpu, "start": t0, "wall_s": wall}
        if error is not None:
            outcomes.append(Outcome(op.kind, **timing, error=f"{type(error).__name__}: {error}",
                                    correct=isinstance(error, op.expected_errors)))
            continue
        try:
            correct, matched = op.judge(out)
        except Exception as exc:  # a check that cannot read the output fails it
            outcomes.append(Outcome(op.kind, **timing, error=f"check: {type(exc).__name__}: {exc}",
                                    correct=False))
            continue
        outcomes.append(Outcome(op.kind, **timing, correct=correct, matched=matched))
    return sum(o.wall_s for o in outcomes), outcomes


def latency(o) -> float:
    """An operation's latency: its CPU time at reference speed
    (``Calibration``). Call it once the run is over, so that the kernel
    passes after the operation are in."""
    return calibration().at_reference(o.cpu_s, o.start, o.start + o.wall_s)


def run_for(ops, seconds: float) -> tuple[list[float], list]:
    """Whole units of work while another one fits in ``seconds`` (at least
    one). Returns each unit's wall time and all outcomes, unit after unit."""
    walls, outcomes = [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= t_end:
        wall, unit = run_unit(ops)
        walls.append(wall)
        outcomes += unit
    return walls, outcomes


def op_latencies(outcomes: list, n_ops: int) -> list[float]:
    """Each operation's latency (``latency``): the median over the run's
    repeats of it."""
    per_op = [[] for _ in range(n_ops)]
    for i, o in enumerate(outcomes):
        per_op[i % n_ops].append(latency(o))
    return [statistics.median(v) for v in per_op]


def group_p50_ms(ops, latencies: list[float]) -> dict[str, float]:
    """Median latency of the operations of each group, if they have one."""
    groups: dict[str, list[float]] = {}
    for op, lat in zip(ops, latencies):
        if op.group is not None:
            groups.setdefault(op.group, []).append(lat)
    return {g: statistics.median(v) * 1e3 for g, v in sorted(groups.items())}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(outcomes: list) -> dict:
    attempted = len(outcomes)
    errors: dict[str, int] = {}
    by_kind: dict[str, dict[str, int]] = {}
    for o in outcomes:
        k = by_kind.setdefault(o.kind, {"attempted": 0, "ok": 0, "failed": 0, "matched": 0})
        k["attempted"] += 1
        k["ok"] += o.ok
        k["failed"] += o.failed
        k["matched"] += o.matched
        if o.error:
            key = o.error.split(":", 1)[0]
            errors[key] = errors.get(key, 0) + 1
        elif not o.correct:
            errors["wrong output"] = errors.get("wrong output", 0) + 1
    return {
        "correct": all(o.correct for o in outcomes),
        "attempted": attempted,
        "failed": sum(o.failed for o in outcomes),
        "ok": sum(o.ok for o in outcomes),
        "matched": sum(o.matched for o in outcomes),
        "errors": errors,
        "by_kind": by_kind,
    }


def run_traced_for(workload: str, ops, seconds: float, work: Path | None):
    """Each operation untraced and then traced, back to back, so that both
    meet the machine in the same state; whole units while another fits in
    ``seconds`` (at least one). The tracer also records one traced set-up
    before the first unit. Returns the untraced unit times, the untraced
    and the traced outcomes, and the per-layer input: the spans of the
    set-up and the first traced unit, the index of the unit's first span
    and the unit's traced wall time."""
    import tracer
    from workloads import WORKLOADS

    t = tracer.Tracer()
    span_files: list[Path] = []
    if workload == "cli":
        # Each command's interpreter traces itself and writes its spans.
        def traced_call(op):
            path = work / f"spans-{len(span_files)}.json"
            span_files.append(path)
            return op.call(spans=path)
    else:
        traced_call = None
        with t:
            WORKLOADS[workload][0]()
    unit_start = len(t.spans)

    walls, outcomes, traced_outcomes = [], [], []
    first_unit_end = None
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() + 2 * walls[-1] <= t_end:
        wall = 0.0
        for op in ops:
            _, plain = run_unit([op])
            if traced_call is None:
                # Installed around the check too: the check follows the
                # untraced call, whose re-solves (sweep) it already cached.
                with t:
                    _, traced = run_unit([op])
            else:
                _, traced = run_unit([op], traced_call)
            wall += plain[0].wall_s
            outcomes += plain
            traced_outcomes += traced
        walls.append(wall)
        if first_unit_end is None:
            first_unit_end = (len(t.spans), len(span_files))

    n = len(ops)
    traced_wall = sum(o.wall_s for o in traced_outcomes[:n])
    if traced_call is None:
        spans = t.spans[:first_unit_end[0]]
    else:
        spans = tracer.merge([tracer.spans_from_json(json.loads(p.read_text()))
                              for p in span_files[:first_unit_end[1]] if p.exists()])
    return walls, outcomes, traced_outcomes, (spans, unit_start, traced_wall)


def run_workload(args) -> int:
    workload = args.workload
    _, ctx = measure_setup(workload)
    setup_samples = [] if args.trace else [fresh_setup_sample(workload) for _ in range(SETUP_SAMPLES)]

    from workloads import WORKLOADS

    work = None
    if workload == "cli":
        work = HERE / ".work" / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        ctx["work"] = work
    try:
        inputs = WORKLOADS[workload][1](args.seed, ctx)
        if args.trace:
            walls, outcomes, traced, first = run_traced_for(workload, inputs.ops, args.seconds, work)
            latencies = op_latencies(outcomes, len(inputs.ops))
            traced_latencies = op_latencies(traced, len(inputs.ops))
            outcomes += traced
        else:
            walls, outcomes = run_for(inputs.ops, args.seconds)
            latencies = op_latencies(outcomes, len(inputs.ops))
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    summary = summarize(outcomes)
    if args.trace:
        import tracer

        values = tracer.layer_metrics(*first)
        values["cli.interpreter_ms"] = interpreter_ms("pass")
        values["cli.import_ms"] = interpreter_ms("import gridsec") - values["cli.interpreter_ms"]
        values["trace.overhead_frac"] = sum(traced_latencies) / sum(latencies) - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.LAYER_METRICS}
    else:
        attempted = summary["attempted"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "unit_s": sum(latencies),
            "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": percentile(latencies, 90) * 1e3,
            "ok_frac": summary["ok"] / attempted,
            "match_frac": summary["matched"] / attempted,
            "peak_rss_mb": peak_rss_mb(children=workload == "cli"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    detail = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "composition": inputs.composition,
        "samples": {
            "operations": len(latencies),
            "attempted": summary["attempted"],
            "units": len(walls),
            "setup": len(setup_samples),
            "beyond_p90": len(latencies) - int(0.9 * len(latencies)),
        },
        "p50_ms_by_group": group_p50_ms(inputs.ops, latencies),
        "setup_samples_s": setup_samples,
        "calibration_ms_p50": statistics.median(k for _, k in calibration().samples) * 1e3,
        "unit_wall_s": walls,
        "errors": summary["errors"],
        "by_kind": summary["by_kind"],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload at one seed, each in its own process."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in results[workload]["metrics"].items():
            print(f"{workload:7s} {name:55s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "gridsec" / "__init__.py").is_file():
        print(f"error: no gridsec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        seconds, _ = measure_setup(args.probe_setup)
        cal = calibration()
        print(json.dumps({"setup_s": seconds, "calibration_s": statistics.median(cal() for _ in range(30))}))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
