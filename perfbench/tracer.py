"""Span tracing of gridsec from outside the program.

A ``Tracer`` wraps the public functions listed in ``TARGETS`` and rebinds
every ``gridsec`` module attribute that refers to the original, so calls
made through names imported with ``from .x import f`` are seen as well as
calls through the defining module. Each call records one span: name,
start, end, parent span and a few figures read from the result. Spans stay
in memory; ``layer_metrics`` turns them into per-layer figures.

Nothing in ``src/gridsec`` is changed. Install a tracer after the
modules to trace are imported; targets whose module is not imported are
skipped.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path). The span name is the module name without the
# package prefix, a dot, and the attribute path.
TARGETS: tuple[tuple[str, str], ...] = (
    ("gridsec.network", "admittance"),
    ("gridsec.powerflow", "solve"),
    ("gridsec.powerflow", "bus_power"),
    ("gridsec.estimation", "wls_estimate_ac"),
    ("gridsec.estimation", "normalized_residuals"),
    ("gridsec.estimation", "iterative_bad_data_removal"),
    ("gridsec.attacks", "sweep_stealth_range"),
    ("gridsec.detection", "extract_features"),
    ("gridsec.detection", "BaselineStats.mahalanobis"),
    ("gridsec.detection", "rule_battery"),
    ("gridsec.detection", "analyze_record_islands"),
    ("gridsec.detection", "classify"),
    ("gridsec.detection", "fit_baseline"),
    ("gridsec.pipeline", "run_pipeline"),
    ("gridsec.stats", "chi_square_threshold"),
    ("gridsec.records", "GridRecord.snapshot"),
    ("gridsec.records", "GridRecord.load"),
    ("gridsec.scenarios", "generate_all"),
    ("gridsec.som", "parse_segments"),
    ("gridsec.som", "generate_constraints"),
    ("gridsec.som", "solve_arrangement"),
    ("gridsec.som", "verify_arrangement"),
    ("gridsec.som", "diff_against_reference"),
    ("gridsec.cli", "main"),
)

MODULES = (
    "network", "powerflow", "estimation", "attacks", "detection", "pipeline",
    "stats", "records", "scenarios", "som", "cli",
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


def _result_attrs(name: str, result) -> dict | None:
    """Work counts the caller can read off a result without recomputing."""
    if name == "estimation.wls_estimate_ac":
        return {"iterations": result.iterations, "converged": result.converged}
    if name == "powerflow.solve":
        return {"iterations": result.iterations}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict | None = None  # None also when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Installs span-recording wrappers into the imported gridsec modules.

    Use as a context manager, or call ``install``/``uninstall``; a tracer
    can be installed again, and its spans accumulate. Targets whose module
    is not imported at the first install are skipped, so a traced process
    only imports what the untraced one would.
    """

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    # (owner, attribute, original, wrapper), found at the first install
    _patches: list[tuple[object, str, object, object]] | None = None
    _installed: bool = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)
        self._installed = False

    def _plan(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapper = self._wrap(raw, name)
                patches.append((cls, meth, raw, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gridsec" or mod_name.startswith("gridsec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.attrs = _result_attrs(name, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]


def spans_from_json(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]


# Names and units of every per-layer metric; ``layer_metrics`` fills them.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("network.admittance.calls", "count"),
    ("network.admittance.ms", "ms"),
    ("powerflow.solve.calls", "count"),
    ("powerflow.solve.ms_p50", "ms"),
    ("powerflow.solve.nr_iterations", "count"),
    ("powerflow.bus_power.calls", "count"),
    ("estimation.wls_estimate_ac.calls", "count"),
    ("estimation.wls_estimate_ac.ms_p50", "ms"),
    ("estimation.wls_estimate_ac.self_ms", "ms"),
    ("estimation.wls_estimate_ac.gn_iterations_mean", "count"),
    ("estimation.wls_estimate_ac.ms_per_iteration", "ms"),
    ("estimation.wls_estimate_ac.converged_frac", "fraction"),
    ("estimation.normalized_residuals.calls", "count"),
    ("estimation.normalized_residuals.ms", "ms"),
    ("estimation.iterative_bad_data_removal.reestimates_mean", "count"),
    ("attacks.sweep_stealth_range.ms_p50", "ms"),
    ("attacks.sweep_stealth_range.self_ms", "ms"),
    ("detection.extract_features.ms", "ms"),
    ("detection.BaselineStats.mahalanobis.ms", "ms"),
    ("detection.rule_battery.ms", "ms"),
    ("detection.analyze_record_islands.ms", "ms"),
    ("detection.classify.ms", "ms"),
    ("detection.fit_baseline.ms", "ms"),
    ("pipeline.run_pipeline.ms_p50", "ms"),
    ("pipeline.run_pipeline.self_ms", "ms"),
    ("pipeline.run_pipeline.recompute_frac", "fraction"),
    ("pipeline.run_pipeline.ms_p50_reestimated", "ms"),
    ("pipeline.run_pipeline.ms_p50_stored_chi2", "ms"),
    ("stats.chi_square_threshold.calls", "count"),
    ("stats.chi_square_threshold.ms", "ms"),
    ("records.GridRecord.snapshot.calls", "count"),
    ("records.GridRecord.snapshot.ms", "ms"),
    ("records.GridRecord.load.ms", "ms"),
    ("scenarios.generate_all.ms", "ms"),
    ("som.parse_segments.ms", "ms"),
    ("som.generate_constraints.ms", "ms"),
    ("som.solve_arrangement.ms", "ms"),
    ("som.verify_arrangement.ms", "ms"),
    ("som.diff_against_reference.ms", "ms"),
    ("cli.main.ms_p50", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
) + tuple((f"{m}.self_ms", "ms") for m in MODULES) + (
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_ms(values: list[float]) -> float:
    return _ms(statistics.median(values)) if values else 0.0


def merge(span_lists: list[list[Span]]) -> list[Span]:
    """Concatenate span lists recorded apart, keeping parent links."""
    out: list[Span] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            parent = s.parent + base if s.parent >= 0 else -1
            out.append(Span(s.name, s.start, s.end, parent, s.attrs))
    return out


def layer_metrics(spans: list[Span], unit_start: int, unit_wall_s: float) -> dict[str, float]:
    """Per-layer figures for spans recorded over one set-up plus one unit
    of work. ``spans[unit_start:]`` belong to the unit, which took
    ``unit_wall_s`` seconds.

    ``.calls``, ``.ms`` and ``.self_ms`` are totals over all the spans;
    ``.ms_p50`` is the median of single calls, inclusive of children.
    Every metric is returned; one whose function the workload never calls
    reads 0 (no calls, no time).
    ``trace.coverage_frac`` is the self time of the unit's spans divided by
    the unit's wall time. The caller adds the figures not read from spans
    (``cli.interpreter_ms``, ``cli.import_ms``, ``trace.overhead_frac``).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    def calls(name: str) -> float:
        return float(len(idx(name)))

    def total_ms(name: str) -> float:
        return _ms(sum(spans[i].duration for i in idx(name)))

    def self_ms(name: str) -> float:
        return _ms(sum(selfs[i] for i in idx(name)))

    def p50(name: str) -> float:
        return _median_ms([spans[i].duration for i in idx(name)])

    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)

    def has_child(i: int, name: str) -> bool:
        return any(spans[c].name == name for c in children.get(i, ()))

    wls = [spans[i] for i in idx("estimation.wls_estimate_ac")]
    wls_ok = [s for s in wls if s.attrs is not None]
    wls_iters = sum(s.attrs["iterations"] for s in wls_ok)
    nr = [spans[i] for i in idx("powerflow.solve") if spans[i].attrs is not None]
    bdd = idx("estimation.iterative_bad_data_removal")
    pipe = idx("pipeline.run_pipeline")
    pipe_reest = [i for i in pipe if has_child(i, "estimation.wls_estimate_ac")]
    pipe_stored = [i for i in pipe if not has_child(i, "estimation.wls_estimate_ac")]

    out = {
        "network.admittance.calls": calls("network.admittance"),
        "network.admittance.ms": total_ms("network.admittance"),
        "powerflow.solve.calls": calls("powerflow.solve"),
        "powerflow.solve.ms_p50": p50("powerflow.solve"),
        "powerflow.solve.nr_iterations": (
            statistics.fmean(s.attrs["iterations"] for s in nr) if nr else 0.0
        ),
        "powerflow.bus_power.calls": calls("powerflow.bus_power"),
        "estimation.wls_estimate_ac.calls": float(len(wls)),
        "estimation.wls_estimate_ac.ms_p50": p50("estimation.wls_estimate_ac"),
        "estimation.wls_estimate_ac.self_ms": self_ms("estimation.wls_estimate_ac"),
        "estimation.wls_estimate_ac.gn_iterations_mean": (
            wls_iters / len(wls_ok) if wls_ok else 0.0
        ),
        "estimation.wls_estimate_ac.ms_per_iteration": (
            _ms(sum(s.duration for s in wls_ok)) / wls_iters if wls_iters else 0.0
        ),
        "estimation.wls_estimate_ac.converged_frac": (
            sum(1 for s in wls_ok if s.attrs["converged"]) / len(wls) if wls else 0.0
        ),
        "estimation.normalized_residuals.calls": calls("estimation.normalized_residuals"),
        "estimation.normalized_residuals.ms": total_ms("estimation.normalized_residuals"),
        "estimation.iterative_bad_data_removal.reestimates_mean": (
            statistics.fmean(
                sum(1 for c in children.get(i, ()) if spans[c].name == "estimation.wls_estimate_ac")
                for i in bdd
            )
            if bdd
            else 0.0
        ),
        "attacks.sweep_stealth_range.ms_p50": p50("attacks.sweep_stealth_range"),
        "attacks.sweep_stealth_range.self_ms": self_ms("attacks.sweep_stealth_range"),
        "detection.extract_features.ms": total_ms("detection.extract_features"),
        "detection.BaselineStats.mahalanobis.ms": total_ms("detection.BaselineStats.mahalanobis"),
        "detection.rule_battery.ms": total_ms("detection.rule_battery"),
        "detection.analyze_record_islands.ms": total_ms("detection.analyze_record_islands"),
        "detection.classify.ms": total_ms("detection.classify"),
        "detection.fit_baseline.ms": total_ms("detection.fit_baseline"),
        "pipeline.run_pipeline.ms_p50": p50("pipeline.run_pipeline"),
        "pipeline.run_pipeline.self_ms": self_ms("pipeline.run_pipeline"),
        "pipeline.run_pipeline.recompute_frac": len(pipe_reest) / len(pipe) if pipe else 0.0,
        "pipeline.run_pipeline.ms_p50_reestimated": _median_ms(
            [spans[i].duration for i in pipe_reest]
        ),
        "pipeline.run_pipeline.ms_p50_stored_chi2": _median_ms(
            [spans[i].duration for i in pipe_stored]
        ),
        "stats.chi_square_threshold.calls": calls("stats.chi_square_threshold"),
        "stats.chi_square_threshold.ms": total_ms("stats.chi_square_threshold"),
        "records.GridRecord.snapshot.calls": calls("records.GridRecord.snapshot"),
        "records.GridRecord.snapshot.ms": total_ms("records.GridRecord.snapshot"),
        "records.GridRecord.load.ms": total_ms("records.GridRecord.load"),
        "scenarios.generate_all.ms": total_ms("scenarios.generate_all"),
        "som.parse_segments.ms": total_ms("som.parse_segments"),
        "som.generate_constraints.ms": total_ms("som.generate_constraints"),
        "som.solve_arrangement.ms": total_ms("som.solve_arrangement"),
        "som.verify_arrangement.ms": total_ms("som.verify_arrangement"),
        "som.diff_against_reference.ms": total_ms("som.diff_against_reference"),
        "cli.main.ms_p50": p50("cli.main"),
    }
    module_self = dict.fromkeys(MODULES, 0.0)
    for s, st in zip(spans, selfs):
        module_self[s.name.partition(".")[0]] += st
    for m, v in module_self.items():
        out[f"{m}.self_ms"] = _ms(v)
    out["trace.coverage_frac"] = (
        sum(selfs[unit_start:]) / unit_wall_s if unit_wall_s > 0 else 0.0
    )
    return out
