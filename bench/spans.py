"""In-memory span tracing of uavstream, applied from outside the package.

Each traced function is replaced, in every ``uavstream`` module namespace
that holds a reference to it, by a wrapper that records a span: name, parent
span, start and end.  Rebinding every namespace matters because modules
import these functions by name (``orchestrator`` holds its own references to
``solve_p5``, ``solve_p7``, ``exact_fill_objective`` and ``solve_concave``;
``subproblems`` holds ``rician_cdf_inverse``).  ``solve_concave`` also wraps
the five ``ConcaveProgram`` callbacks of every program it receives.  Phase-I
solves recurse through the module-global ``solve_concave`` and are told apart
by the ``:phase1`` suffix of their program name.

Spans stay in memory; ``layer_metrics`` derives the per-layer numbers from
them once the traced work has finished.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

# (defining module, function name); the span is named after the function.
# A private helper is traced only while it exists, so a refactor that removes
# it leaves the trace working and its metric at zero.
TRACED = (
    ("uavstream.cli", "main"),
    ("uavstream.orchestrator", "run_benchmark"),
    ("uavstream.orchestrator", "run_algorithm1"),
    ("uavstream.subproblems", "solve_p5"),
    ("uavstream.subproblems", "solve_p7"),
    ("uavstream.subproblems", "exact_fill_objective"),
    ("uavstream.convex_core", "solve_concave"),
    ("uavstream.scenario", "generate_scenario"),
    ("uavstream.channel", "rician_cdf_inverse"),
    ("uavstream.convex_core", "_solve_spd"),    # the dense factor and solve
)
CALLBACKS = ("objective", "gradient", "constraints", "constraint_jac", "curvature")

# Fields of one span record.
NAME, PARENT, START, END, CALL = range(5)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "uavstream" or n.startswith("uavstream."))]


class Tracer:
    """Records spans as ``[name, parent index, start, end, call]`` lists.

    ``call`` is ``(args, kwargs, result)`` for the spans whose results feed a
    metric, and ``None`` otherwise (or when the call raised).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.originals = {}

    def wrap(self, name, fn, keep_call=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if keep_call:
                record[CALL] = (args, kwargs, result)
            return result

        return traced

    def _traced_program(self, program):
        callbacks = {cb: self.wrap("cb." + cb, getattr(program, cb))
                     for cb in CALLBACKS if getattr(program, cb) is not None}
        return dataclasses.replace(program, **callbacks)

    def _wrapper_for(self, name, fn):
        if name != "solve_concave":
            return self.wrap(name, fn, keep_call=name in (
                "run_benchmark", "solve_p5", "solve_p7"))
        core = self.wrap(name, fn, keep_call=True)

        @functools.wraps(fn)
        def solve_concave(program, *args, **kwargs):
            return core(self._traced_program(program), *args, **kwargs)

        return solve_concave

    @contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        defining = {m: importlib.import_module(m) for m, _ in TRACED}
        modules = _package_modules()
        swaps = []
        for module_name, name in TRACED:
            original = getattr(defining[module_name], name, None)
            if original is None and name.startswith("_"):
                continue
            self.originals[name] = original
            wrapper = self._wrapper_for(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original in reversed(swaps):
                setattr(module, key, original)

    def export(self):
        """Spans as JSON-ready rows ``[name, parent, start_s, end_s]``,
        times relative to the first span."""
        base = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], s[PARENT], s[START] - base, s[END] - base] for s in self.spans]


def clear_package_caches():
    """Empty every functools cache in the package (the inverse-CDF cache),
    so a traced round pays its cold inversions like a fresh process."""
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _has_ancestor(spans, index, names):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def _gain_ratio(calls, exact_fill_objective, make_link_budget, solve_p5):
    """Share of P5 calls whose returned state has a higher exact objective
    than the start state, both evaluated at the call's placement."""
    if not calls:
        return 0.0
    signature = inspect.signature(solve_p5)
    gains = 0
    for args, kwargs, state in calls:
        bound = signature.bind(*args, **kwargs).arguments
        scenario, start = bound["scenario"], bound["start"]
        budget = bound.get("budget") or make_link_budget(scenario.config)
        before, _ = exact_fill_objective(scenario, budget, start.x, start.p_user,
                                         start.p_obs, start.p_relay, bound["placement"])
        after, _ = exact_fill_objective(scenario, budget, state.x, state.p_user,
                                        state.p_obs, state.p_relay, state.placement)
        gains += after > before
    return gains / len(calls)


def layer_metrics(tracer):
    """Per-layer counts and times of the spans recorded by ``tracer``.

    The P5 gain ratio re-evaluates the exact objective, after the fact, with
    the untraced functions.
    """
    from uavstream.subproblems import make_link_budget

    spans = tracer.spans
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= duration[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name, times=duration):
        return sum(times[i] for i in by_name.get(name, ()))

    def results(name):
        return [spans[i][CALL] for i in by_name.get(name, ()) if spans[i][CALL] is not None]

    cells = results("run_benchmark")
    p7 = results("solve_p7")
    solves = results("solve_concave")
    reports = [r for _, _, r in solves]
    programs = [a[0] for a, _, _ in solves]
    newton_steps = sum(r.barrier_iterations for r in reports)
    outer_solves = [i for i in by_name.get("solve_concave", ())
                    if not _has_ancestor(spans, i, {"solve_concave"})]
    solve_s = sum(duration[i] for i in outer_solves)
    outer_callbacks = [i for i, s in enumerate(spans)
                       if s[NAME].startswith("cb.")
                       and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("cb."))]
    callback_s = sum(duration[i] for i in outer_callbacks)

    def outer_calls(callback):
        return sum(1 for i in outer_callbacks if spans[i][NAME] == "cb." + callback)

    return {
        "cli.sweep_s": total("main"),
        "cli.self_s": total("main", self_time),
        "orchestrator.cells": count("run_benchmark"),
        "orchestrator.bcd_iters": sum(r.iterations for _, _, r in cells),
        "orchestrator.unconverged": sum(not r.converged for _, _, r in cells),
        "orchestrator.self_s": total("run_benchmark", self_time)
        + total("run_algorithm1", self_time),
        "subproblems.p5_calls": count("solve_p5"),
        "subproblems.p5_s": total("solve_p5"),
        "subproblems.p5_self_s": total("solve_p5", self_time),
        "subproblems.p5_gain_ratio": _gain_ratio(
            results("solve_p5"), tracer.originals["exact_fill_objective"], make_link_budget,
            tracer.originals["solve_p5"]),
        "subproblems.p7_calls": count("solve_p7"),
        "subproblems.p7_s": total("solve_p7"),
        "subproblems.p7_self_s": total("solve_p7", self_time),
        "subproblems.p7_stall_ratio": (sum(r.stalled for _, _, r in p7) / len(p7)) if p7 else 0.0,
        "subproblems.fill_calls": count("exact_fill_objective"),
        "subproblems.fill_s": total("exact_fill_objective"),
        "convex_core.solves": count("solve_concave"),
        "convex_core.phase1_solves": sum(p.name.endswith(":phase1") for p in programs),
        "convex_core.newton_steps": newton_steps,
        "convex_core.steps_per_solve": newton_steps / len(reports) if reports else 0.0,
        "convex_core.max_n": max((p.n for p in programs), default=0),
        "convex_core.max_iters": sum(r.status == "max_iters" for r in reports),
        "convex_core.infeasible": sum(r.status == "infeasible" for r in reports),
        "convex_core.solve_s": solve_s,
        "convex_core.callback_s": callback_s,
        "convex_core.self_s": solve_s - callback_s,
        "convex_core.factor_s": total("_solve_spd"),
        "convex_core.curvature_calls": outer_calls("curvature"),
        "convex_core.constraint_evals": outer_calls("constraints"),
        "convex_core.jac_evals": outer_calls("constraint_jac"),
        "channel.inverse_cdf_calls": count("rician_cdf_inverse"),
        "channel.inverse_cdf_s": total("rician_cdf_inverse"),
        "scenario.generate_s": total("generate_scenario"),
        "trace.spans": len(spans),
    }


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return {"convex_core.steps_per_solve": "steps/solve",
            "convex_core.max_n": "vars"}.get(metric, "count")


def median_metrics(rounds):
    """Combine the metrics of several traced rounds of the same inputs:
    the median of each timing, the last value of each count."""
    combined = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        combined[key] = statistics.median(values) if isinstance(values[0], float) else values[-1]
    return combined
