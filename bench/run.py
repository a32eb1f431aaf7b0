#!/usr/bin/env python3
"""uavstream benchmark: closed-loop scheme runs on generated scenarios.

    python3 bench/run.py --workload joint_u100 --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

A cell is one scheme run on one generated scenario.  One client runs units of
work back to back (a closed loop): a unit is one cell for the scheme
workloads and one in-process ``uavstream sweep`` call for ``sweep_small``.
The seed picks the scenario seeds; the program receives only the generated
configs.  Every cell's output is checked (see cellcheck.py).

``--trace 0`` measures end-to-end metrics for ``--seconds`` seconds.  The
timings are calibrated: bursts of a fixed reference computation run between
units and between the sweep's cells, and each unit's wall time is divided by
the host's median slowdown over the bursts from its start to just after its
end, so that the drift in speed of a shared host does not read as a change of
the program (see calibrate.py).  The raw figures are printed
too, and the cells' wall times and the bursts are written to ``bench/out/``.
``--trace 1`` runs a fixed round of the workload untraced and traced, in
pairs, and reports the per-layer metrics of the traced rounds (see spans.py)
and the tracing overhead; it writes the spans to ``bench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The package is imported from the ``src/`` directory of the checkout holding
this file, never from an installed copy; without it the run exits non-zero.
"""

import os

# One BLAS thread: with two threads on a 2-core machine the joint scheme at
# U=100 ran slower (3.65 s against 2.67 s) with the same utility.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SWEEP_SCHEMES = "joint,resource_only,position_only,relay_baseline,no_relay"
SEED_STRIDE = 1000      # scenario seeds of run seed s are SEED_STRIDE*s + k
CALIBRATION_INTERVAL_S = 0.5    # in a sweep, one reference burst per half second of cells


@dataclass(frozen=True)
class Workload:
    """What one unit of work runs, and how many units a run must complete.

    Unit k of a scheme workload is one ``scheme`` cell on the scenario seeded
    SEED_STRIDE*seed + k.  Unit k of the sweep is one CLI sweep over ``grid``
    and ``seeds`` consecutive scenario seeds from SEED_STRIDE*seed + seeds*k.
    ``min_units`` are always completed, and ``mean_utility`` is taken over
    exactly those, so it does not depend on how fast the program runs.  A
    traced round is units 0 .. ``round_units`` - 1.  ``dense_weight`` weights
    the dense part of the calibration's reference (calibrate.py): 1 where
    dense algebra at n >= 300 dominates the cell time, 0 where the factors
    are small enough that call overhead dominates.  Trial runs spread least
    in calibrated time with these values.
    """

    scheme: str             # a scheme id, or "sweep"
    users: int              # U of each cell; for the sweep, of the setup scenario
    min_units: int
    round_units: int = 1
    dense_weight: float = 0.0
    grid: str = ""
    seeds: int = 1
    setup_repeats: int = 5


WORKLOADS = {
    "joint_u100": Workload("joint", 100, min_units=8, round_units=3, dense_weight=1.0),
    "resource_u200": Workload("resource_only", 200, min_units=10, round_units=2,
                              dense_weight=1.0),
    "sweep_small": Workload("sweep", 10, min_units=3, round_units=3, grid="10,20,30"),
}
# The same code paths at a size that runs in seconds, for selfcheck.py.
TINY = {
    "joint_u100": Workload("joint", 10, min_units=1, setup_repeats=1),
    "resource_u200": Workload("resource_only", 20, min_units=1, setup_repeats=1),
    "sweep_small": Workload("sweep", 5, min_units=1, grid="5,10", seeds=1, setup_repeats=1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s_cal": "1/s",
    "unit_s_p50_cal": "s",
    "mean_utility": "utility",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import uavstream
cfg = uavstream.table2_config(num_users_U={users}, rng_seed={seed})
uavstream.generate_scenario(cfg)
uavstream.make_link_budget(cfg)
"""


def import_package():
    package = SRC / "uavstream"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no uavstream sources at {package}")
    sys.path.insert(0, str(SRC))
    import uavstream
    if Path(uavstream.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported uavstream from {uavstream.__file__}, not {package}")


def blas_threads():
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy
    counts = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                query = getattr(lib, symbol, None)
                if query is not None:
                    query.restype = ctypes.c_int
                    counts[path.name] = query()
                    break
    return counts


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "blas_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def time_interpreter(code):
    start = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(workload, seed):
    """Wall time of a fresh interpreter that imports uavstream, builds the
    first scenario and its link budget (the cold inverse CDF).

    Each set-up is paired with a reference interpreter that imports the same
    dependencies without uavstream; returns the raw median and the median
    ratio of the pairs scaled to the reference's nominal time (calibrate.py).
    """
    from calibrate import NOMINAL_SETUP_S, REFERENCE_SETUP_CODE

    code = SETUP_CODE.format(src=str(SRC), users=workload.users, seed=SEED_STRIDE * seed)
    times, ratios = [], []
    for _ in range(workload.setup_repeats):
        times.append(time_interpreter(code))
        ratios.append(times[-1] / time_interpreter(REFERENCE_SETUP_CODE))
    return statistics.median(times), statistics.median(ratios) * NOMINAL_SETUP_S


def run_scheme_cell(workload, rng_seed):
    from uavstream import orchestrator, scenario as scenario_module
    from cellcheck import Cell, guarded

    config = scenario_module.table2_config(num_users_U=workload.users, rng_seed=rng_seed)
    start = time.perf_counter()
    scenario = scenario_module.generate_scenario(config)
    result, failures, _ = guarded(orchestrator.run_benchmark, scenario, workload.scheme)
    seconds = time.perf_counter() - start
    return [Cell(workload.scheme, scenario, seconds, result, failures)], seconds


def run_sweep(workload, base_seed, workdir, calibrator=None):
    """One in-process ``uavstream sweep``; every cell's result is recorded on
    its way through ``cli.run_benchmark`` and matched to its CSV row.

    Reference bursts run between cells; the returned wall time leaves them out.
    """
    from uavstream import cli
    from cellcheck import Cell, guarded

    records = {}
    inner = cli.run_benchmark

    def recorded(scenario, scheme, *args):
        if calibrator is not None:
            calibrator.maybe_sample()
        start = time.perf_counter()
        result, failures, exc = guarded(inner, scenario, scheme, *args)
        seconds = time.perf_counter() - start
        config = scenario.config
        records[(scheme, config.num_users_U, config.rng_seed)] = Cell(
            scheme, scenario, seconds, result, failures)
        if exc is not None:
            raise exc
        return result

    out = Path(workdir) / f"sweep-{base_seed}.csv"
    argv = ["sweep", "--var", "num_users", "--grid", workload.grid,
            "--seeds", str(workload.seeds), "--seed", str(base_seed),
            "--schemes", SWEEP_SCHEMES, "--workers", "1", "--out", str(out)]
    spent = calibrator.spent if calibrator is not None else 0.0
    cli.run_benchmark = recorded
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if calibrator is not None:
            seconds -= calibrator.spent - spent
    finally:
        cli.run_benchmark = inner

    cells = list(records.values())
    expected = len(workload.grid.split(",")) * workload.seeds * len(SWEEP_SCHEMES.split(","))
    if code != 0 or len(cells) != expected:
        for cell in cells:
            cell.failures.append(f"sweep exited {code} after {len(cells)}/{expected} cells")
            cell.wrong = True
        return cells, seconds
    _check_sweep_outputs(out, records, workload)
    return cells, seconds


def _check_sweep_outputs(out, records, workload):
    """Match each CSV row to its recorded cell and the summary to the rows."""
    from uavstream.cli import read_rows

    rows = read_rows(out)
    if len(rows) != len(records):
        for cell in records.values():
            cell.failures.append(f"{len(rows)} CSV rows for {len(records)} cells")
            cell.wrong = True
    by_group = {}
    for row in rows:
        key = (row["scheme"], int(round(float(row["sweep_value"]))), int(row["seed"]))
        cell = records.get(key)
        if cell is None:
            continue
        if row["status"] != "ok":
            cell.failures.append(f"status {row['status']}")
        if cell.result is not None:
            if row["avg_utility"] != f"{cell.result.avg_utility:.9f}":
                cell.failures.append("CSV utility differs from the returned result")
                cell.wrong = True
            by_group.setdefault((row["scheme"], row["sweep_value"]), []).append(cell.utility)
    for row in read_rows(out.with_name(out.stem + "_summary" + out.suffix)):
        utils = by_group.get((row["scheme"], row["sweep_value"]), [])
        mean = sum(utils) / len(utils) if utils else math.nan
        if int(row["n_seeds"]) != workload.seeds or abs(float(row["mean_utility"]) - mean) > 1e-8:
            for cell in records.values():
                if cell.scheme == row["scheme"]:
                    cell.failures.append("summary row does not match the raw rows")
                    cell.wrong = True


def run_unit(workload, seed, k, workdir, calibrator=None):
    if workload.scheme == "sweep":
        return run_sweep(workload, SEED_STRIDE * seed + workload.seeds * k, workdir, calibrator)
    return run_scheme_cell(workload, SEED_STRIDE * seed + k)


def finish(cells):
    from cellcheck import finish_cell
    for cell in cells:
        finish_cell(cell)
    return cells


def measure_end_to_end(workload, seed, seconds, workdir):
    from calibrate import Calibrator

    setup_raw_s, setup_s = measure_setup(workload, seed)
    calibrator = Calibrator(workload.dense_weight, CALIBRATION_INTERVAL_S)
    units, walls, first_burst = [], [], []
    start = time.perf_counter()
    while True:
        first_burst.append(len(calibrator.samples))
        calibrator.sample()
        cells, wall = run_unit(workload, seed, len(units), workdir, calibrator)
        units.append(finish(cells))
        walls.append(wall)
        elapsed = time.perf_counter() - start
        # Stop before a unit that would end past the deadline.
        if len(units) >= workload.min_units and elapsed * (len(units) + 1) / len(units) > seconds:
            break
    cells = [c for unit in units for c in unit]
    fixed = [c.utility for unit in units[:workload.min_units] for c in unit
             if math.isfinite(c.utility)]
    calibrator.sample()
    first_burst.append(len(calibrator.samples) - 1)
    # Unit k is calibrated by the bursts from the one just before it to the
    # one just after it, both included.
    calibrated = [wall / calibrator.slowdown(first_burst[k], first_burst[k + 1] + 1)
                  for k, wall in enumerate(walls)]
    failed = sum(bool(c.failures) for c in cells)
    print(f"raw: setup_s {setup_raw_s:.6g} s, cells_per_s {len(cells) / sum(walls):.6g} 1/s, "
          f"unit_s_p50 {statistics.median(walls):.6g} s over {len(units)} units, "
          f"cell_s_p50 {statistics.median(c.seconds for c in cells):.6g} s; "
          f"host slowdown {calibrator.slowdown():.4f} (median of {len(calibrator.samples)} "
          f"bursts, range {min(calibrator.samples):.4f}-{max(calibrator.samples):.4f})")
    metrics = {
        "setup_s": setup_s,
        "cells_per_s_cal": len(cells) / sum(calibrated),
        "unit_s_p50_cal": statistics.median(calibrated),
        "mean_utility": statistics.fmean(fixed) if fixed else math.nan,
        "ok_frac": (len(cells) - failed) / len(cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return cells, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, calibrator


def measure_traced(workload, seed, seconds, workdir):
    import spans

    def one_round(tracer=None):
        spans.clear_package_caches()
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with traced:
            cells = [c for k in range(workload.round_units)
                     for c in run_unit(workload, seed, k, workdir)[0]]
        return finish(cells), time.perf_counter() - start

    start = time.perf_counter()
    cells, _ = one_round()                      # warm-up, not compared
    rounds, pair_s = [], []
    while True:
        pair_start = time.perf_counter()
        plain_cells, plain_s = one_round()
        tracer = spans.Tracer()
        traced_cells, traced_s = one_round(tracer)
        cells += plain_cells + traced_cells
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_s"] = traced_s - plain_s
        rounds.append(metrics)
        pair_s.append(time.perf_counter() - pair_start)
        # Stop before a pair that would end past the deadline.
        if time.perf_counter() - start + statistics.fmean(pair_s) > seconds:
            break
    counts_differ = [k for k, v in rounds[0].items()
                     if isinstance(v, int) and any(r[k] != v for r in rounds)]
    metrics = spans.median_metrics(rounds)
    return cells, {k: (v, spans.unit(k)) for k, v in metrics.items()}, (tracer, counts_differ)


def run_workload(name, seed, seconds, trace, tiny):
    workload = (TINY if tiny else WORKLOADS)[name]
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, "env": env}))
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        measure = measure_traced if trace else measure_end_to_end
        cells, metrics, extra = measure(workload, seed, seconds, workdir)

    failed = [c for c in cells if c.failures]
    correct = not any(c.wrong for c in cells)
    for cell in failed[:10]:
        cfg = cell.scenario.config
        print(f"FAILED {cell.scheme} U={cfg.num_users_U} seed={cfg.rng_seed}: "
              + "; ".join(cell.failures), file=sys.stderr)
    if not trace:
        calibrator = extra
        cells_file = OUT / f"cells-{name}{'-tiny' if tiny else ''}-seed{seed}.json"
        cells_file.write_text(json.dumps(
            {"workload": name, "seed": seed, "env": env,
             "cells": [[c.scheme, c.scenario.config.num_users_U, c.scenario.config.rng_seed,
                        c.seconds] for c in cells],
             "bursts": calibrator.bursts}, separators=(",", ":")))
    else:
        tracer, counts_differ = extra
        if counts_differ:
            correct = False
            print(f"counts differ between identical traced rounds: {counts_differ}",
                  file=sys.stderr)
        spans_file = OUT / f"spans-{name}{'-tiny' if tiny else ''}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"workload": name, "seed": seed, "env": env,
             "metrics": {k: v for k, (v, _) in metrics.items()},
             "spans": tracer.export()}, separators=(",", ":")))
    for key, (value, unit) in metrics.items():
        print(f"{name:14s} {key:30s} {value:>14.6g} {unit}")
    print(f"{name:14s} {'cells':30s} {len(cells):>14d} count")
    return {"correct": correct, "attempted": len(cells), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process, so peak memory and caches stay apart."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[1:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (self-check)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_package()
    sys.path.insert(0, str(BENCH))
    if args.workload == "all":
        run_all(args)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
