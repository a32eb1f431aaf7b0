"""Experiment harness: convergence traces, parameter sweeps, and config presets.

Subcommands
    converge  -- run the joint scheme once, emit the per-iteration objective CSV
    sweep     -- grid x seeds x schemes, emit raw rows plus a seed-averaged summary
    presets   -- write the built-in config files

Exit codes: 0 success, 1 config error, 2 infeasible instance (or a converge run
that stops at the iteration cap), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .convex_core import NumericError
from .orchestrator import SCHEMES, run_algorithm1, run_benchmark
from .scenario import (ConfigError, SystemConfig, generate_scenario,
                       load_config, save_config, table2_config)
from .subproblems import InfeasibleProblem

SWEEP_VARS = ("num_users", "power_budget", "rho", "network_size_D")

DEFAULT_GRIDS = {
    "num_users": [10.0, 20.0, 30.0],
    "power_budget": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5],   # P_u^max watts, brackets the preset
    "rho": [1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5],
    "network_size_D": [1500.0, 2000.0, 2500.0, 3000.0, 3200.0],
}

RESULT_COLUMNS = ["scheme", "sweep_var", "sweep_value", "seed", "avg_utility",
                  "iters", "wall_ms", "status"]

# Editable stand-ins for per-content QoE curves; only the table2 entry carries
# reference values.
VIDEO_SCENARIO_PRESETS = {
    "video_low_motion": {"utility_theta": 0.5, "utility_beta": 150.0, "playback_rate_rbar": 0.5},
    "video_standard": {"utility_theta": 0.8, "utility_beta": 100.0, "playback_rate_rbar": 1.0},
    "video_high_motion": {"utility_theta": 1.2, "utility_beta": 60.0, "playback_rate_rbar": 2.0},
}


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    grid: tuple
    seeds: int
    schemes: tuple

    def __post_init__(self):
        if self.variable not in SWEEP_VARS:
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not all(math.isfinite(v) for v in self.grid):
            raise ConfigError(f"grid values must be finite: {self.grid}")
        if len(self.grid) == 0 or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("grid must be non-empty and strictly increasing")
        if self.seeds < 1:
            raise ConfigError("need at least one seed per grid point")
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad:
            raise ConfigError(f"unknown schemes: {bad}")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ConfigError(f"schemes listed more than once: {repeated}")


def apply_sweep_value(config: SystemConfig, variable: str, value: float) -> SystemConfig:
    if variable == "num_users":
        return replace(config, num_users_U=int(round(value)))
    if variable == "power_budget":
        # One axis drives all three budgets, scaled by their preset ratios.
        factor = value / config.p_max_user
        return replace(config, p_max_user=value, p_max_obs=config.p_max_obs * factor,
                       p_max_relay=config.p_max_relay * factor)
    if variable == "rho":
        return replace(config, outage_target_rho=value)
    return replace(config, network_size_D=value)


def _run_scenario(args):
    """Worker entry: one (sweep value, seed) scenario and a row for each
    requested scheme on it.

    position_only runs first, and joint starts from its answer: that is the
    start joint's own warm-up would compute, so joint's row is the same
    whether or not position_only is requested.  A position_only run that
    raised hands nothing on.  Each row's wall_ms is what its scheme cost on
    this scenario: generating the scenario, the scheme's run and, for a joint
    run handed position_only's answer, that run too.
    """
    base_config, variable, value, seed, schemes = args
    t0 = time.perf_counter()
    cfg = replace(apply_sweep_value(base_config, variable, value), rng_seed=seed)
    scenario = generate_scenario(cfg)
    setup_s = time.perf_counter() - t0
    start, start_s, rows = (), 0.0, []
    for scheme in sorted(schemes, key=lambda s: s != "position_only"):
        row = {"scheme": scheme, "sweep_var": variable, "sweep_value": value, "seed": seed}
        extra = start if scheme == "joint" else ()
        t0 = time.perf_counter()
        try:
            # One call per cell, the start passed positionally, so that a
            # wrapper of (scenario, scheme, *args) put in run_benchmark's
            # place sees every cell.
            result = run_benchmark(scenario, scheme, *extra)
            row.update(avg_utility=f"{result.avg_utility:.9f}", iters=result.iterations,
                       status="ok" if result.converged else "max_iters")
            if scheme == "position_only":
                start, start_s = (result.state,), time.perf_counter() - t0
        except InfeasibleProblem:
            row.update(avg_utility="nan", iters=0, status="infeasible")
        except (NumericError, FloatingPointError) as exc:
            row.update(avg_utility="nan", iters=0, status=f"numeric_error:{exc}")
        spent = setup_s + time.perf_counter() - t0 + (start_s if extra else 0.0)
        row["wall_ms"] = f"{spent * 1e3:.1f}"
        rows.append(row)
    return rows


def read_rows(path):
    """Re-parse a CSV emitted by this harness into a list of dict rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cmd_converge(config: SystemConfig, seed: int, out_path: Path) -> int:
    cfg = replace(config, rng_seed=seed)
    scenario = generate_scenario(cfg)
    result = run_algorithm1(scenario)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "exact_objective", "lower_bound_objective"])
        for rec in result.trace.records:
            writer.writerow([rec.iteration, f"{rec.exact_objective:.9f}",
                             f"{rec.lower_bound_objective:.9f}"])
    print(f"converged={result.converged} iterations={result.iterations} "
          f"utility={result.avg_utility:.6f} -> {out_path}")
    if not result.converged:
        print("did not reach the objective-improvement tolerance within "
              f"{cfg.max_bcd_iters} iterations", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(spec: SweepSpec, config: SystemConfig, base_seed: int,
              out_path: Path, workers: int = 1) -> int:
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    tasks = [(config, spec.variable, value, base_seed + k, spec.schemes)
             for value in spec.grid
             for k in range(spec.seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for rows in pool.map(_run_scenario, tasks, chunksize=1)
                    for row in rows]
    else:
        rows = [row for t in tasks for row in _run_scenario(t)]
    rows.sort(key=lambda r: (r["scheme"], r["sweep_value"], r["seed"]))

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary_path = out_path.with_name(out_path.stem + "_summary" + out_path.suffix)
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "sweep_var", "sweep_value", "n_seeds", "mean_utility"])
        for scheme in spec.schemes:
            for value in spec.grid:
                utils = [float(r["avg_utility"]) for r in rows
                         if r["scheme"] == scheme and r["sweep_value"] == value
                         and r["status"] in ("ok", "max_iters")]
                mean = sum(utils) / len(utils) if utils else float("nan")
                writer.writerow([scheme, spec.variable, value, len(utils), f"{mean:.9f}"])
    print(f"{len(rows)} rows -> {out_path}; summary -> {summary_path}")
    return 0


def cmd_presets(name: str, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "table2":
        path = out_dir / "table2.cfg"
        save_config(table2_config(), path)
        print(f"wrote {path}")
        return 0
    if name == "video_scenarios":
        for label, overrides in VIDEO_SCENARIO_PRESETS.items():
            path = out_dir / f"{label}.cfg"
            save_config(table2_config(**overrides), path)
            print(f"wrote {path}")
        return 0
    raise ConfigError(f"unknown preset {name!r}; expected 'table2' or 'video_scenarios'")


def _parse_grid(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavstream",
                                     description="UAV relay streaming experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("converge", help="emit the joint-scheme convergence trace")
    p_conv.add_argument("--config", help="config file (default: built-in table2 preset)")
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", default="converge.csv")

    p_sweep = sub.add_parser("sweep", help="sweep one variable over a grid of seeds")
    p_sweep.add_argument("--config", help="config file (default: built-in table2 preset)")
    p_sweep.add_argument("--var", default="num_users", choices=SWEEP_VARS)
    p_sweep.add_argument("--grid", help="comma-separated ascending values")
    p_sweep.add_argument("--seeds", type=int, default=10, help="seeds per grid point")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed")
    p_sweep.add_argument("--schemes", default="joint,resource_only,position_only,no_relay")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default="sweep.csv")

    p_pre = sub.add_parser("presets", help="write built-in config presets")
    p_pre.add_argument("name", choices=["table2", "video_scenarios"])
    p_pre.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets(args.name, Path(args.out))
        config = load_config(args.config) if args.config else table2_config()
        if args.command == "converge":
            return cmd_converge(config, args.seed, Path(args.out))
        grid = _parse_grid(args.grid) if args.grid else tuple(DEFAULT_GRIDS[args.var])
        spec = SweepSpec(variable=args.var, grid=grid, seeds=args.seeds,
                         schemes=tuple(args.schemes.split(",")))
        return cmd_sweep(spec, config, args.seed, Path(args.out), workers=args.workers)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleProblem as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
