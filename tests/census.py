"""Valid-domain census: all five schemes on random valid configurations.

    python tests/census.py --draws 150 --seed 11
    python tests/census.py --widened --draws 40 --seed 7

Each draw is a table2 configuration with U in 1..40 and the other fields
over the ranges of test_properties.config_strategy, each power budget
log-uniform over its range (numpy default_rng(seed)).  --widened draws over
the wider ranges of WIDENED instead: every power budget from 1e-7 to 1 W,
area_side up to 5000 m and network_size_D up to 20,000 m.  Every scheme runs on
every draw under warnings-as-errors, and each answer's state is validated.
The script prints the number of runs, then the counts that must be zero:
exceptions (a failed validation included), leaked warnings, P7 solves that
stalled (at a failed line search or a Newton matrix that is not positive
definite), P7 solves that spent their Newton step budget, traces whose exact
objective falls, and draws where joint ends below position_only.  Each
exception or warning is reported on stderr with its draw and scheme.  It
exits 1 if any of those counts is nonzero.
pytest does not collect it (its name has no test_ prefix).
"""

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uavstream import subproblems  # noqa: E402
from uavstream.orchestrator import SCHEMES, run_benchmark  # noqa: E402
from uavstream.scenario import generate_scenario, table2_config  # noqa: E402
from uavstream.subproblems import make_link_budget  # noqa: E402

POWERS = {"p_max_user": (1e-4, 1.0), "p_max_obs": (1e-3, 1.0), "p_max_relay": (1e-3, 1.0)}
UNIFORM = {"rician_K": (0.0, 20.0), "outage_target_rho": (1e-3, 0.3),
           "area_side": (0.0, 3000.0), "network_size_D": (200.0, 5000.0),
           "height_obs_Ho": (20.0, 300.0), "height_relay_Hr": (20.0, 300.0)}
WIDENED = {**dict.fromkeys(POWERS, (1e-7, 1.0)), "area_side": (0.0, 5000.0),
           "network_size_D": (200.0, 20_000.0)}


def draw_config(rng, widened=False):
    """One configuration, over WIDENED's ranges where it has one if widened."""
    ranges = {**POWERS, **UNIFORM, **(WIDENED if widened else {})}
    fields = {"num_users_U": int(rng.integers(1, 41)), "rng_seed": int(rng.integers(0, 10_001))}
    for name in POWERS:
        lo, hi = ranges[name]
        fields[name] = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    for name in UNIFORM:
        fields[name] = rng.uniform(*ranges[name])
    return table2_config(**fields)


def census(draws, seed, widened=False):
    """The counts, by name, over `draws` configurations."""
    counts = dict.fromkeys(("runs", "exceptions", "warnings", "stalled_p7", "capped_p7",
                            "falling_traces", "joint_below_position_only"), 0)
    statuses = []
    solve = subproblems.solve_concave

    def recorded(*args, **kwargs):
        report = solve(*args, **kwargs)
        statuses.append(report.status)
        return report

    subproblems.solve_concave = recorded
    rng = np.random.default_rng(seed)
    try:
        for draw in range(draws):
            cfg = draw_config(rng, widened)
            answers = {}
            for scheme in SCHEMES:
                counts["runs"] += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        sc = generate_scenario(cfg)
                        result = run_benchmark(sc, scheme)
                        result.state.validate(sc, make_link_budget(cfg))
                except Exception as exc:     # a Warning too, under "error"
                    counts["warnings" if isinstance(exc, Warning) else "exceptions"] += 1
                    print(f"draw {draw} {scheme}: {exc!r}", file=sys.stderr)
                    continue
                answers[scheme] = result.avg_utility
                trace = result.trace.exact_objectives
                counts["falling_traces"] += any(b < a for a, b in zip(trace, trace[1:]))
            if "joint" in answers and "position_only" in answers:
                counts["joint_below_position_only"] += answers["joint"] < answers["position_only"]
    finally:
        subproblems.solve_concave = solve
    counts["stalled_p7"] = statuses.count("stalled")
    counts["capped_p7"] = statuses.count("max_iters")
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=150)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--widened", action="store_true",
                        help="draw over the wider ranges of WIDENED")
    args = parser.parse_args(argv)
    counts = census(args.draws, args.seed, args.widened)
    for name, count in counts.items():
        print(f"{name}: {count}")
    return int(any(count for name, count in counts.items() if name != "runs"))


if __name__ == "__main__":
    sys.exit(main())
