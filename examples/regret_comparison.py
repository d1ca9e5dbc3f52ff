#!/usr/bin/env python3
"""Regret comparison (the Fig. 7 scenario): Algorithm 2 vs. the LLR policy.

Reproduces the Section V-B study on a configurable network: both learners use
the same distributed strategy-decision engine, the optimum is computed by
brute force, and the per-round practical regret / beta-regret are reported.

Run:  python examples/regret_comparison.py [--paper]

With ``--paper`` the exact Section V-B parameters are used (the
``fig7-paper`` preset: 15 users, 3 channels, 1000 slots); without it the
scaled-down ``fig7-quick`` preset runs in a few seconds (the CLI equivalent
is ``repro run fig7-quick``).
"""

from __future__ import annotations

import argparse

from repro.sim.metrics import tail_mean
from repro.spec import apply_overrides, format_result, get_scenario, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="run the exact paper-scale configuration (slower)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="override the number of time slots"
    )
    args = parser.parse_args()

    spec = get_scenario("fig7-paper" if args.paper else "fig7-quick")
    spec = apply_overrides(spec, {"schedule.num_rounds": args.rounds})

    print(
        f"Running the Fig. 7 regret study: {spec.topology.num_nodes} users, "
        f"{spec.topology.num_channels} channels, {spec.schedule.num_rounds} slots ..."
    )
    result = run_scenario(spec)
    print()
    print(format_result(result))
    print()
    converged = {
        policy.display_label: tail_mean(
            result.series[f"practical_regret[{policy.display_label}]"]
        )
        for policy in spec.policies
    }
    print(f"Lower converged practical regret: {min(converged, key=converged.get)}")


if __name__ == "__main__":
    main()
