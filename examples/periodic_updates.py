#!/usr/bin/env python3
"""Periodic-update study (the Fig. 8 scenario).

Shows the trade-off at the heart of Section V-C: updating the weights (and
re-running the distributed strategy decision) every slot wastes half of every
round on control traffic, while updating once every ``y`` slots pushes the
effective throughput towards the ideal value with negligible loss in
estimation accuracy.  The paper's policy is compared with LLR for every
period length.

Run:  python examples/periodic_updates.py [--paper]

Without flags this runs the ``fig8-quick`` preset (``repro run fig8-quick``);
``--paper`` runs ``fig8-paper`` (100 users, 10 channels, periods 1/5/10/20,
1000 updates per period length) and takes correspondingly longer.
"""

from __future__ import annotations

import argparse

from repro.spec import format_result, get_scenario, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="run the exact paper-scale configuration (much slower)",
    )
    args = parser.parse_args()

    spec = get_scenario("fig8-paper" if args.paper else "fig8-quick")
    periods = spec.schedule.periods

    print(
        f"Running the Fig. 8 periodic-update study: {spec.topology.num_nodes} "
        f"users, {spec.topology.num_channels} channels, periods {periods}, "
        f"{spec.schedule.num_periods} updates each ..."
    )
    result = run_scenario(spec)
    print()
    print(format_result(result))
    print()

    def final(metric, policy, period):
        return result.series[f"{metric}[{policy}][y={period}]"][-1]

    def gap(policy, period):
        actual = final("actual", policy, period)
        return abs(final("estimated", policy, period) - actual) / actual

    print("Observations to compare with the paper:")
    for period in periods:
        efficiency = result.records[f"y={period}"]["efficiency"]
        print(
            f"  y = {period:>2}: efficiency {efficiency:.3f}, "
            f"Algorithm2 actual throughput "
            f"{final('actual', 'Algorithm2', period):.1f} kbps, "
            f"estimation gap {gap('Algorithm2', period):.2%} "
            f"(LLR gap {gap('LLR', period):.2%})"
        )


if __name__ == "__main__":
    main()
