#!/usr/bin/env python3
"""Complexity report: check the Section IV-C claims experimentally.

For a sweep of random networks this script runs one distributed strategy
decision per network and reports, per vertex, the measured number of control
messages, the stored neighbour weights and the largest local MWIS instance —
next to the paper's theoretical bounds (O(r^2 + D) messages, O(m) space,
local instances bounded by the (2r+1)-hop neighbourhood).

Run:  python examples/complexity_report.py

The networks are the ``complexity-paper`` preset (``repro run
complexity-paper`` prints the same envelope); the round structure is the
``repro table2`` report.
"""

from __future__ import annotations

from repro.sim.timing import format_table2
from repro.spec import format_result, get_scenario, run_scenario


def main() -> None:
    print("Round structure derived from Table II:")
    print(format_table2())
    print()
    spec = get_scenario("complexity-paper")
    print(
        "Measuring per-round communication / space / computation costs "
        f"on {len(spec.network_sweep)} random networks (r = {spec.policies[0].r}) ..."
    )
    result = run_scenario(spec)
    print()
    print(format_result(result))
    print()
    print(
        "Note how the per-vertex message count and storage stay flat as the\n"
        "network grows: they scale with the (2r+1)-hop neighbourhood, not with N."
    )


if __name__ == "__main__":
    main()
