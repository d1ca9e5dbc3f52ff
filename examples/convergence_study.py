#!/usr/bin/env python3
"""Convergence of the distributed strategy decision (the Fig. 6 scenario).

For several random networks this script runs one full strategy decision
(Algorithm 3) and prints the cumulative Winner weight after every mini-round,
plus the Fig. 5 linear worst case where only one LocalLeader can be elected
per mini-round.

Run:  python examples/convergence_study.py [--paper]

The networks are the ``fig6-quick`` preset (``fig6-paper`` with ``--paper``);
``repro run fig6-quick`` prints the same envelope.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.distributed import DistributedRobustPTAS
from repro.graph import ExtendedConflictGraph, linear_network
from repro.spec import format_result, get_scenario, run_scenario


def linear_worst_case(num_nodes: int = 20) -> None:
    """The Fig. 5 pathology: decreasing weights along a line."""
    graph = linear_network(num_nodes, 2, spacing=1.0, radius=1.0)
    extended = ExtendedConflictGraph(graph)
    weights = np.linspace(extended.num_vertices, 1.0, extended.num_vertices)
    protocol = DistributedRobustPTAS(extended.adjacency_sets(), r=1)
    result = protocol.run(weights)
    print(
        f"Linear worst case ({num_nodes} nodes): {result.num_mini_rounds} mini-rounds "
        "to mark every vertex (random networks above needed only a handful)."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use the exact Fig. 6 network sizes (50/100/200 users x 5/10 channels)",
    )
    args = parser.parse_args()

    spec = get_scenario("fig6-paper" if args.paper else "fig6-quick")
    print(f"Running the Fig. 6 convergence study ({spec.name}) ...")
    result = run_scenario(spec)
    print()
    print(format_result(result))
    print()
    linear_worst_case()


if __name__ == "__main__":
    main()
