#!/usr/bin/env python3
"""Extension study: channel access when channels are NOT i.i.d.

The paper's analysis assumes i.i.d. channel gains and leaves Markovian and
adversarial channels as future work (Section VII).  The scenario layer
reaches both through ``channels.kind``:

* ``gilbert-elliott`` -- every (node, channel) pair is a two-state Markov
  channel (good rate from the rate pool, bad rate a fraction of it);
* ``adversarial`` -- every pair replays a seeded oblivious gain sequence.

This example runs the ``fig7-quick`` preset (Algorithm 2 vs. LLR) on the
i.i.d. paper rates and on both beyond-i.i.d. kinds, and compares the
learners' average effective throughput and practical regret against the
optimum of the stationary means.

Run:  python examples/nonstationary_channels.py [--rounds N]

The CLI equivalent of one row is
``repro run fig7-quick --set channels.kind=gilbert-elliott``.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.reporting import render_table
from repro.spec import apply_overrides, get_scenario, run_scenario

CHANNEL_KINDS = ("paper-rates", "gilbert-elliott", "adversarial")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=None, help="override the number of time slots"
    )
    args = parser.parse_args()

    base = apply_overrides(
        get_scenario("fig7-quick"), {"schedule.num_rounds": args.rounds}
    )
    print(
        f"Beyond-i.i.d. study: {base.topology.num_nodes} users, "
        f"{base.topology.num_channels} channels, {base.schedule.num_rounds} slots, "
        f"channel kinds {', '.join(CHANNEL_KINDS)} ...\n"
    )
    rows = []
    for kind in CHANNEL_KINDS:
        # Stateful channel models are limited to one replication.
        spec = apply_overrides(
            base, {"channels.kind": kind, "replication.replications": 1}
        )
        result = run_scenario(spec)
        for policy in spec.policies:
            label = policy.display_label
            rows.append(
                [
                    kind,
                    label,
                    float(np.mean(result.series[f"effective_throughput[{label}]"])),
                    float(np.mean(result.series[f"practical_regret[{label}]"])),
                ]
            )
    print(
        render_table(
            ["channels", "policy", "avg effective throughput", "avg practical regret"],
            rows,
        )
    )
    print(
        "\nBoth learners estimate stationary means, so on Markov and "
        "adversarial channels they chase each pair's long-run average rate.  "
        "Each row's regret is measured against the optimum of its own "
        "channel kind's stationary means."
    )


if __name__ == "__main__":
    main()
