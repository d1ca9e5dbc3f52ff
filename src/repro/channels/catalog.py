"""The paper's channel catalogue.

Section V: "We set 8 types of channels with data rates (units kbps) 150, 225,
300, 450, 600, 900, 1200, and 1350 respectively.  Each channel evolves as a
distinct i.i.d Gaussian stochastic process over time."

The catalogue here reproduces those rates and draws them onto a network;
:class:`~repro.channels.state.ChannelState` builds Gaussian channel models
around them.  A relative standard deviation is configurable (the paper does
not state the variance; 5% of the mean is the default and the experiments are
insensitive to this choice because all policies see the same draws).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PAPER_RATES_KBPS",
    "DEFAULT_RELATIVE_STD",
    "assign_rates_to_network",
]

#: Data rates of the 8 channel classes used in the paper's simulations (kbps).
PAPER_RATES_KBPS: Sequence[float] = (150.0, 225.0, 300.0, 450.0, 600.0, 900.0, 1200.0, 1350.0)

#: Default relative standard deviation of the Gaussian rate processes.
DEFAULT_RELATIVE_STD = 0.05


def assign_rates_to_network(
    num_nodes: int,
    num_channels: int,
    rng: Optional[np.random.Generator] = None,
    rates: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Draw a per-(node, channel) mean-rate matrix from the rate catalogue.

    The paper lets the same channel show different quality at different
    users; we realise that by sampling, independently for every (node,
    channel) pair, one of the catalogue rates uniformly at random.  Returns an
    ``(num_nodes, num_channels)`` array of mean rates.
    """
    if num_nodes <= 0 or num_channels <= 0:
        raise ValueError(
            f"num_nodes and num_channels must be positive, got {num_nodes}, {num_channels}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    pool = np.asarray(rates if rates is not None else PAPER_RATES_KBPS, dtype=float)
    if pool.size == 0:
        raise ValueError("rate pool must not be empty")
    indices = rng.integers(0, pool.size, size=(num_nodes, num_channels))
    return pool[indices]
