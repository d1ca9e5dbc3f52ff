"""Theoretical regret bound (Theorem 1 of the paper).

Theorem 1 (quoting the paper, originally from Zhou & Li's combinatorial-MAB
analysis): for a beta-approximation learning policy,

    sup R_beta(n) <= (1/beta) N K
                     + (sqrt(e K) + 16/(e beta) (1 + N) N^3) n^{2/3}
                     + (1/beta) (1 + 4 sqrt(K N^2) / (e beta^2)) N^2 K n^{5/6}

independent of Delta_{beta,min}.

The bound is loose (the constants are large); it is included so the
experiments can verify that measured beta-regret stays below the guarantee,
which is experiment E8 of DESIGN.md.
"""

from __future__ import annotations

import math

__all__ = ["theorem1_regret_bound"]


def theorem1_regret_bound(
    horizon: int, num_nodes: int, num_arms: int, beta: float
) -> float:
    """Evaluate the Theorem 1 upper bound on beta-regret at round ``horizon``.

    Parameters
    ----------
    horizon:
        The number of rounds ``n``.
    num_nodes:
        Number of users ``N``.
    num_arms:
        Number of arms ``K = N * M``.
    beta:
        Approximation ratio of the per-round MWIS solver (``>= 1``).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if num_nodes <= 0 or num_arms <= 0:
        raise ValueError("num_nodes and num_arms must be positive")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    n = float(horizon)
    big_n = float(num_nodes)
    big_k = float(num_arms)
    constant_term = big_n * big_k / beta
    mid_term = (
        math.sqrt(math.e * big_k)
        + 16.0 / (math.e * beta) * (1.0 + big_n) * big_n ** 3
    ) * n ** (2.0 / 3.0)
    tail_term = (
        (1.0 / beta)
        * (1.0 + 4.0 * math.sqrt(big_k * big_n ** 2) / (math.e * beta ** 2))
        * big_n ** 2
        * big_k
        * n ** (5.0 / 6.0)
    )
    return constant_term + mid_term + tail_term

