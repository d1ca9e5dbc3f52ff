"""Round timing model (Fig. 2 and Table II of the paper).

Each round of length ``t_a`` is split into a strategy-decision part ``t_s``
and a data-transmission part ``t_d``; the strategy decision consists of ``c``
mini-rounds of length ``t_m = 2 t_b + t_l`` (one local broadcast before and
after a local computation).  The paper's simulation values (Table II):

=====================  =======
round ``t_a``          2000 ms
local broadcast t_b     100 ms
local computation t_l    50 ms
data transmission t_d  1000 ms
=====================  =======

with ``t_s = 4 t_m`` giving ``t_m = 250 ms``, ``t_s = 1000 ms`` and an
effective throughput factor ``theta = t_d / t_a = 0.5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.reporting import render_table

__all__ = ["TimingConfig", "table2_report", "format_table2"]


@dataclass(frozen=True)
class TimingConfig:
    """Timing parameters of a single round, all in milliseconds."""

    local_broadcast_ms: float = 100.0
    local_computation_ms: float = 50.0
    data_transmission_ms: float = 1000.0
    #: Number of mini-rounds in the strategy-decision part (the paper's
    #: simulations set ``t_s = 4 t_m``, i.e. one weight-update mini-round plus
    #: three strategy-decision mini-rounds).
    decision_mini_rounds: int = 4

    def __post_init__(self) -> None:
        if self.local_broadcast_ms < 0 or self.local_computation_ms < 0:
            raise ValueError("broadcast and computation times must be non-negative")
        if self.data_transmission_ms <= 0:
            raise ValueError("data_transmission_ms must be positive")
        if self.decision_mini_rounds < 0:
            raise ValueError("decision_mini_rounds must be non-negative")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def mini_round_ms(self) -> float:
        """Length of one mini-round: ``t_m = 2 t_b + t_l``."""
        return 2.0 * self.local_broadcast_ms + self.local_computation_ms

    @property
    def strategy_decision_ms(self) -> float:
        """Length of the strategy-decision part: ``t_s = c * t_m``."""
        return self.decision_mini_rounds * self.mini_round_ms

    @property
    def round_ms(self) -> float:
        """Full round length ``t_a = t_s + t_d``."""
        return self.strategy_decision_ms + self.data_transmission_ms

    @property
    def theta(self) -> float:
        """Effective-throughput factor ``theta = t_d / t_a``."""
        return self.data_transmission_ms / self.round_ms

    def period_efficiency(self, period_slots: int) -> float:
        """Effective-throughput factor of a ``y``-slot update period.

        Section V-C: when the strategy is decided once per period of ``y``
        slots, the first slot only transmits for ``t_d`` while the remaining
        ``y - 1`` slots transmit for the full ``t_a``, so the efficiency is
        ``((y - 1) t_a + t_d) / (y t_a)``.  With the paper parameters this is
        1/2, 9/10, 19/20 and 39/40 for ``y`` = 1, 5, 10, 20.
        """
        if period_slots < 1:
            raise ValueError(f"period_slots must be >= 1, got {period_slots}")
        y = float(period_slots)
        return ((y - 1.0) * self.round_ms + self.data_transmission_ms) / (y * self.round_ms)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls) -> "TimingConfig":
        """The Table II values used by all paper experiments."""
        return cls()


def table2_report(timing: Optional[TimingConfig] = None) -> Dict[str, float]:
    """Return the Table II constants plus the derived round structure.

    Table II only lists the four timing constants; the evaluation depends on
    what Fig. 2 derives from them: ``t_m``, ``t_s``, ``t_a``, the
    effective-throughput factor ``theta`` that scales every throughput number
    in Figs. 7-8, and the Fig. 8 period efficiencies.
    """
    timing = timing if timing is not None else TimingConfig.paper_defaults()
    return {
        "local_broadcast_tb_ms": timing.local_broadcast_ms,
        "local_computation_tl_ms": timing.local_computation_ms,
        "data_transmission_td_ms": timing.data_transmission_ms,
        "mini_round_tm_ms": timing.mini_round_ms,
        "strategy_decision_ts_ms": timing.strategy_decision_ms,
        "round_ta_ms": timing.round_ms,
        "theta": timing.theta,
        "period_efficiency_y1": timing.period_efficiency(1),
        "period_efficiency_y5": timing.period_efficiency(5),
        "period_efficiency_y10": timing.period_efficiency(10),
        "period_efficiency_y20": timing.period_efficiency(20),
    }


def format_table2(timing: Optional[TimingConfig] = None) -> str:
    """Render the Table II report as a text table."""
    report = table2_report(timing)
    rows = [[key, value] for key, value in report.items()]
    return render_table(["parameter", "value"], rows)
