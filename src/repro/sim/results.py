"""The step trace of a simulation run and the per-round result view over it.

Every simulator of :mod:`repro.sim` records the same numbers per step of
:func:`repro.sim.engine.learning_loop`: the strategy played, its expected
throughput, the observed throughput, the policy's index weight and the
step's wall clock.  :class:`StepTrace` holds them as preallocated float64
columns filled once per step; :class:`SimulationResult`,
:class:`~repro.sim.periodic.PeriodicResult` and
:class:`~repro.sim.dynamic.DynamicRunResult` are thin views over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.regret import RegretTracker
from repro.core.strategy import Strategy

__all__ = ["STEP_COLUMNS", "StepTrace", "SimulationResult"]

#: The columns of every trace; a run may add its own (see
#: :data:`repro.sim.dynamic.DYNAMIC_COLUMNS`).
STEP_COLUMNS = ("expected", "observed", "estimated", "duration")


class StepTrace:
    """One row per step: the strategy played and a float64 value per column.

    Columns are allocated for ``num_steps`` rows up front and start as NaN,
    so a value a step does not record (the index weight of a policy without
    one) reads as NaN.
    """

    def __init__(self, num_steps: int, extra_columns: Sequence[str] = ()) -> None:
        self.strategies: List[Strategy] = []
        self._columns = {
            name: np.full(num_steps, np.nan)
            for name in (*STEP_COLUMNS, *extra_columns)
        }

    def __len__(self) -> int:
        return len(self.strategies)

    def append(self, strategy: Strategy, **values: Optional[float]) -> None:
        """Record the next step; a ``None`` value leaves its column NaN."""
        row = len(self.strategies)
        for name, value in values.items():
            if value is not None:
                self._columns[name][row] = value
        self.strategies.append(strategy)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column over the recorded steps."""
        view = self._columns[name][: len(self.strategies)]
        view.flags.writeable = False
        return view


@dataclass
class SimulationResult:
    """Trace of one per-round policy run.

    ``optimal_value`` (``R_1``, when known) and ``theta`` parameterise the
    :attr:`tracker` regret view.
    """

    policy_name: str
    trace: StepTrace
    optimal_value: Optional[float] = None
    theta: float = 1.0

    @property
    def num_rounds(self) -> int:
        """Number of simulated rounds."""
        return len(self.trace)

    @property
    def tracker(self) -> RegretTracker:
        """Regret accounting over this run's expected and observed rewards."""
        return RegretTracker(
            optimal_value=self.optimal_value,
            theta=self.theta,
            expected_rewards=self.expected_rewards().tolist(),
            observed_rewards=self.observed_rewards().tolist(),
        )

    def expected_rewards(self) -> np.ndarray:
        """Per-round expected throughputs."""
        return self.trace.column("expected")

    def observed_rewards(self) -> np.ndarray:
        """Per-round observed throughputs."""
        return self.trace.column("observed")

    def estimated_weights(self) -> np.ndarray:
        """Per-round estimated strategy weights (NaN when not recorded)."""
        return self.trace.column("estimated")

    def round_durations(self) -> np.ndarray:
        """Per-round wall-clock seconds."""
        return self.trace.column("duration")

    def total_wall_clock(self) -> float:
        """Total measured wall-clock seconds across all rounds."""
        return float(np.nansum(self.round_durations()))
