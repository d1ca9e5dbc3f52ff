"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of one
experiment: the topology, the channel environment, the policies under test,
the schedule (per-round bandit run, periodic stale-weight run, or a pure
strategy-decision protocol run) and the replication plan.  Specs round-trip
losslessly through ``to_dict()``/``from_dict()`` (and therefore through
JSON), validate themselves with actionable error messages, and know how to
materialize the runtime objects (:class:`~repro.api.ChannelAccessSystem`,
policies) they describe.

The tree::

    ScenarioSpec
    ├── TopologySpec      which conflict graph to build
    ├── ChannelSpec       which ground-truth channel state to attach
    ├── PolicySpec        one per learning policy under test (a tuple)
    ├── ScheduleSpec      per-round | periodic | protocol
    ├── DynamicsSpec      optional topology dynamics (churn / flap / mobility)
    ├── TransportSpec     which message transport carries the protocol
    ├── FaultSpec         optional crash-stop / Byzantine fault injection
    └── ReplicationSpec   how many seed-streamed replications, how many jobs

Running a spec is :func:`repro.spec.runner.run_scenario`; naming and sharing
specs is :mod:`repro.spec.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channels.catalog import DEFAULT_RELATIVE_STD, assign_rates_to_network
from repro.channels.state import ChannelState
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.topology import (
    connected_random_network,
    grid_network,
    linear_network,
    random_network,
    ring_network,
    star_network,
)

__all__ = [
    "SpecError",
    "TopologySpec",
    "ChannelSpec",
    "PolicySpec",
    "ScheduleSpec",
    "DynamicsSpec",
    "TransportSpec",
    "FaultSpec",
    "ReplicationSpec",
    "ScenarioSpec",
]

#: Extended graphs above this many vertices switch the protocol's local MWIS
#: from exact enumeration to the greedy constant-approximation (the same
#: threshold the fig6/fig8/complexity presets have always used).
AUTO_GREEDY_VERTEX_THRESHOLD = 400


class SpecError(ValueError):
    """A scenario specification is invalid or cannot be deserialized."""


# ----------------------------------------------------------------------
# (De)serialization helpers shared by every spec class
# ----------------------------------------------------------------------
def _require_mapping(data, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{path}: expected a JSON object, got {type(data).__name__}"
        )
    return data


def _check_keys(data: Mapping, cls, path: str) -> None:
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"{path}: unknown field(s) {unknown}; allowed fields are {sorted(allowed)}"
        )


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{path}: expected a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{path}: expected true/false, got {value!r}")
    return value


def _choice(value, options: Sequence[str], path: str) -> str:
    value = _as_str(value, path)
    if value not in options:
        raise SpecError(
            f"{path}: unknown value {value!r}; choose one of {sorted(options)}"
        )
    return value


def _reject_foreign_fields(spec, owner_kinds: Mapping[str, Sequence[str]], path: str) -> None:
    """Reject non-default values of fields that the chosen kind never reads.

    A silently ignored knob is worse than an error: it changes the content
    hash (planning no-op sweep axes that recompute identical results) while
    changing nothing about the run.  ``owner_kinds`` maps field name to the
    kinds that actually consume it.
    """
    defaults = {f.name: f.default for f in fields(spec)}
    for name, kinds in owner_kinds.items():
        if spec.kind not in kinds and getattr(spec, name) != defaults[name]:
            owners = "/".join(f"'{kind}'" for kind in kinds)
            raise SpecError(
                f"{path}.{name}: only meaningful with kind={owners} "
                f"(got kind={spec.kind!r})"
            )


# ----------------------------------------------------------------------
# TopologySpec
# ----------------------------------------------------------------------
TOPOLOGY_KINDS = ("random", "connected-random", "linear", "grid", "ring", "star")


@dataclass(frozen=True)
class TopologySpec:
    """Which conflict graph to build.

    ``random`` / ``connected-random`` are the paper's unit-disk deployments
    (``average_degree`` controls density); ``linear`` is the Fig. 5 worst
    case; ``grid`` needs ``rows`` and ``cols`` (``num_nodes = rows * cols``);
    ``ring`` and ``star`` are the combinatorial test topologies.
    """

    kind: str = "random"
    num_nodes: int = 20
    num_channels: int = 3
    #: Target average conflict degree (random kinds only).
    average_degree: float = 6.0
    #: Grid shape; only used (and required) by ``kind="grid"``.
    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "topology") -> None:
        """Raise :class:`SpecError` when the topology is ill-formed."""
        if self.kind not in TOPOLOGY_KINDS:
            raise SpecError(
                f"{path}.kind: unknown topology kind {self.kind!r}; "
                f"choose one of {sorted(TOPOLOGY_KINDS)}"
            )
        if self.num_nodes <= 0:
            raise SpecError(
                f"{path}.num_nodes: must be positive, got {self.num_nodes}"
            )
        if self.num_channels <= 0:
            raise SpecError(
                f"{path}.num_channels: must be positive, got {self.num_channels}"
            )
        if self.kind in ("random", "connected-random") and self.average_degree <= 0:
            raise SpecError(
                f"{path}.average_degree: must be positive for {self.kind!r} "
                f"topologies, got {self.average_degree}"
            )
        if self.kind == "grid":
            if self.rows <= 0 or self.cols <= 0:
                raise SpecError(
                    f"{path}: grid topologies need positive rows and cols, "
                    f"got rows={self.rows}, cols={self.cols}"
                )
            if self.rows * self.cols != self.num_nodes:
                raise SpecError(
                    f"{path}: num_nodes ({self.num_nodes}) must equal "
                    f"rows * cols ({self.rows} * {self.cols} = {self.rows * self.cols})"
                )
        if self.kind == "star" and self.num_nodes < 2:
            raise SpecError(
                f"{path}.num_nodes: a star needs a hub and at least one leaf "
                f"(num_nodes >= 2), got {self.num_nodes}"
            )

    def with_size(self, num_nodes: int, num_channels: int) -> "TopologySpec":
        """The same topology family at a different ``(N, M)`` (sweep support)."""
        return replace(self, num_nodes=num_nodes, num_channels=num_channels)

    def build(self, rng: np.random.Generator) -> ConflictGraph:
        """Materialize the conflict graph, drawing positions from ``rng``."""
        if self.kind == "random":
            return random_network(
                self.num_nodes,
                self.num_channels,
                average_degree=self.average_degree,
                rng=rng,
            )
        if self.kind == "connected-random":
            return connected_random_network(
                self.num_nodes,
                self.num_channels,
                average_degree=self.average_degree,
                rng=rng,
            )
        if self.kind == "linear":
            return linear_network(self.num_nodes, self.num_channels)
        if self.kind == "grid":
            return grid_network(self.rows, self.cols, self.num_channels)
        if self.kind == "ring":
            return ring_network(self.num_nodes, self.num_channels)
        if self.kind == "star":
            return star_network(self.num_nodes - 1, self.num_channels)
        raise SpecError(f"unhandled topology kind {self.kind!r}")  # pragma: no cover

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "num_nodes": self.num_nodes,
            "num_channels": self.num_channels,
            "average_degree": self.average_degree,
            "rows": self.rows,
            "cols": self.cols,
        }

    @classmethod
    def from_dict(cls, data, path: str = "topology") -> "TopologySpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "kind" in data:
            kwargs["kind"] = _choice(data["kind"], TOPOLOGY_KINDS, f"{path}.kind")
        for name in ("num_nodes", "num_channels", "rows", "cols"):
            if name in data:
                kwargs[name] = _as_int(data[name], f"{path}.{name}")
        if "average_degree" in data:
            kwargs["average_degree"] = _as_float(
                data["average_degree"], f"{path}.average_degree"
            )
        return cls(**kwargs)


# ----------------------------------------------------------------------
# ChannelSpec
# ----------------------------------------------------------------------
CHANNEL_KINDS = ("paper-rates", "mean-matrix", "gilbert-elliott", "adversarial")

#: Channel kinds whose models mutate internal state on sampling; they cannot
#: be averaged over replications (successive draws are coupled).
STATEFUL_CHANNEL_KINDS = ("gilbert-elliott", "adversarial")


@dataclass(frozen=True)
class ChannelSpec:
    """Which ground-truth channel environment to attach.

    ``paper-rates`` draws each (node, channel) mean uniformly from the
    paper's 8-rate catalogue (or a custom ``rates`` pool) and evolves every
    channel as an i.i.d. zero-clipped Gaussian with ``relative_std`` of the
    mean; ``mean-matrix`` pins the exact ``(N, M)`` mean matrix in the spec,
    making the scenario's environment fully declarative.

    The beyond-i.i.d. models of the paper's future-work section
    (:mod:`repro.channels.dynamics`) are reachable declaratively too:
    ``gilbert-elliott`` gives every (node, channel) pair a two-state Markov
    channel whose good-state rate is drawn from the rate pool (bad rate =
    ``ge_bad_fraction`` of it); ``adversarial`` commits every pair to a
    seeded oblivious gain sequence of length ``adversarial_period`` drawn
    from the pool.  Both are *stateful*, so scenarios using them are
    restricted to one replication.
    """

    kind: str = "paper-rates"
    relative_std: float = DEFAULT_RELATIVE_STD
    #: Custom rate pool (``None`` = the paper catalogue); used by every kind
    #: except ``mean-matrix``.
    rates: Optional[Tuple[float, ...]] = None
    #: Pinned mean matrix for ``mean-matrix`` (row per node).
    means: Optional[Tuple[Tuple[float, ...], ...]] = None
    #: Gilbert-Elliott: bad-state rate as a fraction of the good-state rate.
    ge_bad_fraction: float = 0.25
    #: Gilbert-Elliott transition probabilities per sample.
    ge_p_good_to_bad: float = 0.1
    ge_p_bad_to_good: float = 0.3
    #: Adversarial: length of each pair's committed gain sequence.
    adversarial_period: int = 16

    def __post_init__(self) -> None:
        self.validate()

    @property
    def is_stateful(self) -> bool:
        """Whether this environment's models mutate state on sampling."""
        return self.kind in STATEFUL_CHANNEL_KINDS

    def validate(self, path: str = "channels") -> None:
        """Raise :class:`SpecError` when the channel spec is ill-formed."""
        if self.kind not in CHANNEL_KINDS:
            raise SpecError(
                f"{path}.kind: unknown channel kind {self.kind!r}; "
                f"choose one of {sorted(CHANNEL_KINDS)}"
            )
        if self.relative_std < 0:
            raise SpecError(
                f"{path}.relative_std: must be non-negative, got {self.relative_std}"
            )
        if self.kind != "mean-matrix":
            if self.means is not None:
                raise SpecError(
                    f"{path}.means: only valid with kind='mean-matrix' "
                    f"(got kind={self.kind!r})"
                )
            if self.rates is not None and len(self.rates) == 0:
                raise SpecError(f"{path}.rates: the rate pool must not be empty")
        if self.kind == "mean-matrix":
            if self.rates is not None:
                raise SpecError(
                    f"{path}.rates: only valid with rate-pool kinds "
                    f"(got kind={self.kind!r})"
                )
            if not self.means:
                raise SpecError(
                    f"{path}.means: kind='mean-matrix' needs a non-empty "
                    "row-per-node matrix of mean rates"
                )
            width = len(self.means[0])
            if width == 0 or any(len(row) != width for row in self.means):
                raise SpecError(
                    f"{path}.means: all rows must have the same positive length"
                )
        _reject_foreign_fields(
            self,
            {
                "relative_std": ("paper-rates", "mean-matrix"),
                "ge_bad_fraction": ("gilbert-elliott",),
                "ge_p_good_to_bad": ("gilbert-elliott",),
                "ge_p_bad_to_good": ("gilbert-elliott",),
                "adversarial_period": ("adversarial",),
            },
            path,
        )
        if self.kind == "gilbert-elliott":
            if not (0.0 <= self.ge_bad_fraction <= 1.0):
                raise SpecError(
                    f"{path}.ge_bad_fraction: must be in [0, 1], "
                    f"got {self.ge_bad_fraction}"
                )
            for name in ("ge_p_good_to_bad", "ge_p_bad_to_good"):
                value = getattr(self, name)
                if not (0.0 <= value <= 1.0):
                    raise SpecError(f"{path}.{name}: must be in [0, 1], got {value}")
            if self.ge_p_good_to_bad + self.ge_p_bad_to_good == 0.0:
                raise SpecError(
                    f"{path}: the Gilbert-Elliott chain must be able to move "
                    "between states (both transition probabilities are 0)"
                )
        if self.kind == "adversarial" and self.adversarial_period < 1:
            raise SpecError(
                f"{path}.adversarial_period: must be >= 1, "
                f"got {self.adversarial_period}"
            )

    def _build_stateful_models(
        self, num_nodes: int, num_channels: int, rng: np.random.Generator
    ):
        """Per-pair model grid for the stateful kinds (one rng stream)."""
        from repro.channels.catalog import PAPER_RATES_KBPS
        from repro.channels.dynamics import AdversarialChannel, GilbertElliottChannel

        pool = np.asarray(
            self.rates if self.rates is not None else PAPER_RATES_KBPS, dtype=float
        )
        if self.kind == "gilbert-elliott":
            good = assign_rates_to_network(
                num_nodes, num_channels, rng=rng, rates=self.rates
            )
            return [
                [
                    GilbertElliottChannel(
                        good_rate=float(good[node, channel]),
                        bad_rate=float(good[node, channel]) * self.ge_bad_fraction,
                        p_good_to_bad=self.ge_p_good_to_bad,
                        p_bad_to_good=self.ge_p_bad_to_good,
                    )
                    for channel in range(num_channels)
                ]
                for node in range(num_nodes)
            ]
        if self.kind == "adversarial":
            draws = rng.integers(
                0, pool.size, size=(num_nodes, num_channels, self.adversarial_period)
            )
            return [
                [
                    AdversarialChannel(pool[draws[node, channel]].tolist())
                    for channel in range(num_channels)
                ]
                for node in range(num_nodes)
            ]
        raise SpecError(f"unhandled stateful channel kind {self.kind!r}")  # pragma: no cover

    def build_means(
        self, num_nodes: int, num_channels: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The ``(N, M)`` true-mean matrix of this environment.

        For the stateful kinds the means are the stationary (Gilbert-Elliott)
        or sequence-average (adversarial) means of the seeded models, so they
        consume the generator exactly like :meth:`build_state` does.
        """
        if self.kind == "mean-matrix":
            means = np.asarray(self.means, dtype=float)
            if means.shape != (num_nodes, num_channels):
                raise SpecError(
                    f"channels.means: shape {means.shape} does not match the "
                    f"topology ({num_nodes} nodes x {num_channels} channels)"
                )
            return means
        if self.is_stateful:
            models = self._build_stateful_models(num_nodes, num_channels, rng)
            return np.array(
                [[model.mean for model in row] for row in models], dtype=float
            )
        return assign_rates_to_network(
            num_nodes, num_channels, rng=rng, rates=self.rates
        )

    def build_state(
        self, num_nodes: int, num_channels: int, rng: np.random.Generator
    ) -> ChannelState:
        """Materialize the :class:`~repro.channels.state.ChannelState`."""
        if self.is_stateful:
            return ChannelState(
                self._build_stateful_models(num_nodes, num_channels, rng)
            )
        means = self.build_means(num_nodes, num_channels, rng)
        return ChannelState.from_mean_matrix(means, relative_std=self.relative_std)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "relative_std": self.relative_std,
            "rates": list(self.rates) if self.rates is not None else None,
            "means": [list(row) for row in self.means] if self.means is not None else None,
            "ge_bad_fraction": self.ge_bad_fraction,
            "ge_p_good_to_bad": self.ge_p_good_to_bad,
            "ge_p_bad_to_good": self.ge_p_bad_to_good,
            "adversarial_period": self.adversarial_period,
        }

    @classmethod
    def from_dict(cls, data, path: str = "channels") -> "ChannelSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "kind" in data:
            kwargs["kind"] = _choice(data["kind"], CHANNEL_KINDS, f"{path}.kind")
        for name in ("relative_std", "ge_bad_fraction", "ge_p_good_to_bad", "ge_p_bad_to_good"):
            if name in data:
                kwargs[name] = _as_float(data[name], f"{path}.{name}")
        if "adversarial_period" in data:
            kwargs["adversarial_period"] = _as_int(
                data["adversarial_period"], f"{path}.adversarial_period"
            )
        if data.get("rates") is not None:
            raw = data["rates"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(f"{path}.rates: expected a list of numbers, got {raw!r}")
            kwargs["rates"] = tuple(
                _as_float(rate, f"{path}.rates[{i}]") for i, rate in enumerate(raw)
            )
        if data.get("means") is not None:
            raw = data["means"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(
                    f"{path}.means: expected a list of per-node rows, got {raw!r}"
                )
            rows = []
            for i, row in enumerate(raw):
                if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
                    raise SpecError(
                        f"{path}.means[{i}]: expected a list of numbers, got {row!r}"
                    )
                rows.append(
                    tuple(_as_float(v, f"{path}.means[{i}][{j}]") for j, v in enumerate(row))
                )
            kwargs["means"] = tuple(rows)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# PolicySpec
# ----------------------------------------------------------------------
POLICY_KINDS = ("algorithm2", "llr", "oracle")
SOLVER_CHOICES = ("auto", "exact", "greedy")

_DEFAULT_LABELS = {"algorithm2": "Algorithm2", "llr": "LLR", "oracle": "Oracle"}


@dataclass(frozen=True)
class PolicySpec:
    """One policy under test.

    ``algorithm2`` is the paper's combinatorial-UCB learner, ``llr`` the LLR
    baseline, ``oracle`` the genie playing the optimal fixed strategy.  ``r``
    is the robust-PTAS radius of the distributed strategy decision and
    ``solver`` picks the local MWIS inside the protocol: ``auto`` uses exact
    enumeration up to :data:`AUTO_GREEDY_VERTEX_THRESHOLD` extended-graph
    vertices and the greedy constant-approximation above it (the thresholds
    the paper experiments used); ``exact``/``greedy`` force one.
    """

    kind: str = "algorithm2"
    #: Display label; defaults to the conventional name for the kind.
    label: Optional[str] = None
    #: Robust-PTAS radius of the strategy decision.
    r: int = 2
    solver: str = "auto"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "policies[?]") -> None:
        """Raise :class:`SpecError` when the policy spec is ill-formed."""
        if self.kind not in POLICY_KINDS:
            raise SpecError(
                f"{path}.kind: unknown policy kind {self.kind!r}; "
                f"choose one of {sorted(POLICY_KINDS)}"
            )
        if self.label is not None and not self.label:
            raise SpecError(f"{path}.label: must be a non-empty string when given")
        if self.r < 1:
            raise SpecError(f"{path}.r: the PTAS radius must be >= 1, got {self.r}")
        if self.solver not in SOLVER_CHOICES:
            raise SpecError(
                f"{path}.solver: unknown solver {self.solver!r}; "
                f"choose one of {sorted(SOLVER_CHOICES)}"
            )

    @property
    def display_label(self) -> str:
        """Label used to key this policy's series in results."""
        return self.label if self.label is not None else _DEFAULT_LABELS[self.kind]

    def use_greedy_local_solver(self, num_vertices: int) -> bool:
        """Whether the protocol's local MWIS should be the greedy solver."""
        if self.solver == "greedy":
            return True
        if self.solver == "exact":
            return False
        return num_vertices > AUTO_GREEDY_VERTEX_THRESHOLD

    def build(self, system):
        """Materialize the policy against a :class:`~repro.api.ChannelAccessSystem`."""
        # Imported here: repro.api imports repro.sim, which this module must
        # stay importable without at class-definition time.
        from repro.distributed.framework import DistributedMWISSolver

        if self.kind == "oracle":
            return system.oracle_policy()
        local_solver = self.build_local_solver(system.extended_graph.num_vertices)
        solver = DistributedMWISSolver(
            system.extended_graph, r=self.r, local_solver=local_solver
        )
        if self.kind == "algorithm2":
            return system.paper_policy(solver=solver, r=self.r)
        if self.kind == "llr":
            return system.llr_policy(solver=solver, r=self.r)
        raise SpecError(f"unhandled policy kind {self.kind!r}")  # pragma: no cover

    def build_local_solver(self, num_vertices: int):
        """The protocol's local MWIS solver this spec selects (or ``None``).

        ``None`` means exact enumeration (the protocol default); the greedy
        constant-approximation is returned per the ``solver`` field / the
        auto threshold.  Shared by the static builder and the dynamics
        engine so ``--set policies.0.solver=...`` reaches both.
        """
        from repro.mwis.greedy import GreedyMWISSolver

        return GreedyMWISSolver() if self.use_greedy_local_solver(num_vertices) else None

    def build_dynamic(self, engine, index_graph, reward_scale: float):
        """Materialize the policy against a dynamic-topology engine.

        ``engine`` is a :class:`~repro.dynamics.engine.DynamicStrategyEngine`;
        ``index_graph`` the static arm-index frame (vertex <-> (node,
        channel) never changes under dynamics).  The policy's strategy
        decisions run through :meth:`engine.solver`, so they always see the
        current topology.  ``oracle`` has no meaning under a changing
        topology and is rejected by :meth:`ScenarioSpec.validate`.
        """
        from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy

        solver = engine.solver()
        if self.kind == "algorithm2":
            return CombinatorialUCBPolicy(
                index_graph, solver=solver, reward_scale=reward_scale
            )
        if self.kind == "llr":
            return LLRPolicy(index_graph, solver=solver, reward_scale=reward_scale)
        raise SpecError(
            f"policy kind {self.kind!r} is not supported under dynamics"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {"kind": self.kind, "label": self.label, "r": self.r, "solver": self.solver}

    @classmethod
    def from_dict(cls, data, path: str = "policies[?]") -> "PolicySpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "kind" in data:
            kwargs["kind"] = _choice(data["kind"], POLICY_KINDS, f"{path}.kind")
        if data.get("label") is not None:
            kwargs["label"] = _as_str(data["label"], f"{path}.label")
        if "r" in data:
            kwargs["r"] = _as_int(data["r"], f"{path}.r")
        if "solver" in data:
            kwargs["solver"] = _choice(data["solver"], SOLVER_CHOICES, f"{path}.solver")
        return cls(**kwargs)


# ----------------------------------------------------------------------
# ScheduleSpec
# ----------------------------------------------------------------------
SCHEDULE_MODES = ("per-round", "periodic", "protocol")


@dataclass(frozen=True)
class ScheduleSpec:
    """When strategy decisions happen.

    * ``per-round`` — the Fig. 7 regime: one strategy decision per time slot
      for ``num_rounds`` slots (dispatches to ``simulate_batch``).
    * ``periodic`` — the Fig. 8 / Section V-C regime: one decision per period
      of ``y`` slots, for every ``y`` in ``periods``, ``num_periods`` updates
      each (dispatches to ``simulate_periodic``).
    * ``protocol`` — no bandit at all: run the distributed strategy decision
      (Algorithm 3) once per topology and record its convergence trajectory
      and per-vertex costs (the Fig. 6 / Section IV-C studies).
      ``max_mini_rounds`` pads/truncates the reported trajectory (0 = raw).
    """

    mode: str = "per-round"
    num_rounds: int = 1000
    periods: Tuple[int, ...] = (1, 5, 10, 20)
    num_periods: int = 1000
    max_mini_rounds: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "schedule") -> None:
        """Raise :class:`SpecError` when the schedule is ill-formed."""
        if self.mode not in SCHEDULE_MODES:
            raise SpecError(
                f"{path}.mode: unknown schedule mode {self.mode!r}; "
                f"choose one of {sorted(SCHEDULE_MODES)}"
            )
        if self.mode == "per-round" and self.num_rounds <= 0:
            raise SpecError(
                f"{path}.num_rounds: must be positive, got {self.num_rounds}"
            )
        if self.mode == "periodic":
            if not self.periods:
                raise SpecError(
                    f"{path}.periods: periodic schedules need at least one "
                    "update period"
                )
            bad = [p for p in self.periods if p < 1]
            if bad:
                raise SpecError(
                    f"{path}.periods: every period must be >= 1 slot, got {bad}"
                )
            if self.num_periods <= 0:
                raise SpecError(
                    f"{path}.num_periods: must be positive, got {self.num_periods}"
                )
        if self.mode == "protocol" and self.max_mini_rounds < 0:
            raise SpecError(
                f"{path}.max_mini_rounds: must be >= 0 (0 = run to convergence "
                f"unpadded), got {self.max_mini_rounds}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "num_rounds": self.num_rounds,
            "periods": list(self.periods),
            "num_periods": self.num_periods,
            "max_mini_rounds": self.max_mini_rounds,
        }

    @classmethod
    def from_dict(cls, data, path: str = "schedule") -> "ScheduleSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "mode" in data:
            kwargs["mode"] = _choice(data["mode"], SCHEDULE_MODES, f"{path}.mode")
        for name in ("num_rounds", "num_periods", "max_mini_rounds"):
            if name in data:
                kwargs[name] = _as_int(data[name], f"{path}.{name}")
        if "periods" in data:
            raw = data["periods"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(
                    f"{path}.periods: expected a list of integers, got {raw!r}"
                )
            kwargs["periods"] = tuple(
                _as_int(p, f"{path}.periods[{i}]") for i, p in enumerate(raw)
            )
        return cls(**kwargs)


# ----------------------------------------------------------------------
# DynamicsSpec
# ----------------------------------------------------------------------
DYNAMICS_KINDS = ("poisson-churn", "periodic-flap", "random-waypoint", "trace")

#: Topology kinds that carry node positions (eligible for mobility and for
#: repositioning arrivals).
GEOMETRIC_TOPOLOGY_KINDS = ("random", "connected-random", "linear", "grid")

#: Spawn-key tag separating the dynamics event stream from the topology /
#: channel draw stream rooted at the same scenario seed.
_DYNAMICS_STREAM_TAG = 0xD1CE


@dataclass(frozen=True)
class DynamicsSpec:
    """Topology dynamics threaded between learning rounds.

    When present on a :class:`ScenarioSpec` (per-round schedules only), a
    deterministic, seeded event schedule is generated from the scenario
    seed and applied between rounds by
    :class:`~repro.sim.dynamic.DynamicSimulator`:

    * ``poisson-churn`` — ``Poisson(rate)`` node departures/arrivals per
      round (arrivals with probability ``arrival_bias`` when a departed
      node exists; the active population never drops below ``min_active``);
    * ``periodic-flap`` — a seeded ``flap_fraction`` of the conflict edges
      goes down/up every ``period`` rounds;
    * ``random-waypoint`` — every node walks toward uniform waypoints at
      ``speed`` distance units per round, sampled every ``step_every``
      rounds (geometric topologies only);
    * ``trace`` — the scripted ``trace`` events are replayed verbatim.
    """

    kind: str = "poisson-churn"
    #: Poisson churn: expected topology events per learning round.
    rate: float = 0.02
    arrival_bias: float = 0.5
    min_active: int = 1
    #: Periodic flap: rounds between toggles and edge fraction flapped.
    period: int = 50
    flap_fraction: float = 0.2
    #: Random waypoint: speed (distance units / round) and sampling stride.
    speed: float = 0.5
    step_every: int = 10
    #: Scripted events for ``kind='trace'``.
    trace: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        # Normalize trace entries to event objects so specs built from
        # Python literals and specs deserialized from JSON compare equal.
        if self.trace:
            from repro.dynamics.events import TopologyEvent, event_from_dict

            normalized = []
            for index, entry in enumerate(self.trace):
                if isinstance(entry, TopologyEvent):
                    normalized.append(entry)
                else:
                    try:
                        normalized.append(
                            event_from_dict(entry, f"dynamics.trace[{index}]")
                        )
                    except ValueError as err:
                        raise SpecError(str(err)) from None
            object.__setattr__(self, "trace", tuple(normalized))
        self.validate()

    def validate(self, path: str = "dynamics") -> None:
        """Raise :class:`SpecError` when the dynamics spec is ill-formed."""
        if self.kind not in DYNAMICS_KINDS:
            raise SpecError(
                f"{path}.kind: unknown dynamics kind {self.kind!r}; "
                f"choose one of {sorted(DYNAMICS_KINDS)}"
            )
        _reject_foreign_fields(
            self,
            {
                "rate": ("poisson-churn",),
                "arrival_bias": ("poisson-churn",),
                "min_active": ("poisson-churn",),
                "period": ("periodic-flap",),
                "flap_fraction": ("periodic-flap",),
                "speed": ("random-waypoint",),
                "step_every": ("random-waypoint",),
                "trace": ("trace",),
            },
            path,
        )
        if self.kind == "poisson-churn":
            if self.rate <= 0:
                raise SpecError(f"{path}.rate: must be positive, got {self.rate}")
            if not (0.0 <= self.arrival_bias <= 1.0):
                raise SpecError(
                    f"{path}.arrival_bias: must be in [0, 1], got {self.arrival_bias}"
                )
            if self.min_active < 1:
                raise SpecError(
                    f"{path}.min_active: at least one node must stay active, "
                    f"got {self.min_active}"
                )
        if self.kind == "periodic-flap":
            if self.period < 1:
                raise SpecError(f"{path}.period: must be >= 1, got {self.period}")
            if not (0.0 < self.flap_fraction <= 1.0):
                raise SpecError(
                    f"{path}.flap_fraction: must be in (0, 1], got {self.flap_fraction}"
                )
        if self.kind == "random-waypoint":
            if self.speed <= 0:
                raise SpecError(f"{path}.speed: must be positive, got {self.speed}")
            if self.step_every < 1:
                raise SpecError(
                    f"{path}.step_every: must be >= 1, got {self.step_every}"
                )
        if self.kind == "trace" and not self.trace:
            raise SpecError(
                f"{path}.trace: kind='trace' needs at least one scripted event"
            )
        from repro.dynamics.events import TopologyEvent

        for index, event in enumerate(self.trace):
            if not isinstance(event, TopologyEvent):  # pragma: no cover - normalized
                raise SpecError(
                    f"{path}.trace[{index}]: expected a topology event object"
                )
            try:
                event.validate(f"{path}.trace[{index}]")
            except ValueError as err:
                raise SpecError(str(err)) from None

    def build_schedule(self, graph, num_rounds: int, seed: int):
        """Generate this spec's deterministic event schedule.

        The event stream is spawned from ``(seed, dynamics tag)`` so it is
        independent of the topology / channel draws rooted at the same seed,
        and identical across replications of one scenario.
        """
        from repro.dynamics.events import (
            EventSchedule,
            periodic_flap_schedule,
            poisson_churn_schedule,
            random_waypoint_schedule,
        )

        rng = np.random.default_rng([seed, _DYNAMICS_STREAM_TAG])
        if self.kind == "poisson-churn":
            return poisson_churn_schedule(
                graph,
                num_rounds,
                rate=self.rate,
                rng=rng,
                arrival_bias=self.arrival_bias,
                min_active=self.min_active,
            )
        if self.kind == "periodic-flap":
            return periodic_flap_schedule(
                graph, num_rounds, period=self.period,
                flap_fraction=self.flap_fraction, rng=rng,
            )
        if self.kind == "random-waypoint":
            try:
                return random_waypoint_schedule(
                    graph, num_rounds, speed=self.speed,
                    step_every=self.step_every, rng=rng,
                )
            except ValueError as err:
                raise SpecError(f"dynamics: {err}") from None
        if self.kind == "trace":
            return EventSchedule(
                event for event in self.trace if event.round_index <= num_rounds
            )
        raise SpecError(f"unhandled dynamics kind {self.kind!r}")  # pragma: no cover

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "rate": self.rate,
            "arrival_bias": self.arrival_bias,
            "min_active": self.min_active,
            "period": self.period,
            "flap_fraction": self.flap_fraction,
            "speed": self.speed,
            "step_every": self.step_every,
            "trace": [event.to_dict() for event in self.trace],
        }

    @classmethod
    def from_dict(cls, data, path: str = "dynamics") -> "DynamicsSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "kind" in data:
            kwargs["kind"] = _choice(data["kind"], DYNAMICS_KINDS, f"{path}.kind")
        for name in ("rate", "arrival_bias", "flap_fraction", "speed"):
            if name in data:
                kwargs[name] = _as_float(data[name], f"{path}.{name}")
        for name in ("min_active", "period", "step_every"):
            if name in data:
                kwargs[name] = _as_int(data[name], f"{path}.{name}")
        if "trace" in data:
            raw = data["trace"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(
                    f"{path}.trace: expected a list of event objects, got {raw!r}"
                )
            from repro.dynamics.events import event_from_dict

            events = []
            for index, entry in enumerate(raw):
                try:
                    events.append(event_from_dict(entry, f"{path}.trace[{index}]"))
                except ValueError as err:
                    raise SpecError(str(err)) from None
            kwargs["trace"] = tuple(events)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# ReplicationSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationSpec:
    """How many independent replications, on how many worker threads.

    Replication randomness is streamed with ``SeedSequence.spawn`` from the
    scenario seed, so replication ``i`` sees the same stream regardless of
    the total count or the thread schedule.
    """

    replications: int = 1
    jobs: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "replication") -> None:
        """Raise :class:`SpecError` when the replication plan is ill-formed."""
        if self.replications <= 0:
            raise SpecError(
                f"{path}.replications: must be positive, got {self.replications}"
            )
        if self.jobs <= 0:
            raise SpecError(f"{path}.jobs: must be positive, got {self.jobs}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {"replications": self.replications, "jobs": self.jobs}

    @classmethod
    def from_dict(cls, data, path: str = "replication") -> "ReplicationSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        for name in ("replications", "jobs"):
            if name in data:
                kwargs[name] = _as_int(data[name], f"{path}.{name}")
        return cls(**kwargs)


# ----------------------------------------------------------------------
# TransportSpec
# ----------------------------------------------------------------------
TRANSPORT_KINDS = ("simulated", "asyncio")

TRANSPORT_LATENCY_KINDS = ("none", "uniform", "exponential")

#: Domain-separation tag mixed into the transport fault stream so it can
#: never collide with the topology/channel stream rooted at the same seed.
_TRANSPORT_STREAM_TAG = 0x7A57


@dataclass(frozen=True)
class TransportSpec:
    """Which message transport runs the distributed protocol.

    ``simulated`` (the default) is the in-process oracle network: instant,
    in-order, lossless k-hop delivery.  ``asyncio`` runs the same protocol
    over real asyncio streams between per-vertex tasks, with every control
    message crossing the JSON wire codec; its ``latency`` / ``reorder`` /
    ``drop`` knobs inject the delivery faults the oracle cannot express.
    Under the lossless in-order default the two transports produce
    bit-identical protocol envelopes (the equivalence contract of
    ``docs/transport.md``), so flipping ``kind`` is always safe.

    Only ``schedule.mode='protocol'`` scenarios are wired to non-simulated
    transports (the per-round and periodic regimes run the decision many
    times and stay on the oracle).
    """

    kind: str = "simulated"
    #: Delivery latency distribution (asyncio only): ``none`` keeps arrivals
    #: in send order, ``uniform``/``exponential`` draw virtual delays.
    latency: str = "none"
    #: Scale of the latency distribution, in broadcast ticks (asyncio only).
    latency_scale: float = 1.0
    #: Randomly permute same-time deliveries (asyncio only).
    reorder: bool = False
    #: Per-(message, recipient) drop probability (asyncio only).
    drop: float = 0.0
    #: Extra seed of the fault stream, mixed with the scenario seed
    #: (asyncio only); lets sweeps vary faults without moving the topology.
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def is_lossless(self) -> bool:
        """Whether every broadcast reaches every in-range recipient."""
        return self.drop == 0.0

    def validate(self, path: str = "transport") -> None:
        """Raise :class:`SpecError` when the transport spec is ill-formed."""
        if self.kind not in TRANSPORT_KINDS:
            raise SpecError(
                f"{path}.kind: unknown transport kind {self.kind!r}; "
                f"choose one of {sorted(TRANSPORT_KINDS)}"
            )
        if self.latency not in TRANSPORT_LATENCY_KINDS:
            raise SpecError(
                f"{path}.latency: unknown latency kind {self.latency!r}; "
                f"choose one of {sorted(TRANSPORT_LATENCY_KINDS)}"
            )
        _reject_foreign_fields(
            self,
            {
                "latency": ("asyncio",),
                "latency_scale": ("asyncio",),
                "reorder": ("asyncio",),
                "drop": ("asyncio",),
                "seed": ("asyncio",),
            },
            path,
        )
        if not (0.0 <= self.drop < 1.0):
            raise SpecError(f"{path}.drop: must be in [0, 1), got {self.drop}")
        if self.latency_scale <= 0:
            raise SpecError(
                f"{path}.latency_scale: must be positive, got {self.latency_scale}"
            )
        if self.latency_scale != 1.0 and self.latency == "none":
            raise SpecError(
                f"{path}.latency_scale: only meaningful with "
                f"latency='uniform'/'exponential' (got latency='none')"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"{path}.seed: expected an integer, got {self.seed!r}")
        if self.seed < 0:
            raise SpecError(f"{path}.seed: must be non-negative, got {self.seed}")

    def build(
        self,
        adjacency,
        *,
        run_seed: int = 0,
        precomputed_neighborhoods=None,
    ):
        """Materialize the :class:`~repro.distributed.transport.Transport`.

        ``run_seed`` is the scenario seed; the asyncio fault stream is rooted
        at ``(run_seed, tag, transport.seed)`` so it is independent of the
        topology/channel draws.
        """
        from repro.distributed.runtime import AsyncioTransport
        from repro.distributed.transport import SimulatedTransport

        if self.kind == "simulated":
            return SimulatedTransport(
                adjacency, precomputed_neighborhoods=precomputed_neighborhoods
            )
        return AsyncioTransport(
            adjacency,
            precomputed_neighborhoods=precomputed_neighborhoods,
            latency=self.latency,
            latency_scale=self.latency_scale,
            reorder=self.reorder,
            drop_probability=self.drop,
            seed=[run_seed, _TRANSPORT_STREAM_TAG, self.seed],
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "latency": self.latency,
            "latency_scale": self.latency_scale,
            "reorder": self.reorder,
            "drop": self.drop,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data, path: str = "transport") -> "TransportSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        if "kind" in data:
            kwargs["kind"] = _choice(data["kind"], TRANSPORT_KINDS, f"{path}.kind")
        if "latency" in data:
            kwargs["latency"] = _choice(
                data["latency"], TRANSPORT_LATENCY_KINDS, f"{path}.latency"
            )
        if "latency_scale" in data:
            kwargs["latency_scale"] = _as_float(
                data["latency_scale"], f"{path}.latency_scale"
            )
        if "reorder" in data:
            kwargs["reorder"] = _as_bool(data["reorder"], f"{path}.reorder")
        if "drop" in data:
            kwargs["drop"] = _as_float(data["drop"], f"{path}.drop")
        if "seed" in data:
            kwargs["seed"] = _as_int(data["seed"], f"{path}.seed")
        return cls(**kwargs)


# ----------------------------------------------------------------------
# FaultSpec
# ----------------------------------------------------------------------
#: Byzantine behaviors selectable in a spec.  The concrete behaviors live in
#: :data:`repro.faults.plan.BYZANTINE_BEHAVIORS`; ``mixed`` assigns them
#: round-robin over the Byzantine vertices.
FAULT_BEHAVIORS = (
    "weight-inflation",
    "winner-usurpation",
    "conflicting-decisions",
    "mixed",
)

#: Domain-separation tag of the fault-plan stream, mixed with the scenario
#: seed (and the sweep cell) so fault draws never collide with the topology,
#: channel, dynamics or transport streams rooted at the same seed.
_FAULTS_STREAM_TAG = 0xFA17


@dataclass(frozen=True)
class FaultSpec:
    """Node faults injected into the distributed strategy decision.

    ``crash`` and ``byzantine`` are vertex fractions of the extended
    conflict graph (rounded to counts per sweep cell, at least one vertex
    when positive).  Crash-stop vertices go silent at a seeded phase
    boundary within mini-rounds ``0..max_crash_round``; Byzantine vertices
    follow ``behavior``.  With ``quorum=True`` the honest vertices run the
    evidence-checking mitigation: claims are cross-validated, inconsistent
    senders are excluded once ``quorum_threshold`` distinct accusers agree,
    and silent blockers are suspected crashed after the Algorithm-Two
    termination bound with slack ``eps``.

    A spec with both fractions zero describes the honest protocol: the
    runner then takes the exact honest code path, so ``f=0`` envelopes are
    bit-identical to runs without a ``faults`` node.
    """

    #: Fraction of vertices that crash-stop mid-protocol.
    crash: float = 0.0
    #: Fraction of vertices that lie (disjoint from the crashed set).
    byzantine: float = 0.0
    #: Byzantine strategy (byzantine > 0 only).
    behavior: str = "mixed"
    #: Latest mini-round a crash can be scheduled at (crash > 0 only).
    max_crash_round: int = 3
    #: Enable the quorum/evidence-checking mitigation in honest vertices.
    quorum: bool = False
    #: Distinct accusers needed for remote exclusion (quorum only).
    quorum_threshold: int = 2
    #: Approximation slack of the termination bound (quorum only).
    eps: float = 0.05
    #: Extra seed of the fault-plan stream, mixed with the scenario seed.
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def is_active(self) -> bool:
        """Whether any vertex is actually faulty (``f > 0``)."""
        return self.crash > 0.0 or self.byzantine > 0.0

    def validate(self, path: str = "faults") -> None:
        """Raise :class:`SpecError` when the fault spec is ill-formed."""
        for name in ("crash", "byzantine"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"{path}.{name}: expected a number, got {value!r}")
            if not (0.0 <= value < 1.0):
                raise SpecError(f"{path}.{name}: must be in [0, 1), got {value}")
        if self.crash + self.byzantine > 0.5:
            raise SpecError(
                f"{path}: crash + byzantine must be <= 0.5 (the termination "
                f"bound needs an honest majority), got "
                f"{self.crash} + {self.byzantine}"
            )
        if self.behavior not in FAULT_BEHAVIORS:
            raise SpecError(
                f"{path}.behavior: unknown behavior {self.behavior!r}; "
                f"choose one of {sorted(FAULT_BEHAVIORS)}"
            )
        if self.byzantine == 0.0 and self.behavior != "mixed":
            raise SpecError(
                f"{path}.behavior: only meaningful with byzantine > 0 "
                f"(got byzantine={self.byzantine})"
            )
        if isinstance(self.max_crash_round, bool) or not isinstance(
            self.max_crash_round, int
        ):
            raise SpecError(
                f"{path}.max_crash_round: expected an integer, "
                f"got {self.max_crash_round!r}"
            )
        if self.max_crash_round < 0:
            raise SpecError(
                f"{path}.max_crash_round: must be >= 0, got {self.max_crash_round}"
            )
        if self.crash == 0.0 and self.max_crash_round != 3:
            raise SpecError(
                f"{path}.max_crash_round: only meaningful with crash > 0 "
                f"(got crash={self.crash})"
            )
        if not isinstance(self.quorum, bool):
            raise SpecError(
                f"{path}.quorum: expected true/false, got {self.quorum!r}"
            )
        if isinstance(self.quorum_threshold, bool) or not isinstance(
            self.quorum_threshold, int
        ):
            raise SpecError(
                f"{path}.quorum_threshold: expected an integer, "
                f"got {self.quorum_threshold!r}"
            )
        if self.quorum_threshold < 1:
            raise SpecError(
                f"{path}.quorum_threshold: must be >= 1, "
                f"got {self.quorum_threshold}"
            )
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float)):
            raise SpecError(f"{path}.eps: expected a number, got {self.eps!r}")
        if not (0.0 < self.eps < 1.0):
            raise SpecError(f"{path}.eps: must be in (0, 1), got {self.eps}")
        if not self.quorum:
            if self.quorum_threshold != 2:
                raise SpecError(
                    f"{path}.quorum_threshold: only meaningful with quorum=true"
                )
            if self.eps != 0.05:
                raise SpecError(f"{path}.eps: only meaningful with quorum=true")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"{path}.seed: expected an integer, got {self.seed!r}")
        if self.seed < 0:
            raise SpecError(f"{path}.seed: must be non-negative, got {self.seed}")

    def build_plan(
        self, num_vertices: int, *, run_seed: int, cell: Tuple[int, int]
    ):
        """The seeded :class:`~repro.faults.plan.FaultPlan` of one sweep cell.

        The plan stream is rooted at ``(scenario seed, faults tag,
        faults.seed, num_nodes, num_channels)``: independent of every other
        stream, stable across transports, distinct per sweep cell.
        """
        from repro.faults.plan import generate_fault_plan

        rng = np.random.default_rng(
            [run_seed, _FAULTS_STREAM_TAG, self.seed, cell[0], cell[1]]
        )
        return generate_fault_plan(
            num_vertices,
            crash_fraction=self.crash,
            byzantine_fraction=self.byzantine,
            behavior=self.behavior,
            max_crash_round=self.max_crash_round,
            rng=rng,
        )

    def build_quorum(self):
        """The :class:`~repro.faults.quorum.QuorumConfig`, or ``None``."""
        from repro.faults.quorum import QuorumConfig

        if not self.quorum:
            return None
        return QuorumConfig(threshold=self.quorum_threshold, eps=self.eps)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "crash": self.crash,
            "byzantine": self.byzantine,
            "behavior": self.behavior,
            "max_crash_round": self.max_crash_round,
            "quorum": self.quorum,
            "quorum_threshold": self.quorum_threshold,
            "eps": self.eps,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data, path: str = "faults") -> "FaultSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        kwargs: Dict[str, object] = {}
        for name in ("crash", "byzantine", "eps"):
            if name in data:
                kwargs[name] = _as_float(data[name], f"{path}.{name}")
        if "behavior" in data:
            kwargs["behavior"] = _choice(
                data["behavior"], FAULT_BEHAVIORS, f"{path}.behavior"
            )
        for name in ("max_crash_round", "quorum_threshold", "seed"):
            if name in data:
                kwargs[name] = _as_int(data[name], f"{path}.{name}")
        if "quorum" in data:
            kwargs["quorum"] = _as_bool(data["quorum"], f"{path}.quorum")
        try:
            return cls(**kwargs)
        except SpecError as err:
            # Re-prefix validation errors (all start with "faults." or
            # "faults:") with the caller's path.
            raise SpecError(str(err).replace("faults", path, 1)) from None


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment scenario.

    ``network_sweep`` (protocol mode only) re-runs the scenario once per
    ``(num_nodes, num_channels)`` pair with the topology acting as a
    template — the Fig. 6 / complexity sweeps.  ``alpha`` is the assumed
    approximation ratio of the beta-regret benchmark and ``compute_optimal``
    controls whether the optimal fixed-strategy throughput ``R_1`` is brute
    forced before a per-round run (only feasible for small networks).
    """

    name: str
    seed: int = 2014
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    channels: ChannelSpec = field(default_factory=ChannelSpec)
    policies: Tuple[PolicySpec, ...] = (
        PolicySpec(kind="algorithm2"),
        PolicySpec(kind="llr"),
    )
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    #: Topology dynamics threaded between rounds (per-round schedules only).
    dynamics: Optional[DynamicsSpec] = None
    #: Message transport of the distributed protocol (protocol mode only
    #: for non-simulated kinds).  Never ``None`` so ``--set transport.kind``
    #: overrides always have a node to land on.
    transport: TransportSpec = field(default_factory=TransportSpec)
    #: Crash-stop / Byzantine faults in the strategy decision (protocol
    #: mode only).  ``None`` and ``f=0`` both mean the honest protocol.
    faults: Optional[FaultSpec] = None
    replication: ReplicationSpec = field(default_factory=ReplicationSpec)
    network_sweep: Tuple[Tuple[int, int], ...] = ()
    #: Approximation ratio assumed by the beta-regret benchmark (Fig. 7b).
    alpha: float = 4.0
    #: Brute-force the optimal fixed strategy before per-round runs.
    compute_optimal: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "scenario") -> None:
        """Raise :class:`SpecError` when the scenario is ill-formed."""
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"{path}.name: every scenario needs a non-empty name")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"{path}.seed: expected an integer, got {self.seed!r}")
        if self.seed < 0:
            raise SpecError(
                f"{path}.seed: must be non-negative (numpy seeds reject "
                f"negative integers), got {self.seed}"
            )
        self.topology.validate(f"{path}.topology")
        self.channels.validate(f"{path}.channels")
        self.schedule.validate(f"{path}.schedule")
        self.transport.validate(f"{path}.transport")
        self.replication.validate(f"{path}.replication")
        if self.transport.kind != "simulated" and self.schedule.mode != "protocol":
            raise SpecError(
                f"{path}.transport.kind: the {self.transport.kind!r} transport "
                f"is only wired into schedule.mode='protocol' runs "
                f"(got {self.schedule.mode!r})"
            )
        if not self.policies:
            raise SpecError(
                f"{path}.policies: at least one policy is required (protocol "
                "scenarios use the first policy's r / solver for the strategy "
                "decision)"
            )
        labels = []
        for index, policy in enumerate(self.policies):
            policy.validate(f"{path}.policies[{index}]")
            labels.append(policy.display_label)
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        if duplicates:
            raise SpecError(
                f"{path}.policies: duplicate policy label(s) {duplicates}; "
                "give each policy a distinct 'label'"
            )
        if self.alpha <= 0:
            raise SpecError(f"{path}.alpha: must be positive, got {self.alpha}")
        if self.network_sweep:
            if self.schedule.mode != "protocol":
                raise SpecError(
                    f"{path}.network_sweep: only supported with "
                    f"schedule.mode='protocol' (got {self.schedule.mode!r})"
                )
            if self.topology.kind not in ("random", "connected-random"):
                raise SpecError(
                    f"{path}.network_sweep: needs a scalable topology kind "
                    f"('random' or 'connected-random'), got {self.topology.kind!r}"
                )
            for index, cell in enumerate(self.network_sweep):
                if (
                    len(cell) != 2
                    or any(isinstance(v, bool) or not isinstance(v, int) for v in cell)
                    or any(v <= 0 for v in cell)
                ):
                    raise SpecError(
                        f"{path}.network_sweep[{index}]: expected a "
                        f"[num_nodes, num_channels] pair of positive integers, "
                        f"got {cell!r}"
                    )
        if self.channels.kind == "mean-matrix" and self.network_sweep:
            raise SpecError(
                f"{path}: a pinned channels.means matrix cannot be combined "
                "with a network_sweep (the shape changes per cell)"
            )
        if (
            self.channels.is_stateful
            and self.schedule.mode != "protocol"
            and self.replication.replications > 1
        ):
            raise SpecError(
                f"{path}.replication.replications: stateful channel models "
                f"(kind={self.channels.kind!r}) couple successive draws and "
                "cannot be averaged over replications; set replications=1"
            )
        if self.dynamics is not None:
            self.dynamics.validate(f"{path}.dynamics")
            if self.schedule.mode != "per-round":
                raise SpecError(
                    f"{path}.dynamics: topology dynamics need "
                    f"schedule.mode='per-round' (got {self.schedule.mode!r})"
                )
            if self.network_sweep:
                raise SpecError(
                    f"{path}.dynamics: cannot be combined with a network_sweep"
                )
            for index, policy in enumerate(self.policies):
                if policy.kind == "oracle":
                    raise SpecError(
                        f"{path}.policies[{index}]: the static oracle has no "
                        "meaning under topology dynamics (the optimum changes "
                        "with the topology); use compute_optimal for the "
                        "dynamic-oracle benchmark instead"
                    )
            if (
                self.dynamics.kind == "random-waypoint"
                and self.topology.kind not in GEOMETRIC_TOPOLOGY_KINDS
            ):
                raise SpecError(
                    f"{path}.dynamics.kind: random-waypoint mobility needs a "
                    f"geometric topology ({sorted(GEOMETRIC_TOPOLOGY_KINDS)}), "
                    f"got topology.kind={self.topology.kind!r}"
                )
        if self.faults is not None:
            self.faults.validate(f"{path}.faults")
            if self.schedule.mode != "protocol":
                raise SpecError(
                    f"{path}.faults: fault injection targets the distributed "
                    f"strategy decision and needs schedule.mode='protocol' "
                    f"(got {self.schedule.mode!r})"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
            "topology": self.topology.to_dict(),
            "channels": self.channels.to_dict(),
            "policies": [policy.to_dict() for policy in self.policies],
            "schedule": self.schedule.to_dict(),
            "dynamics": self.dynamics.to_dict() if self.dynamics is not None else None,
            "transport": self.transport.to_dict(),
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "replication": self.replication.to_dict(),
            "network_sweep": [list(cell) for cell in self.network_sweep],
            "alpha": self.alpha,
            "compute_optimal": self.compute_optimal,
        }

    @classmethod
    def from_dict(cls, data, path: str = "scenario") -> "ScenarioSpec":
        """Deserialize, raising :class:`SpecError` with the offending path."""
        data = _require_mapping(data, path)
        _check_keys(data, cls, path)
        if "name" not in data:
            raise SpecError(f"{path}.name: every scenario needs a name")
        kwargs: Dict[str, object] = {"name": _as_str(data["name"], f"{path}.name")}
        if "seed" in data:
            kwargs["seed"] = _as_int(data["seed"], f"{path}.seed")
        if "description" in data:
            kwargs["description"] = _as_str(data["description"], f"{path}.description")
        if "topology" in data:
            kwargs["topology"] = TopologySpec.from_dict(
                data["topology"], f"{path}.topology"
            )
        if "channels" in data:
            kwargs["channels"] = ChannelSpec.from_dict(
                data["channels"], f"{path}.channels"
            )
        if "policies" in data:
            raw = data["policies"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(
                    f"{path}.policies: expected a list of policy objects, got {raw!r}"
                )
            kwargs["policies"] = tuple(
                PolicySpec.from_dict(entry, f"{path}.policies[{i}]")
                for i, entry in enumerate(raw)
            )
        if "schedule" in data:
            kwargs["schedule"] = ScheduleSpec.from_dict(
                data["schedule"], f"{path}.schedule"
            )
        if data.get("dynamics") is not None:
            kwargs["dynamics"] = DynamicsSpec.from_dict(
                data["dynamics"], f"{path}.dynamics"
            )
        if "transport" in data:
            kwargs["transport"] = TransportSpec.from_dict(
                data["transport"], f"{path}.transport"
            )
        if data.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(data["faults"], f"{path}.faults")
        if "replication" in data:
            kwargs["replication"] = ReplicationSpec.from_dict(
                data["replication"], f"{path}.replication"
            )
        if "network_sweep" in data:
            raw = data["network_sweep"]
            if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
                raise SpecError(
                    f"{path}.network_sweep: expected a list of [N, M] pairs, got {raw!r}"
                )
            sweep = []
            for i, cell in enumerate(raw):
                if not isinstance(cell, Sequence) or isinstance(cell, (str, bytes)):
                    raise SpecError(
                        f"{path}.network_sweep[{i}]: expected an [N, M] pair, got {cell!r}"
                    )
                sweep.append(
                    tuple(
                        _as_int(v, f"{path}.network_sweep[{i}][{j}]")
                        for j, v in enumerate(cell)
                    )
                )
            kwargs["network_sweep"] = tuple(sweep)
        if "alpha" in data:
            kwargs["alpha"] = _as_float(data["alpha"], f"{path}.alpha")
        if "compute_optimal" in data:
            kwargs["compute_optimal"] = _as_bool(
                data["compute_optimal"], f"{path}.compute_optimal"
            )
        try:
            return cls(**kwargs)
        except SpecError as err:
            # Re-prefix cross-field validation errors with the caller's path.
            raise SpecError(str(err).replace("scenario.", f"{path}.", 1)) from None

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build(self):
        """Materialize the scenario's environment.

        Draws the topology and channel state from one ``default_rng(seed)``
        stream (the draw order the presets have always used, so they
        reproduce the historical environments bit for bit) and wires them
        into a :class:`~repro.api.ChannelAccessSystem` rooted at the same
        seed.  Returns ``(system, policies)`` where ``policies`` maps each
        display label to a zero-argument policy factory.

        Only meaningful for simulation modes; protocol scenarios are
        materialized per sweep cell by the runner instead.
        """
        from repro.api import ChannelAccessSystem

        rng = np.random.default_rng(self.seed)
        graph = self.topology.build(rng)
        channels = self.channels.build_state(
            graph.num_nodes, graph.num_channels, rng
        )
        system = ChannelAccessSystem(graph, channels, seed=self.seed)
        factories = {
            policy.display_label: (lambda p=policy: p.build(system))
            for policy in self.policies
        }
        return system, factories

    def run(self):
        """Run this scenario (delegates to :func:`repro.spec.runner.run_scenario`)."""
        from repro.spec.runner import run_scenario

        return run_scenario(self)
