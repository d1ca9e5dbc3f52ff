"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of one
experiment: the topology, the channel environment, the policies under test,
the schedule (per-round bandit run, periodic stale-weight run, or a pure
strategy-decision protocol run) and the replication plan.  Specs round-trip
losslessly through ``to_dict()``/``from_dict()`` (and therefore through
JSON) — both derived from the dataclass field types by one private codec,
which ``apply_overrides`` shares — validate themselves with actionable
error messages, and know how to
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

from repro._codec import (
    DecodeError,
    check_fields,
    decode_fields,
    encode,
    nested_fields,
    schema,
)
from repro.channels.catalog import DEFAULT_RELATIVE_STD, assign_rates_to_network
from repro.channels.state import ChannelState
from repro.dynamics.events import TopologyEvent
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


class SpecError(DecodeError):
    """A scenario specification is invalid or cannot be deserialized."""


class _Spec:
    """Base of every spec dataclass: the JSON codec, derived from field types.

    ``to_dict`` writes fields in declaration order (tuples as lists, nested
    specs and topology events through their own ``to_dict``); ``from_dict``
    checks every value against its field's declared type and names the
    offending path.  :func:`repro.spec.overrides.apply_overrides` decodes
    ``--set``/``--grid`` values through the same per-field checks.
    """

    #: Root path of the node in error messages (``validate``'s default).
    _path = ""

    def __post_init__(self) -> None:
        # Values built in Python get the per-field type checks decoded JSON
        # gets, then the class's own value and cross-field rules.
        try:
            check_fields(self, self._path)
        except DecodeError as err:
            raise SpecError(str(err)) from None
        self.validate()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        # A dataclass instance's __dict__ holds exactly its fields, in
        # declaration order; only the non-scalar ones need encoding.
        data = dict(self.__dict__)
        for name in nested_fields(type(self)):
            data[name] = encode(data[name])
        return data

    @classmethod
    def from_dict(cls, data, path: Optional[str] = None):
        """Deserialize, raising :class:`SpecError` with the offending path."""
        path = cls._path if path is None else path
        try:
            kwargs = decode_fields(cls, data, path)
        except DecodeError as err:
            raise SpecError(str(err)) from None
        try:
            return cls(**kwargs)
        except SpecError as err:
            # Validation runs at the class's own root path; report the caller's.
            message = str(err)
            if message.startswith(cls._path):
                message = path + message[len(cls._path):]
            raise SpecError(message) from None


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
class TopologySpec(_Spec):
    """Which conflict graph to build.

    ``random`` / ``connected-random`` are the paper's unit-disk deployments
    (``average_degree`` controls density); ``linear`` is the Fig. 5 worst
    case; ``grid`` needs ``rows`` and ``cols`` (``num_nodes = rows * cols``);
    ``ring`` and ``star`` are the combinatorial test topologies.
    """

    _path = "topology"
    kind: str = "random"
    num_nodes: int = 20
    num_channels: int = 3
    #: Target average conflict degree (random kinds only).
    average_degree: float = 6.0
    #: Grid shape; only used (and required) by ``kind="grid"``.
    rows: int = 0
    cols: int = 0

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


# ----------------------------------------------------------------------
# ChannelSpec
# ----------------------------------------------------------------------
CHANNEL_KINDS = ("paper-rates", "mean-matrix", "gilbert-elliott", "adversarial")

#: Channel kinds whose models mutate internal state on sampling; they cannot
#: be averaged over replications (successive draws are coupled).
STATEFUL_CHANNEL_KINDS = ("gilbert-elliott", "adversarial")


@dataclass(frozen=True)
class ChannelSpec(_Spec):
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

    _path = "channels"
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


# ----------------------------------------------------------------------
# PolicySpec
# ----------------------------------------------------------------------
POLICY_KINDS = ("algorithm2", "llr", "oracle")
SOLVER_CHOICES = ("auto", "exact", "greedy")

_DEFAULT_LABELS = {"algorithm2": "Algorithm2", "llr": "LLR", "oracle": "Oracle"}


@dataclass(frozen=True)
class PolicySpec(_Spec):
    """One policy under test.

    ``algorithm2`` is the paper's combinatorial-UCB learner, ``llr`` the LLR
    baseline, ``oracle`` the genie playing the optimal fixed strategy.  ``r``
    is the robust-PTAS radius of the distributed strategy decision and
    ``solver`` picks the local MWIS inside the protocol: ``auto`` uses exact
    enumeration up to :data:`AUTO_GREEDY_VERTEX_THRESHOLD` extended-graph
    vertices and the greedy constant-approximation above it (the thresholds
    the paper experiments used); ``exact``/``greedy`` force one.
    """

    _path = "policies[?]"
    kind: str = "algorithm2"
    #: Display label; defaults to the conventional name for the kind.
    label: Optional[str] = None
    #: Robust-PTAS radius of the strategy decision.
    r: int = 2
    solver: str = "auto"

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


# ----------------------------------------------------------------------
# ScheduleSpec
# ----------------------------------------------------------------------
SCHEDULE_MODES = ("per-round", "periodic", "protocol")


@dataclass(frozen=True)
class ScheduleSpec(_Spec):
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

    _path = "schedule"
    mode: str = "per-round"
    num_rounds: int = 1000
    periods: Tuple[int, ...] = (1, 5, 10, 20)
    num_periods: int = 1000
    max_mini_rounds: int = 0

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
class DynamicsSpec(_Spec):
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

    _path = "dynamics"
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
    trace: Tuple[TopologyEvent, ...] = ()

    def __post_init__(self) -> None:
        # Normalize trace entries to event objects so specs built from
        # Python literals and specs deserialized from JSON compare equal.
        try:
            trace = schema(DynamicsSpec)["trace"].decode(self.trace, "dynamics.trace")
        except DecodeError as err:
            raise SpecError(str(err)) from None
        object.__setattr__(self, "trace", trace)
        super().__post_init__()

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
        for index, event in enumerate(self.trace):
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


# ----------------------------------------------------------------------
# ReplicationSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicationSpec(_Spec):
    """How many independent replications, on how many worker threads.

    Replication randomness is streamed with ``SeedSequence.spawn`` from the
    scenario seed, so replication ``i`` sees the same stream regardless of
    the total count or the thread schedule.
    """

    _path = "replication"
    replications: int = 1
    jobs: int = 1

    def validate(self, path: str = "replication") -> None:
        """Raise :class:`SpecError` when the replication plan is ill-formed."""
        if self.replications <= 0:
            raise SpecError(
                f"{path}.replications: must be positive, got {self.replications}"
            )
        if self.jobs <= 0:
            raise SpecError(f"{path}.jobs: must be positive, got {self.jobs}")


# ----------------------------------------------------------------------
# TransportSpec
# ----------------------------------------------------------------------
TRANSPORT_KINDS = ("simulated", "asyncio")

TRANSPORT_LATENCY_KINDS = ("none", "uniform", "exponential")

#: Domain-separation tag mixed into the transport fault stream so it can
#: never collide with the topology/channel stream rooted at the same seed.
_TRANSPORT_STREAM_TAG = 0x7A57


@dataclass(frozen=True)
class TransportSpec(_Spec):
    """Which message transport runs the distributed protocol.

    ``simulated`` (the default) is the in-process oracle network: instant,
    in-order, lossless k-hop delivery.  ``asyncio`` runs the same protocol
    over real asyncio streams between per-vertex tasks, with every control
    message crossing the JSON wire codec; its ``latency`` / ``reorder`` /
    ``drop`` knobs inject the delivery faults the oracle cannot express.
    Under the lossless in-order default the two transports produce
    bit-identical protocol envelopes (the equivalence contract of
    ``docs/transport.md``), so flipping ``kind`` is always safe.

    ``reorder`` on its own reorders nothing a recipient sees: the only
    same-time deliveries are those of one broadcast, one per recipient.
    It needs ``exponential`` latency, or ``uniform`` at ``latency_scale``
    above 1, to move an arrival.  With ``drop > 0`` it only re-draws which
    deliveries drop, since its jitter shares the fault stream.

    Only ``schedule.mode='protocol'`` scenarios are wired to non-simulated
    transports (the per-round and periodic regimes run the decision many
    times and stay on the oracle).
    """

    _path = "transport"
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
        if self.seed < 0:
            raise SpecError(f"{path}.seed: must be non-negative, got {self.seed}")

    def build(
        self,
        adjacency,
        *,
        run_seed: int = 0,
        neighborhoods=None,
    ):
        """Materialize the :class:`~repro.distributed.transport.Transport`.

        ``run_seed`` is the scenario seed; the asyncio fault stream is rooted
        at ``(run_seed, tag, transport.seed)`` so it is independent of the
        topology/channel draws.  ``neighborhoods`` is the topology's shared
        :class:`~repro.graph.neighborhoods.NeighborhoodTable`.
        """
        from repro.distributed.runtime import AsyncioTransport
        from repro.distributed.transport import SimulatedTransport

        if self.kind == "simulated":
            return SimulatedTransport(adjacency, neighborhoods=neighborhoods)
        return AsyncioTransport(
            adjacency,
            neighborhoods=neighborhoods,
            latency=self.latency,
            latency_scale=self.latency_scale,
            reorder=self.reorder,
            drop_probability=self.drop,
            seed=[run_seed, _TRANSPORT_STREAM_TAG, self.seed],
        )


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
class FaultSpec(_Spec):
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

    _path = "faults"
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

    @property
    def is_active(self) -> bool:
        """Whether any vertex is actually faulty (``f > 0``)."""
        return self.crash > 0.0 or self.byzantine > 0.0

    def validate(self, path: str = "faults") -> None:
        """Raise :class:`SpecError` when the fault spec is ill-formed."""
        for name in ("crash", "byzantine"):
            value = getattr(self, name)
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
        if self.max_crash_round < 0:
            raise SpecError(
                f"{path}.max_crash_round: must be >= 0, got {self.max_crash_round}"
            )
        if self.crash == 0.0 and self.max_crash_round != 3:
            raise SpecError(
                f"{path}.max_crash_round: only meaningful with crash > 0 "
                f"(got crash={self.crash})"
            )
        if self.quorum_threshold < 1:
            raise SpecError(
                f"{path}.quorum_threshold: must be >= 1, "
                f"got {self.quorum_threshold}"
            )
        if not (0.0 < self.eps < 1.0):
            raise SpecError(f"{path}.eps: must be in (0, 1), got {self.eps}")
        if not self.quorum:
            if self.quorum_threshold != 2:
                raise SpecError(
                    f"{path}.quorum_threshold: only meaningful with quorum=true"
                )
            if self.eps != 0.05:
                raise SpecError(f"{path}.eps: only meaningful with quorum=true")
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


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """One fully-described experiment scenario.

    ``network_sweep`` (protocol mode only) re-runs the scenario once per
    ``(num_nodes, num_channels)`` pair with the topology acting as a
    template — the Fig. 6 / complexity sweeps.  ``alpha`` is the assumed
    approximation ratio of the beta-regret benchmark and ``compute_optimal``
    controls whether the optimal fixed-strategy throughput ``R_1`` is brute
    forced before a per-round run (only feasible for small networks).
    """

    _path = "scenario"
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

    def validate(self, path: str = "scenario") -> None:
        """Raise :class:`SpecError` when the scenario is ill-formed."""
        if not self.name:
            raise SpecError(f"{path}.name: every scenario needs a non-empty name")
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
                if any(v <= 0 for v in cell):
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
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self):
        """Draw the environment ``(graph, channels)`` of a simulation mode.

        Topology, then channel state, from one ``default_rng(seed)`` stream:
        the draw order the presets have always used, replayed identically on
        every call.  Protocol scenarios draw per sweep cell in the runner.
        """
        rng = np.random.default_rng(self.seed)
        graph = self.topology.build(rng)
        return graph, self.channels.build_state(
            graph.num_nodes, graph.num_channels, rng
        )

    def build(self):
        """:meth:`materialize` wired into a
        :class:`~repro.api.ChannelAccessSystem` rooted at the same seed.

        Returns ``(system, policies)`` where ``policies`` maps each display
        label to a zero-argument policy factory.
        """
        from repro.api import ChannelAccessSystem

        graph, channels = self.materialize()
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
