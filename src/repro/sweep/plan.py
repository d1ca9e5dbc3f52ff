"""Sweep plans: a base scenario crossed with dotted-path value grids.

A :class:`SweepPlan` is the declarative description of a multi-point study:
one base :class:`~repro.spec.scenario.ScenarioSpec` plus a grid of dotted
override paths (the same paths ``repro run --set`` accepts), expanded into a
deterministic list of :class:`SweepPoint` specs.  Determinism is load
bearing — the point order, every point's spec, and therefore every content
hash must come out identical no matter how the grid was written down, so a
re-run resolves against the results store instead of recomputing.

Two rules give that determinism:

* axes are sorted by path (flag order never matters), values keep the order
  they were given in;
* expansion is the cartesian product in :func:`itertools.product` order
  (last axis varies fastest).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro._codec import DecodeError, loads
from repro.spec.canon import spec_hash
from repro.spec.overrides import apply_overrides
from repro.spec.scenario import ScenarioSpec, SpecError

__all__ = [
    "SweepAxis",
    "SweepPoint",
    "SweepPlan",
    "parse_grid_items",
    "split_grid_values",
]


def split_grid_values(raw: str) -> List[str]:
    """Split a ``--grid`` value list on top-level commas.

    Commas inside brackets or braces are preserved so JSON-valued axes work:
    ``"[1,5],[10,20]"`` → ``["[1,5]", "[10,20]"]``.
    """
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in raw:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def parse_grid_items(items: Sequence[str]) -> Dict[str, Tuple[object, ...]]:
    """Parse ``PATH=V1,V2,...`` strings (CLI ``--grid``) into an axis mapping.

    Each value is parsed as JSON when possible (``10``, ``0.5``, ``[1,5]``)
    and falls back to a plain string (``--grid topology.kind=ring,star``).
    Duplicate paths and empty value lists are rejected with the offending
    flag in the message.
    """
    axes: Dict[str, Tuple[object, ...]] = {}
    for item in items:
        path, separator, raw = item.partition("=")
        path = path.strip()
        if not separator or not path:
            raise SpecError(
                f"--grid {item!r}: expected PATH=V1,V2,... "
                "(e.g. --grid topology.num_nodes=10,20,40)"
            )
        if path in axes:
            raise SpecError(
                f"--grid {item!r}: axis {path!r} was already given; list all "
                "of an axis' values in one flag"
            )
        values = []
        for piece in split_grid_values(raw):
            try:
                values.append(loads(piece, path))
            except DecodeError:
                values.append(piece)
        if not values:
            raise SpecError(
                f"--grid {item!r}: axis {path!r} needs at least one value"
            )
        axes[path] = tuple(values)
    return axes


@dataclass(frozen=True)
class SweepAxis:
    """One grid dimension: a dotted override path and its values."""

    path: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise SpecError("sweep axis: the override path must be non-empty")
        if not self.values:
            raise SpecError(
                f"sweep axis {self.path!r}: needs at least one value"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {"path": self.path, "values": list(self.values)}


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: a concrete spec plus its coordinates."""

    index: int
    #: ``(path, value)`` pairs in axis order — the point's grid coordinates.
    overrides: Tuple[Tuple[str, object], ...]
    spec: ScenarioSpec

    @property
    def label(self) -> str:
        """Human-readable coordinates, e.g. ``topology.num_nodes=20``."""
        if not self.overrides:
            return "<base>"
        return ", ".join(f"{path}={value!r}" for path, value in self.overrides)

    @property
    def hash(self) -> str:
        """Content hash of the point's (jobs-normalized) spec."""
        return spec_hash(self.spec)


@dataclass(frozen=True)
class SweepPlan:
    """A base scenario crossed with zero or more override axes."""

    name: str
    base: ScenarioSpec
    axes: Tuple[SweepAxis, ...] = ()
    description: str = ""
    _points: Tuple[SweepPoint, ...] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("sweep plan: needs a non-empty name")
        ordered = tuple(sorted(self.axes, key=lambda axis: axis.path))
        seen = [axis.path for axis in ordered]
        duplicates = sorted({p for p in seen if seen.count(p) > 1})
        if duplicates:
            raise SpecError(
                f"sweep plan {self.name!r}: duplicate axis path(s) {duplicates}"
            )
        object.__setattr__(self, "axes", ordered)
        # Expand eagerly: a plan whose grid produces an invalid spec should
        # fail at construction time, naming the offending point, not midway
        # through a fleet of runs.
        object.__setattr__(self, "_points", self._expand())

    @classmethod
    def from_grid(
        cls,
        name: str,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[object]],
        description: str = "",
    ) -> "SweepPlan":
        """Build a plan from an axis mapping (e.g. :func:`parse_grid_items`)."""
        axes = tuple(
            SweepAxis(path=path, values=tuple(values))
            for path, values in grid.items()
        )
        return cls(name=name, base=base, axes=axes, description=description)

    def _expand(self) -> Tuple[SweepPoint, ...]:
        if not self.axes:
            return (SweepPoint(index=0, overrides=(), spec=self.base),)
        points: List[SweepPoint] = []
        paths = [axis.path for axis in self.axes]
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            overrides = tuple(zip(paths, combo))
            try:
                spec = apply_overrides(self.base, dict(overrides))
            except SpecError as err:
                raise SpecError(
                    f"sweep plan {self.name!r}, point {index} "
                    f"({', '.join(f'{p}={v!r}' for p, v in overrides)}): {err}"
                ) from None
            points.append(SweepPoint(index=index, overrides=overrides, spec=spec))
        return tuple(points)

    def points(self) -> List[SweepPoint]:
        """The expanded grid points, in deterministic order."""
        return list(self._points)

    @property
    def num_points(self) -> int:
        """Number of expanded grid points."""
        return len(self._points)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (base spec plus the axes)."""
        return {
            "name": self.name,
            "description": self.description,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
