"""Unified delivery telemetry shared by every transport.

Both :class:`~repro.distributed.transport.SimulatedTransport` (the lossless
oracle) and :class:`~repro.distributed.runtime.AsyncioTransport` (the
wire-codec network with latency/reordering/drops) accumulate their
delivery metrics in one :class:`DeliveryTelemetry`, backed by the
:class:`repro.obs.MetricsRegistry`.  ``telemetry_summary()`` therefore
reports through one code path on every transport, lossless or lossy —
and stays out of the envelope's canonical form, so recording it never
perturbs result hashes or bit-identity contracts.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import MetricsRegistry

__all__ = ["DeliveryTelemetry"]


class DeliveryTelemetry:
    """Delivery/drop/latency counters for one transport instance.

    Counter names (``net.deliveries``, ``net.dropped``,
    ``net.out_of_order``, ``net.delivered.<MessageType>``) live in an
    unlocked :class:`~repro.obs.metrics.MetricsRegistry` — transports
    mutate them from one thread (their own loop or the caller's).
    Latency keeps scalar total/max accumulators so the summary's mean is
    exact over *all* deliveries without storing one observation each.
    """

    __slots__ = ("metrics", "_latency_total", "_latency_max")

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._latency_total = 0.0
        self._latency_max = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count_deliveries(self, count: int = 1) -> None:
        """Record ``count`` (message, recipient) deliveries."""
        self.metrics.count("net.deliveries", count)

    def count_delivery_latency(self, delay: float) -> None:
        """Record one delivery with virtual latency ``delay``."""
        self.metrics.count("net.deliveries", 1)
        self._latency_total += delay
        if delay > self._latency_max:
            self._latency_max = delay

    def count_drop(self) -> None:
        """Record one (message, recipient) pair lost to the drop model."""
        self.metrics.count("net.dropped", 1)

    def count_out_of_order(self) -> None:
        """Record one delivery that arrived out of send order."""
        self.metrics.count("net.out_of_order", 1)

    def count_delivered_type(self, type_name: str, count: int = 1) -> None:
        """Record ``count`` deliveries of message type ``type_name``."""
        self.metrics.count(f"net.delivered.{type_name}", count)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def deliveries(self) -> int:
        """Total (message, recipient) deliveries recorded."""
        return int(self.metrics.counter_value("net.deliveries"))

    @property
    def dropped(self) -> int:
        """Total (message, recipient) pairs lost to the drop model."""
        return int(self.metrics.counter_value("net.dropped"))

    @property
    def out_of_order(self) -> int:
        """Total deliveries that arrived out of send order."""
        return int(self.metrics.counter_value("net.out_of_order"))

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary, envelope-record ready (all floats).

        Keys: ``net_deliveries``, ``net_dropped``, ``net_out_of_order``,
        ``net_latency_mean`` / ``net_latency_max`` (virtual latency over
        all deliveries) and one ``net_delivered_<Type>`` entry per
        message type delivered.
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        deliveries = counters.get("net.deliveries", 0)
        result: Dict[str, float] = {
            "net_deliveries": float(deliveries),
            "net_dropped": float(counters.get("net.dropped", 0)),
            "net_out_of_order": float(counters.get("net.out_of_order", 0)),
            "net_latency_mean": (
                self._latency_total / deliveries if deliveries else 0.0
            ),
            "net_latency_max": float(self._latency_max),
        }
        prefix = "net.delivered."
        for name in sorted(counters):
            if name.startswith(prefix):
                result[f"net_delivered_{name[len(prefix):]}"] = float(counters[name])
        return result

    def reset(self) -> None:
        """Zero every counter and the latency accumulators."""
        self.metrics.reset()
        self._latency_total = 0.0
        self._latency_max = 0.0
