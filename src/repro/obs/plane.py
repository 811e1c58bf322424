"""The observability plane object installed as ``env.obs``.

Instrumented code follows one pattern everywhere::

    obs = self.env.obs
    sp = obs.begin("read", track="disk:sd0", stream=sid, seq=n) if obs else None
    ...  # the timed work
    if obs:
        obs.end(sp, bytes=frame.size_bytes)

``Environment.__init__`` pre-resolves the hook slot to ``None``, so with
no plane attached every datapath hook costs one plain attribute load (no
``getattr``-with-default machinery). With a plane attached but the span
category filtered out, ``begin`` returns ``None`` and ``end(None)`` is a
no-op — the same near-zero-cost contract the fault plane and
``Tracer.wants`` already set.

Span events live in category ``"span"``; instant markers (crashes,
failovers, drops) in ``"event"``. Both ride the ordinary
:class:`~repro.sim.trace.Tracer`, so the DWCS/TCP/fault categories that
existed before this plane land in the same ring and the same exports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..sim.trace import Tracer
from .breakdown import LatencyBreakdown
from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.environment import Environment

__all__ = [
    "ObservabilityPlane",
    "SPAN_CATEGORY",
    "EVENT_CATEGORY",
    "CLUSTER_CATEGORY",
    "CLUSTER_CATEGORIES",
]

SPAN_CATEGORY = "span"
EVENT_CATEGORY = "event"

#: control-plane spans (admission, placement, RPC, failover, handoff) live
#: in their own category so a cluster run can record the stitched
#: cross-node story *without* paying for the millions of per-frame
#: datapath spans — pass ``categories=CLUSTER_CATEGORIES`` to the plane
#: and the datapath's ``begin()`` calls filter out in one predicate check.
CLUSTER_CATEGORY = "cluster"
CLUSTER_CATEGORIES = (CLUSTER_CATEGORY, EVENT_CATEGORY)


class ObservabilityPlane:
    """Bundles a span tracer and a metrics registry behind ``env.obs``.

    Parameters
    ----------
    env:
        The simulation environment to observe. ``install()`` binds the
        plane as ``env.obs``; components discover it at call time.
    capacity:
        Tracer ring bound. Instrumented full-length runs produce on the
        order of 10 events per frame hop, so the default is generous.
    categories:
        Optional tracer category filter; ``None`` records everything.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: int = 2_000_000,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self.env = env
        self.tracer = Tracer(env, categories=categories, capacity=capacity)
        self.registry = MetricsRegistry()
        self._breakdown: Optional[LatencyBreakdown] = None
        self._breakdown_key: Optional[tuple[str, int]] = None

    def install(self) -> "ObservabilityPlane":
        """Bind into the environment's hook slot (idempotent)."""
        self.env.obs = self
        self.env.hooks_changed()
        return self

    def uninstall(self) -> None:
        """Clear the hook slot (back to the uninstrumented ``None``)."""
        if self.env.obs is self:
            self.env.obs = None
            self.env.hooks_changed()

    # -- spans ----------------------------------------------------------------
    def begin(
        self,
        hop: str,
        track: Optional[str] = None,
        parent: Optional[int] = None,
        category: str = SPAN_CATEGORY,
        **fields: Any,
    ) -> Optional[int]:
        """Open a datapath-hop span; *track* names the Perfetto lane
        (``cpu:host0``, ``bus:pci1``, ``card:rd0``...). Control-plane
        emitters pass ``category=CLUSTER_CATEGORY`` so a filtered plane
        keeps them while shedding the per-frame datapath spans."""
        if track is not None:
            fields["track"] = track
        return self.tracer.record_begin(category, hop, fields, parent)

    def end(self, span_id: Optional[int], **fields: Any) -> None:
        self.tracer.record_end(span_id, fields)

    def instant(
        self, name: str, track: Optional[str] = None, **fields: Any
    ) -> None:
        """Zero-duration marker (crash, failover, drop, violation)."""
        if track is not None:
            fields["track"] = track
        self.tracer.instant(EVENT_CATEGORY, name, **fields)

    # -- metrics ----------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.registry.count(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.registry.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.registry.observe(name, value, **labels)

    # -- convenience -------------------------------------------------------------
    def span_events(self):
        return self.tracer.events(category=SPAN_CATEGORY)

    def cluster_events(self):
        """Control-plane spans (admission/placement/failover stitching)."""
        return self.tracer.events(category=CLUSTER_CATEGORY)

    def breakdown(self, label: str = "") -> LatencyBreakdown:
        """The span ring folded into a :class:`LatencyBreakdown`.

        Built once per ``(label, tracer.emitted)`` and shared, so the
        observe runner's tables and the artifact export fold the ring
        once; any further recorded event makes the next call refold.
        """
        key = (label, self.tracer.emitted)
        if self._breakdown_key != key:
            self._breakdown = LatencyBreakdown(self.span_events(), label=label)
            self._breakdown_key = key
        return self._breakdown

    def publish_queue_stats(self) -> None:
        """Export the event queue's pending depth as a gauge."""
        self.registry.gauge(
            "sim.queue.pending", float(len(self.env._queue)), structure="heap"
        )

    def __repr__(self) -> str:
        return (
            f"<ObservabilityPlane {len(self.tracer)} events, "
            f"{len(self.registry)} metric series>"
        )
