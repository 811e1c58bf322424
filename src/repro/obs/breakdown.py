"""Latency-breakdown analyzer: fold datapath spans into per-hop tables.

Takes the raw span events a run collected and answers the paper's core
question per hop instead of per run: where did each frame's time go on
the disk → buffer → bridge → scheduler → stack → wire path, and how does
that split differ between the host-resident and NI-resident schedulers
(Fig. 7/8 told hop by hop)?

All statistics use nearest-rank percentiles over exact simulated-time
durations — no interpolation, no floating averaging tricks — so the
tables are byte-stable across same-seed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Optional

from ..sim.trace import TraceEvent

__all__ = ["CompletedSpan", "HopStats", "CriticalPath", "LatencyBreakdown"]

#: canonical ordering of datapath hops for table/critical-path rendering;
#: hops not listed sort after these, alphabetically
HOP_ORDER = (
    "read",
    "fs",
    "xfer",
    "seg",
    "memwait",
    "squeue",
    "dispatch",
    "firmware",
    "i2o",
    "stack",
    "txbridge",
    "wire",
)


def _hop_rank(hop: str) -> tuple[int, str]:
    try:
        return (HOP_ORDER.index(hop), hop)
    except ValueError:
        return (len(HOP_ORDER), hop)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile over an ascending list (must be non-empty)."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class CompletedSpan(NamedTuple):
    """A begin/end pair folded into one record."""

    span_id: int
    hop: str
    begin_us: float
    end_us: float
    fields: dict[str, Any]

    @property
    def duration_us(self) -> float:
        return self.end_us - self.begin_us

    @property
    def stream(self) -> Optional[str]:
        return self.fields.get("stream")

    @property
    def seq(self) -> Optional[int]:
        return self.fields.get("seq")


@dataclass
class HopStats:
    """Aggregate durations for one (stream, hop) or (all-streams, hop) cell."""

    hop: str
    durations_us: list[float] = field(default_factory=list)

    def add(self, duration_us: float) -> None:
        self.durations_us.append(duration_us)

    @property
    def count(self) -> int:
        return len(self.durations_us)

    @property
    def total_us(self) -> float:
        return sum(self.durations_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def pct(self, p: float) -> float:
        return percentile(sorted(self.durations_us), p)

    def row(self) -> dict[str, Any]:
        ordered = sorted(self.durations_us)
        return {
            "hop": self.hop,
            "count": self.count,
            "total_us": round(self.total_us, 3),
            "mean_us": round(self.mean_us, 3),
            "p50_us": round(percentile(ordered, 50), 3),
            "p95_us": round(percentile(ordered, 95), 3),
            "max_us": round(ordered[-1], 3),
        }


@dataclass
class CriticalPath:
    """One frame's ordered walk through the datapath.

    ``unattributed_us`` is the end-to-end wall minus the union coverage of
    its spans — genuine queueing/idle gaps no hop claims. Overlapping
    spans (a frame sitting in the scheduler queue while the previous frame
    transmits) are only counted once in the union.
    """

    stream: str
    seq: int
    begin_us: float
    end_us: float
    hops: list[tuple[str, float, float]]  # (hop, begin, end), time-ordered

    @property
    def end_to_end_us(self) -> float:
        return self.end_us - self.begin_us

    @property
    def covered_us(self) -> float:
        merged: list[list[float]] = []
        for _, b, e in sorted(self.hops, key=lambda h: (h[1], h[2])):
            if merged and b <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([b, e])
        return sum(e - b for b, e in merged)

    @property
    def unattributed_us(self) -> float:
        return max(0.0, self.end_to_end_us - self.covered_us)


class LatencyBreakdown:
    """Fold a run's span events into tables and critical paths.

    The span list is fixed at construction, so the per-hop cells, the
    table rows and each stream's median path are computed once, on first
    use, and shared by every later call: treat what they return as
    read-only.
    """

    def __init__(self, events: Iterable[TraceEvent], label: str = "") -> None:
        self.label = label
        self.spans: list[CompletedSpan] = []
        self.unfinished = 0
        self._fold(events)

    def _fold(self, events: Iterable[TraceEvent]) -> None:
        open_spans: dict[int, TraceEvent] = {}
        append = self.spans.append
        for ev in events:
            fields = ev.fields
            ph = fields.get("ph")
            if ph != "B" and ph != "E":
                continue
            sid = fields.get("span")
            if sid is None:
                continue
            if ph == "B":
                open_spans[sid] = ev
                continue
            begin = open_spans.pop(sid, None)
            if begin is None:
                continue  # begin fell off the ring; duration unknowable
            merged = {**begin.fields, **fields}
            del merged["ph"], merged["span"]
            append(CompletedSpan(sid, begin.name, begin.time_us, ev.time_us, merged))
        self.unfinished = len(open_spans)

    @cached_property
    def _cells(self) -> dict[Optional[str], list[HopStats]]:
        """Per-hop stats in datapath order, keyed by scope (``None`` = every
        stream), from one pass over the spans."""
        durations: dict[tuple[Optional[str], str], list[float]] = {}
        for s in self.spans:
            duration = s.end_us - s.begin_us
            durations.setdefault((None, s.hop), []).append(duration)
            stream = s.fields.get("stream")
            if stream is not None:
                durations.setdefault((stream, s.hop), []).append(duration)
        cells: dict[Optional[str], dict[str, HopStats]] = {None: {}}
        for (scope, hop), values in durations.items():
            cells.setdefault(scope, {})[hop] = HopStats(hop, values)
        return {
            scope: [stats[h] for h in sorted(stats, key=_hop_rank)]
            for scope, stats in cells.items()
        }

    @cached_property
    def _frames(self) -> dict[str, dict[int, list[CompletedSpan]]]:
        """stream -> seq -> that frame's spans, in ring order."""
        frames: dict[str, dict[int, list[CompletedSpan]]] = {}
        for s in self.spans:
            stream = s.fields.get("stream")
            seq = s.fields.get("seq")
            if stream is not None and seq is not None:
                frames.setdefault(stream, {}).setdefault(seq, []).append(s)
        return frames

    # -- tables -----------------------------------------------------------------
    def hops(self) -> list[str]:
        return [stats.hop for stats in self._cells[None]]

    def streams(self) -> list[str]:
        return sorted(scope for scope in self._cells if scope is not None)

    def by_hop(self, stream: Optional[str] = None) -> list[HopStats]:
        """Per-hop stats, over all streams or one stream's spans only."""
        return list(self._cells.get(stream, ()))

    @cached_property
    def _rows(self) -> list[dict[str, Any]]:
        rows = [{"scope": "*", **stats.row()} for stats in self._cells[None]]
        for stream in self.streams():
            rows.extend(
                {"scope": stream, **stats.row()} for stats in self._cells[stream]
            )
        return rows

    def table_rows(self) -> list[dict[str, Any]]:
        """All-streams table plus one sub-table per stream, flattened with a
        ``scope`` column (``*`` = every stream)."""
        return list(self._rows)

    # -- critical path -------------------------------------------------------------
    def frame_paths(self, stream: str) -> list[CriticalPath]:
        """Every (stream, seq) walk, ordered by seq."""
        frames = self._frames.get(stream, {})
        paths = []
        for seq in sorted(frames):
            spans = sorted(frames[seq], key=lambda s: (s.begin_us, s.end_us))
            paths.append(
                CriticalPath(
                    stream=stream,
                    seq=seq,
                    begin_us=spans[0].begin_us,
                    end_us=max(s.end_us for s in spans),
                    hops=[(s.hop, s.begin_us, s.end_us) for s in spans],
                )
            )
        return paths

    @cached_property
    def _median_paths(self) -> dict[str, CriticalPath]:
        medians = {}
        for stream in self._frames:
            ordered = sorted(
                self.frame_paths(stream), key=lambda p: (p.end_to_end_us, p.seq)
            )
            medians[stream] = ordered[(len(ordered) - 1) // 2]
        return medians

    def median_path(self, stream: str) -> Optional[CriticalPath]:
        """The frame whose end-to-end latency is the median — a
        representative walk, not the lucky best or unlucky worst."""
        return self._median_paths.get(stream)

    # -- rendering ----------------------------------------------------------------
    def render_table(self) -> str:
        header = f"{'scope':>8} {'hop':>9} {'count':>7} {'mean_us':>10} {'p50_us':>10} {'p95_us':>10} {'max_us':>10}"
        lines = [f"== latency breakdown: {self.label} ==" if self.label else "== latency breakdown ==", header]
        for row in self.table_rows():
            lines.append(
                f"{row['scope']:>8} {row['hop']:>9} {row['count']:>7} "
                f"{row['mean_us']:>10.1f} {row['p50_us']:>10.1f} "
                f"{row['p95_us']:>10.1f} {row['max_us']:>10.1f}"
            )
        return "\n".join(lines)

    def render_critical_path(self, stream: str) -> str:
        path = self.median_path(stream)
        title = f"critical path ({self.label}, stream {stream})" if self.label else f"critical path (stream {stream})"
        if path is None:
            return f"== {title} ==\n  (no frames observed)"
        lines = [
            f"== {title} ==",
            f"  frame seq={path.seq}  end-to-end={path.end_to_end_us:.1f}us  "
            f"unattributed={path.unattributed_us:.1f}us",
        ]
        for hop, b, e in path.hops:
            lines.append(
                f"  {hop:>9}  +{b - path.begin_us:>10.1f}us  dur={e - b:>10.1f}us"
            )
        return "\n".join(lines)
