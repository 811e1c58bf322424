"""LatencyBreakdown: span folding, hop tables, critical paths."""

import random

import pytest

from repro.obs import LatencyBreakdown
from repro.obs.breakdown import HOP_ORDER, percentile
from repro.sim.trace import TraceEvent


def B(t, hop, sid, **fields):
    return TraceEvent(t, "span", hop, {**fields, "ph": "B", "span": sid})


def E(t, hop, sid, **fields):
    return TraceEvent(t, "span", hop, {**fields, "ph": "E", "span": sid})


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile([7.0], 50) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestFolding:
    def test_pairs_fold_and_fields_merge(self):
        bd = LatencyBreakdown(
            [B(1.0, "read", 1, stream="s1", seq=0), E(5.0, "read", 1, bytes=100)]
        )
        [span] = bd.spans
        assert span.hop == "read"
        assert span.duration_us == 4.0
        assert span.stream == "s1"
        assert span.fields["bytes"] == 100
        assert "ph" not in span.fields and "span" not in span.fields

    def test_orphan_end_skipped(self):
        # the begin fell off the ring: duration unknowable, span ignored
        bd = LatencyBreakdown([E(5.0, "read", 99)])
        assert bd.spans == []
        assert bd.unfinished == 0

    def test_unfinished_counted(self):
        bd = LatencyBreakdown([B(1.0, "read", 1, stream="s1")])
        assert bd.spans == []
        assert bd.unfinished == 1


class TestTables:
    def _bd(self):
        events = []
        # s1: two read spans (2us, 4us) + one wire span (1us)
        events += [B(0.0, "read", 1, stream="s1", seq=0), E(2.0, "read", 1)]
        events += [B(10.0, "read", 2, stream="s1", seq=1), E(14.0, "read", 2)]
        events += [B(2.0, "wire", 3, stream="s1", seq=0), E(3.0, "wire", 3)]
        # s2: one read span (6us)
        events += [B(0.0, "read", 4, stream="s2", seq=0), E(6.0, "read", 4)]
        return LatencyBreakdown(events, label="t")

    def test_hops_in_datapath_order(self):
        assert self._bd().hops() == ["read", "wire"]

    def test_by_hop_all_streams(self):
        stats = {s.hop: s for s in self._bd().by_hop()}
        assert stats["read"].count == 3
        assert stats["read"].total_us == 12.0
        assert stats["read"].mean_us == 4.0
        assert stats["read"].pct(100) == 6.0
        assert stats["wire"].count == 1

    def test_by_hop_one_stream(self):
        stats = {s.hop: s for s in self._bd().by_hop("s2")}
        assert stats["read"].count == 1
        assert "wire" not in stats

    def test_table_rows_scopes(self):
        rows = self._bd().table_rows()
        assert [(r["scope"], r["hop"]) for r in rows] == [
            ("*", "read"), ("*", "wire"),
            ("s1", "read"), ("s1", "wire"),
            ("s2", "read"),
        ]

    def test_render_table_deterministic(self):
        assert self._bd().render_table() == self._bd().render_table()


class TestCriticalPath:
    def test_median_frame_selected(self):
        events = []
        # three frames with e2e 2, 4, 9 — median is seq=1
        for seq, dur in ((0, 2.0), (1, 4.0), (2, 9.0)):
            t0 = seq * 100.0
            events += [
                B(t0, "read", seq * 2 + 1, stream="s1", seq=seq),
                E(t0 + dur, "read", seq * 2 + 1),
            ]
        path = LatencyBreakdown(events).median_path("s1")
        assert path.seq == 1
        assert path.end_to_end_us == 4.0

    def test_unattributed_is_uncovered_gap(self):
        events = [
            B(0.0, "read", 1, stream="s1", seq=0), E(4.0, "read", 1),
            # 4..6 unclaimed, then wire 6..10 overlapping squeue 5..8
            B(5.0, "squeue", 2, stream="s1", seq=0), E(8.0, "squeue", 2),
            B(6.0, "wire", 3, stream="s1", seq=0), E(10.0, "wire", 3),
        ]
        path = LatencyBreakdown(events).median_path("s1")
        assert path.end_to_end_us == 10.0
        # union coverage: [0,4] + [5,10] = 9us; the overlap counts once
        assert path.covered_us == 9.0
        assert path.unattributed_us == 1.0

    def test_no_frames_renders_placeholder(self):
        bd = LatencyBreakdown([])
        assert bd.median_path("s1") is None
        assert "no frames" in bd.render_critical_path("s1")


class TestOnePassMatchesRescan:
    """The one-pass cells and the memoised rows and median paths equal a
    per-stream rescan of every span (the fold's original shape)."""

    @staticmethod
    def _events():
        rng = random.Random(3)
        events, sid = [], 0
        for stream in ("s2", "s1", None):
            for seq in range(9):
                for hop in rng.sample(HOP_ORDER + ("extra",), 5):
                    sid += 1
                    t0 = rng.randrange(0, 10_000) / 8
                    fields = {"seq": seq} if stream is None else {"stream": stream, "seq": seq}
                    events += [B(t0, hop, sid, **fields),
                               E(t0 + rng.randrange(1, 400) / 4, hop, sid)]
        return events

    @staticmethod
    def _reference_rows(spans):
        def rows(scope, picked):
            cells = {}
            for s in picked:
                cells.setdefault(s.hop, []).append(s.duration_us)
            order = sorted(cells, key=lambda h: (HOP_ORDER + (h,)).index(h))
            out = []
            for hop in order:
                d = cells[hop]
                out.append({
                    "scope": scope, "hop": hop, "count": len(d),
                    "total_us": round(sum(d), 3),
                    "mean_us": round(sum(d) / len(d), 3),
                    "p50_us": round(percentile(sorted(d), 50), 3),
                    "p95_us": round(percentile(sorted(d), 95), 3),
                    "max_us": round(percentile(sorted(d), 100), 3),
                })
            return out

        streams = sorted({s.stream for s in spans if s.stream is not None})
        table = rows("*", spans)
        for stream in streams:
            table += rows(stream, [s for s in spans if s.stream == stream])
        return table

    def test_rows_and_median_paths_match_a_rescan(self):
        bd = LatencyBreakdown(self._events())
        assert bd.table_rows() == self._reference_rows(bd.spans)
        assert bd.table_rows() == bd.table_rows()
        for stream in ("s1", "s2"):
            frames = {}
            for s in bd.spans:
                if s.stream == stream:
                    frames.setdefault(s.seq, []).append(s)
            e2e = sorted(
                (max(x.end_us for x in f) - min(x.begin_us for x in f), seq)
                for seq, f in frames.items()
            )
            want_e2e, want_seq = e2e[(len(e2e) - 1) // 2]
            path = bd.median_path(stream)
            assert (path.end_to_end_us, path.seq) == (want_e2e, want_seq)
            assert bd.median_path(stream) is path
