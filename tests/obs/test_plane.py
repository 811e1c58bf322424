"""ObservabilityPlane: install/uninstall, span/instant/metric delegation."""

from repro.obs import ObservabilityPlane
from repro.obs.plane import EVENT_CATEGORY, SPAN_CATEGORY
from repro.sim import Environment


class TestInstall:
    def test_env_has_no_plane_by_default(self):
        env = Environment()
        assert getattr(env, "obs", None) is None

    def test_install_binds_env_obs(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        assert env.obs is plane
        plane.uninstall()
        assert getattr(env, "obs", None) is None

    def test_uninstall_leaves_other_plane_alone(self):
        env = Environment()
        first = ObservabilityPlane(env).install()
        second = ObservabilityPlane(env).install()
        first.uninstall()  # no longer the bound plane: must not unbind
        assert env.obs is second


class TestSpans:
    def test_begin_end_carries_track(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        sp = plane.begin("read", track="disk:sd0", stream="s1", seq=3)
        plane.end(sp, bytes=100)
        begin, end = plane.span_events()
        assert begin.category == SPAN_CATEGORY
        assert begin.name == "read"
        assert begin.fields["track"] == "disk:sd0"
        assert begin.fields["stream"] == "s1"
        assert end.fields["bytes"] == 100

    def test_payload_key_order(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        outer = plane.begin("frame")
        sp = plane.begin("read", track="disk:sd0", parent=outer, stream="s1", seq=3)
        plane.end(sp, bytes=100)
        _, begin, end = plane.span_events()
        assert list(begin.fields) == ["stream", "seq", "track", "ph", "span", "parent"]
        assert list(end.fields) == ["bytes", "ph", "span"]

    def test_unknown_span_id_counts_unbalanced(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.end(41, bytes=1)
        assert plane.tracer.unbalanced_ends == 1
        assert len(plane.tracer) == 0

    def test_filtered_category_costs_one_none(self):
        env = Environment()
        plane = ObservabilityPlane(env, categories=["event"]).install()
        sp = plane.begin("read", track="disk:sd0")
        assert sp is None
        plane.end(sp)  # no-op, no unbalanced count
        assert plane.tracer.unbalanced_ends == 0
        assert len(plane.tracer) == 0

    def test_instant_marker(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.instant("card_crash", track="card:rd0", card="rd0")
        [e] = plane.tracer.events(category=EVENT_CATEGORY)
        assert e.name == "card_crash"
        assert e.fields["track"] == "card:rd0"


class TestSharedBreakdown:
    def test_one_fold_per_label_and_emitted_count(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.end(plane.begin("read", stream="s1", seq=0))
        bd = plane.breakdown("host")
        assert plane.breakdown("host") is bd
        assert bd.label == "host" and len(bd.spans) == 1
        relabelled = plane.breakdown("ni")
        assert relabelled is not bd and relabelled.label == "ni"
        plane.end(plane.begin("wire", stream="s1", seq=0))
        refolded = plane.breakdown("ni")
        assert refolded is not relabelled
        assert [s.hop for s in refolded.spans] == ["read", "wire"]


class TestMetricsDelegation:
    def test_count_gauge_observe(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.count("frames", stream="s1")
        plane.gauge("depth", 4.0)
        plane.observe("lat_us", 12.5)
        assert plane.registry.value("frames", stream="s1") == 1.0
        assert plane.registry.value("depth") == 4.0
        assert plane.registry.get("lat_us").observations == 1


class TestQueueStats:
    def test_publishes_pending_depth_of_the_heap(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        for delay in (1.0, 2.0, 2.0):
            env.timeout(delay)
        plane.publish_queue_stats()
        assert plane.registry.value("sim.queue.pending", structure="heap") == 3.0
        env.run(until=1.0)
        plane.publish_queue_stats()
        assert plane.registry.value("sim.queue.pending", structure="heap") == 2.0
        assert plane.registry.get("sim.queue.pending") is None  # always labelled
