"""The observe runner: hop coverage, determinism, zero perturbation."""

import hashlib
import json

import pytest

from repro.experiments import run_loading_experiment
from repro.experiments.observe import observe, run_observed
from repro.sim import S

SHORT_US = 4 * S


@pytest.fixture(scope="module")
def host_run():
    return run_observed("host", duration_us=SHORT_US, seed=7)


@pytest.fixture(scope="module")
def ni_run():
    return run_observed("ni", duration_us=SHORT_US, seed=7)


class TestHopCoverage:
    def test_host_path_hops(self, host_run):
        hops = set(host_run.breakdown.hops())
        # host datapath: disk read → DMA to host → segmentation →
        # scheduler queue → dispatch → host stack → bridge to NIC → wire
        assert {"read", "xfer", "seg", "squeue", "dispatch",
                "stack", "txbridge", "wire"} <= hops

    def test_ni_path_hops(self, ni_run):
        hops = set(ni_run.breakdown.hops())
        # NI datapath: disk read → card memory wait → peer DMA →
        # on-card queue → dispatch → card stack → wire (no host bridge hop)
        assert {"read", "memwait", "xfer", "squeue", "dispatch",
                "stack", "wire"} <= hops
        assert "txbridge" not in hops

    def test_both_streams_observed(self, host_run, ni_run):
        assert host_run.breakdown.streams() == ["s1", "s2"]
        assert ni_run.breakdown.streams() == ["s1", "s2"]

    def test_frames_dispatched_counted(self, ni_run):
        reg = ni_run.plane.registry
        assert reg.value("engine.frames_dispatched", stream="s1") > 0
        # hw-level activity lands in the same registry
        assert {"net.frames_sent", "disk.bytes_read", "bus.bytes"} <= set(reg.names())

    def test_ring_kept_everything(self, host_run, ni_run):
        assert host_run.plane.tracer.discarded == 0
        assert ni_run.plane.tracer.discarded == 0


class TestZeroPerturbation:
    def test_instrumented_run_delivers_identical_bytes(self, ni_run):
        base = run_loading_experiment("ni", "none", duration_us=SHORT_US, seed=7)
        for sid in ("s1", "s2"):
            b = base.service.reception(sid).mean_bandwidth_bps(0, SHORT_US)
            i = ni_run.run.service.reception(sid).mean_bandwidth_bps(0, SHORT_US)
            assert b == i
        assert (base.service.engine.scheduler.stats.violations
                == ni_run.run.service.engine.scheduler.stats.violations)


class TestDeterminism:
    def test_rendered_result_byte_identical(self, tmp_path):
        kw = dict(duration_us=SHORT_US, seed=5, kinds=("ni",))
        a = observe(out_dir=str(tmp_path / "a"), **kw)
        b = observe(out_dir=str(tmp_path / "b"), **kw)
        # stdout modulo the artifact-directory note
        strip = lambda r: [n for n in r.render().splitlines() if "artifacts in" not in n]
        assert strip(a) == strip(b)
        for name in ("trace_ni.json", "events_ni.jsonl",
                     "breakdown_ni.csv", "metrics_ni.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def test_trace_artifact_is_valid_chrome_trace(self, tmp_path):
        observe(duration_us=SHORT_US, seed=5, kinds=("ni",),
                out_dir=str(tmp_path / "o"))
        doc = json.loads((tmp_path / "o" / "trace_ni.json").read_text())
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X"} <= phases
        # every event resolves to a named track
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert pids


#: sha256 over (file name, bytes), in name order, of everything
#: ``observe(duration_us=10 s, seed=42)`` writes: the four artifacts per
#: placement from ``write_observe_artifacts`` plus the two SLO reports.
#: Any change to a recorded span, a fold or an encoder moves it; refresh
#: it only for a deliberate format change, and say so in CHANGES.md.
OBSERVE_ARTIFACTS_SHA256 = (
    "de42bfb6c693b18c8b028f2257be802f6e2d1ff06b45d724fbe163abe6c0f841"
)


def test_artifact_bytes_pinned(tmp_path):
    observe(duration_us=10 * S, seed=42, out_dir=str(tmp_path))
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == [
        "SLO_report.json", "SLO_report.txt",
        "breakdown_host.csv", "breakdown_ni.csv",
        "events_host.jsonl", "events_ni.jsonl",
        "metrics_host.json", "metrics_ni.json",
        "trace_host.json", "trace_ni.json",
    ]
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == OBSERVE_ARTIFACTS_SHA256
