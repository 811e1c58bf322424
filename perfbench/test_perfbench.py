"""Self-test of the benchmark, at the golden ``short`` duration.

Run from the root of the checkout::

    PYTHONPATH=src python -m pytest perfbench -q

Each workload runs one untraced pass (its benchmarked executor) and two
traced passes: every deterministic counter must repeat exactly, and the
oracle must pass every experiment at seed 42. A wrong pinned digest must
be reported as a failure.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

harness.setup()

from repro.experiments.golden import SHORT_DURATION_US  # noqa: E402


def traced_counters(workload: str, oracle: harness.Oracle) -> dict[str, int]:
    counters = layers.Counters().install()
    spans = layers.Spans()
    try:
        with layers.traced_entry_points(spans):
            harness.run_pass(
                workload, 42, oracle, SHORT_DURATION_US,
                serial=True, counters=counters, spans=spans,
            )
    finally:
        counters.uninstall()
    return counters.totals


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_counters_repeat_and_oracle_passes_at_seed_42(workload):
    oracle = harness.Oracle(harness.pinned_digests(42, SHORT_DURATION_US))
    harness.run_pass(workload, 42, oracle, SHORT_DURATION_US)
    first = traced_counters(workload, oracle)
    second = traced_counters(workload, oracle)
    assert first == second
    assert first["sim.events"] > 0 and first["server.frames_delivered"] > 0
    assert oracle.failures == []
    steps = sum(1 + e.export for e in harness.WORKLOADS[workload])
    assert oracle.attempted == 3 * steps


def test_pinned_short_digests_are_in_force():
    pinned = harness.pinned_digests(42, SHORT_DURATION_US)
    assert {"figure9", "chaos", "failover", "transport", "pdescluster"} <= set(pinned)
    assert harness.pinned_digests(7, SHORT_DURATION_US) == {}


def test_wrong_pinned_digest_is_reported_as_a_failure():
    pinned = harness.pinned_digests(42, SHORT_DURATION_US)
    pinned["figure9"] = "0" * 64
    oracle = harness.Oracle(pinned)
    harness.run_pass("paper-eval", 42, oracle, SHORT_DURATION_US)
    assert oracle.failed == 1
    assert oracle.failures[0].startswith("figure9: digest ")
    assert oracle.attempted == len(harness.WORKLOADS["paper-eval"])


def test_raising_experiment_is_counted_not_fatal(monkeypatch):
    from repro.experiments import golden

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(golden, "compute_result", boom)
    oracle = harness.Oracle({})
    record = harness.run_pass("wire-faults", 42, oracle, SHORT_DURATION_US)
    assert oracle.failed == oracle.attempted == 3
    assert record.times == {}


def test_rollup_charges_the_innermost_repro_frame():
    class FakeProfiler:
        samples = 4
        wall_s = 2.0
        stacks = {
            ("run:main", "repro.experiments.figures:f", "repro.sim.environment:run", "heapq:x"): 3,
            ("run:main", "threading:wait"): 1,
        }

    self_s, shares = layers.package_self_seconds(FakeProfiler)
    assert shares == {"sim": 0.75, "other": 0.25}
    assert self_s == {"sim": 1.5, "other": 0.5}


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_stop_children_stops_workers_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    proc = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    proc.start()
    harness.stop_children()
    assert not proc.is_alive()
    assert resource_tracker._resource_tracker._pid is None
