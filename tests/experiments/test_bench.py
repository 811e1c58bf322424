"""Bench harness logic that runs without timing anything.

The timed paths (fresh-interpreter children, full digest verification)
are exercised by the CI bench-smoke job; here we pin the pure decision
logic — above all that an incomparable baseline can never yield a
speedup figure.
"""

import pytest

from repro.experiments.bench import (
    PARTITION_TARGET_SPEEDUP,
    WORKLOADS,
    baseline_comparability,
    critical_path_seconds,
    main,
    run_partition_bench,
)


class TestBaselineComparability:
    def test_matching_environment_is_comparable(self):
        base = {"python": "3.11.7", "machine": "x86_64"}
        ok, reason = baseline_comparability(base, python="3.11.7", machine="x86_64")
        assert ok
        assert reason == ""

    def test_python_mismatch_is_incomparable(self):
        base = {"python": "3.11.7", "machine": "x86_64"}
        ok, reason = baseline_comparability(base, python="3.12.1", machine="x86_64")
        assert not ok
        assert "python" in reason
        assert "3.11.7" in reason and "3.12.1" in reason

    def test_machine_mismatch_is_incomparable(self):
        base = {"python": "3.11.7", "machine": "x86_64"}
        ok, reason = baseline_comparability(base, python="3.11.7", machine="aarch64")
        assert not ok
        assert "machine" in reason

    def test_both_mismatched_names_both_fields(self):
        base = {"python": "3.11.7", "machine": "x86_64"}
        ok, reason = baseline_comparability(base, python="3.12.1", machine="aarch64")
        assert not ok
        assert "python" in reason and "machine" in reason

    def test_missing_baseline_fields_are_incomparable(self):
        """A baseline captured before provenance fields existed must not
        silently compare equal."""
        ok, reason = baseline_comparability({}, python="3.11.7", machine="x86_64")
        assert not ok

    def test_no_baseline(self):
        ok, reason = baseline_comparability(None)
        assert not ok
        assert reason == "no baseline"

    def test_checked_in_baseline_has_provenance_fields(self):
        import json

        from repro.experiments.bench import BASELINE_PATH

        baseline = json.loads(BASELINE_PATH.read_text())
        assert "python" in baseline and "machine" in baseline


class TestBenchConstants:
    def test_headline_is_a_workload(self):
        from repro.experiments.bench import HEADLINE

        assert HEADLINE in WORKLOADS


class TestArgumentValidation:
    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_nonpositive_reps_exit_2_without_a_child(self, reps, monkeypatch, capsys):
        def no_child(*args, **kwargs):
            raise AssertionError("a timing child was started")

        monkeypatch.setattr("subprocess.run", no_child)
        with pytest.raises(SystemExit) as exit_info:
            main(["--reps", reps])
        assert exit_info.value.code == 2
        assert "valid values are 1..N" in capsys.readouterr().err


# -- partition bench critical path ---------------------------------------------


def test_partition_speedup_target_is_pinned():
    assert PARTITION_TARGET_SPEEDUP == 1.3


def test_critical_path_folds_overlap_and_recovers_coordinator_share():
    timing = {
        "wall_s": 10.0,
        "startup_s": 2.0,
        "worker_build_cpu_s": {0: 1.0, 1: 3.0},
        "worker_cpu_s": {0: 2.0, 1: 4.0},
    }
    critical, coord = critical_path_seconds(timing)
    # coordinator share: wall - startup - SUM(window cpu) = 10 - 2 - 6
    assert coord == pytest.approx(2.0)
    # critical path: MAX bring-up + MAX window + coordinator = 3 + 4 + 2
    assert critical == pytest.approx(9.0)


def test_critical_path_clamps_negative_coordinator_share():
    # workers genuinely overlapped: wall < startup + sum(cpu)
    timing = {
        "wall_s": 4.0,
        "startup_s": 1.0,
        "worker_build_cpu_s": {0: 0.5, 1: 0.5},
        "worker_cpu_s": {0: 2.0, 1: 2.0},
    }
    critical, coord = critical_path_seconds(timing)
    assert coord == 0.0
    assert critical == pytest.approx(0.5 + 2.0)


def test_critical_path_degrades_to_serial_shape_without_worker_data():
    # a serial run reports no per-worker CPU: critical path == wall
    timing = {"wall_s": 7.0, "startup_s": 0.0}
    critical, coord = critical_path_seconds(timing)
    assert coord == pytest.approx(7.0)
    assert critical == pytest.approx(7.0)


@pytest.mark.parametrize("bad", [0, -2])
def test_partition_bench_rejects_non_positive_worker_counts(bad):
    with pytest.raises(ValueError, match="positive worker count"):
        run_partition_bench(bad)
