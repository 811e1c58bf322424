"""The sweep CLI end to end: artifacts, caching, determinism.

Kept cheap: `sens_costs` is the fastest registry experiment, so the
matrix here is 2 seeds of it — enough to exercise the full path
(job build → pool → cache → merge → artifacts → summary line).
"""

import json

import pytest

from repro.experiments import sweep


def run_sweep(tmp_path, capsys, extra=()):
    argv = [
        "--experiments", "sens_costs",
        "--seeds", "2",
        "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(tmp_path / "sweep"),
        "--quiet",
        *extra,
    ]
    rc = sweep.main(argv)
    return rc, capsys.readouterr().out


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep-cli")


def test_cold_run_writes_artifacts_and_summary(sweep_dir, capsys):
    rc, out = run_sweep(sweep_dir, capsys)
    assert rc == 0
    assert (sweep_dir / "sweep" / "SWEEP_result.txt").exists()
    assert (sweep_dir / "sweep" / "SWEEP_report.json").exists()
    assert "sweep: 2 jobs" in out
    report = json.loads((sweep_dir / "sweep" / "SWEEP_report.json").read_text())
    assert report["cache"]["misses"] == 2
    assert all(j["status"] == "ran" for j in report["jobs"])
    assert all(j["peak_rss_kb"] > 0 for j in report["jobs"])


def test_warm_run_hits_cache_and_is_byte_identical(sweep_dir, capsys):
    cold_text = (sweep_dir / "sweep" / "SWEEP_result.txt").read_text()
    rc, out = run_sweep(sweep_dir, capsys)
    assert rc == 0
    assert "2 cached" in out and "hit-rate=100%" in out
    assert (sweep_dir / "sweep" / "SWEEP_result.txt").read_text() == cold_text


def test_no_cache_recomputes_but_stays_identical(sweep_dir, capsys):
    warm_text = (sweep_dir / "sweep" / "SWEEP_result.txt").read_text()
    rc, out = run_sweep(sweep_dir, capsys, extra=["--no-cache"])
    assert rc == 0
    assert "0 cached" in out
    assert (sweep_dir / "sweep" / "SWEEP_result.txt").read_text() == warm_text


def test_merged_result_carries_ci_and_provenance(sweep_dir):
    text = (sweep_dir / "sweep" / "SWEEP_result.txt").read_text()
    assert "mean of 2 seeds, 95% CI" in text
    assert text.count("result digest") == 2  # one provenance note per job
    assert "merged digest: " in text


def test_out_none_writes_nothing(tmp_path, capsys):
    rc = sweep.main(
        [
            "--experiments", "sens_costs",
            "--seeds", "1",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", "none",
            "--quiet",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" not in out
    assert not (tmp_path / "sweep").exists()


def test_job_matrices_shapes():
    jobs = sweep.replicate_jobs(["a", "b"], seeds=3, seed_base=10)
    assert len(jobs) == 6
    assert [j.seed for j in jobs[:3]] == [10, 11, 12]
    sens = sweep.sensitivity_jobs(scales=[1.5, 2.0], seeds=2)
    assert [j.experiment for j in sens] == [
        "sens_costs", "sens_costs", "sens_knockouts", "sens_knockouts"
    ]
    scen = sweep.scenario_jobs()
    assert all(j.experiment in ("chaos", "failover", "cluster") for j in scen)
    assert {j.experiment for j in scen} == {"chaos", "failover", "cluster"}
    assert all(len(j.config["scenarios"]) == 1 for j in scen)
    assert len({j.digest for j in scen}) == len(scen)
    clus = sweep.cluster_jobs(nodes=[2, 3], scenarios=("baseline",))
    assert [j.config["n_nodes"] for j in clus] == [2, 3]
    assert all(j.experiment == "cluster" for j in clus)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seeds", "0"),
        ("--seeds", "-2"),
        ("--jobs", "0"),
        ("--jobs", "-1"),
        ("--timeout", "0"),
        ("--timeout", "-5"),
        ("--retries", "-1"),
        ("--duration", "0"),
        ("--duration", "-5"),
        ("--duration", "inf"),
        ("--nodes", "1"),
        ("--nodes", "two"),
        ("--nodes", "2,0"),
        ("--nodes", ""),
        ("--scales", "big"),
        ("--scales", "1.5,nan"),
    ],
)
def test_nonsense_counts_exit_2_without_a_worker(flag, value, tmp_path, monkeypatch, capsys):
    def no_worker(*args, **kwargs):
        raise AssertionError("a sweep worker was started")

    monkeypatch.setattr(sweep.SweepRunner, "run", no_worker)
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(
            ["--experiments", "sens_costs", "--out", str(tmp_path), flag, value]
        )
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} must be" in err and "valid values are" in err
    assert not any(tmp_path.iterdir())
