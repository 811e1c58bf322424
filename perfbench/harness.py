"""Workloads, the pinned-digest oracle, and one timed pass of a workload.

A workload is a fixed list of registered experiments run back to back
through :func:`repro.experiments.golden.compute_result`, the same entry
point the golden-digest tests use. Every experiment's result digest is
checked before its time is kept:

* at seed 42 against the pinned ``golden_digests.json`` set (``full``
  at the paper's duration, ``short`` at the tier-1 duration);
* at any other seed against the digest of the same experiment's first
  pass in this process.

An experiment that raises, or whose digest differs, counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: where exports and trace files land (inside the checkout, git-ignored)
OUT = Path(__file__).resolve().parent / "out"

#: the seed every golden digest is pinned at
GOLDEN_SEED = 42

#: the Figure 6-10 experiments whose ``paper=`` rows are held out of
#: calibration (docs/CALIBRATION.md "Layer 3"); Tables 1-5 are fits
HELD_OUT = ("figure6", "figure7", "figure8", "figure9", "figure10")


@dataclass(frozen=True)
class Experiment:
    """One registered experiment, run with pinned keyword overrides."""

    name: str
    overrides: dict = field(default_factory=dict)
    #: also write the observability artifacts via write_observe_artifacts
    export: bool = False

    @property
    def in_process(self) -> bool:
        """False when the work runs in spawned workers, not this process."""
        return not self.overrides.get("partitions")


WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    "paper-eval": tuple(
        Experiment(name)
        for name in (
            "table1", "table2", "table3", "table4", "table5",
            "figure6", "figure7", "figure8", "figure9", "figure10",
        )
    ),
    "wire-faults": (
        Experiment("transport"),
        Experiment("chaos"),
        Experiment("failover"),
    ),
    "observed": (Experiment("observe", export=True),),
    "partitioned": (Experiment("pdescluster", {"partitions": 2}),),
}


def setup() -> None:
    """Everything a run does before its first timed call: the imports.

    Raises ``ImportError`` when the checkout holds no simulator source.
    """
    if not (SRC / "repro").is_dir():
        raise ImportError(f"no simulator source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.experiments  # noqa: F401  (the registry and every runner)
    import repro.obs  # noqa: F401  (the artifact writer)
    import repro.obs.profile  # noqa: F401
    from repro.experiments import golden

    golden.load_goldens()


def stop_children() -> None:
    """Stop and wait for every process ``multiprocessing`` started here.

    That is any worker still alive and the resource tracker that the
    first spawn start brings up; left alone, the tracker outlives the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def pinned_digests(seed: int, duration_us: Optional[float]) -> dict[str, str]:
    """The golden digests that apply to runs at *seed* and *duration_us*."""
    from repro.experiments import golden

    if seed != GOLDEN_SEED:
        return {}
    which = "full" if duration_us is None else "short"
    pinned = golden.load_goldens().get(which, {})
    if pinned.get("duration_us") != duration_us:
        return {}
    return dict(pinned.get("digests", {}))


class Oracle:
    """Checks digests against pinned ones; counts attempts and failures.

    A key with no pinned digest pins its first digest, so later passes
    of the same run must reproduce it byte for byte.
    """

    def __init__(self, pinned: dict[str, str]) -> None:
        self.pinned = dict(pinned)
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, key: str, digest: str) -> bool:
        self.attempted += 1
        want = self.pinned.setdefault(key, digest)
        if digest != want:
            self.failures.append(f"{key}: digest {digest} != pinned {want}")
            return False
        return True

    def fail(self, key: str, error: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{key}: {type(error).__name__}: {error}")
        traceback.print_exception(error, file=sys.stderr)


@dataclass
class PassRecord:
    """What one pass of a workload measured."""

    #: step -> host seconds (an experiment, or ``<name>:export``)
    times: dict[str, float] = field(default_factory=dict)
    #: the pdes coordinator's timing block of the pass, if any
    pdes_timing: dict = field(default_factory=dict)
    #: |measured - paper| / paper of every held-out row
    paper_errors: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


@contextmanager
def _captured_observed(into: list) -> Iterator[None]:
    """Collect the ObservedRun objects ``observe`` builds (for the export)."""
    # the package re-exports the ``observe`` function under the module's name
    observe_mod = importlib.import_module("repro.experiments.observe")
    original = observe_mod.run_observed

    def capture(*args, **kwargs):
        orun = original(*args, **kwargs)
        into.append(orun)
        return orun

    observe_mod.run_observed = capture
    try:
        yield
    finally:
        observe_mod.run_observed = original


def _export(runs: list, oracle: Oracle, key: str, record: PassRecord, spans) -> None:
    """Time ``write_observe_artifacts``; digest the files it wrote."""
    from repro.obs import write_observe_artifacts

    out_dir = OUT / f"export-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with spans.span(f"export:{key}") if spans else nullcontext():
            t0 = time.perf_counter()
            written = write_observe_artifacts(
                str(out_dir), [(orun.kind, orun.plane) for orun in runs]
            )
            record.times[key] = time.perf_counter() - t0
        h = hashlib.sha256()
        for path in sorted(written):
            h.update(os.path.basename(path).encode())
            h.update(Path(path).read_bytes())
        oracle.check(key, h.hexdigest())
    except Exception as exc:  # noqa: BLE001 - a failure is counted, not fatal
        oracle.fail(key, exc)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_pass(
    workload: str,
    seed: int,
    oracle: Oracle,
    duration_us: Optional[float] = None,
    serial: bool = False,
    counters=None,
    spans=None,
    after_step: Optional[Callable[[PassRecord], None]] = None,
) -> PassRecord:
    """Run every experiment of *workload* once, checking each result.

    ``serial`` drops the ``partitions`` override (the byte-identical
    in-process executor). ``counters``/``spans`` are the traced pass's
    instruments; an experiment's counters are collected right after it.
    ``after_step`` gets the pass so far after every experiment, outside
    its timing.
    """
    from repro.experiments import golden

    record = PassRecord()
    for exp in WORKLOADS[workload]:
        overrides = dict(exp.overrides)
        if serial:
            overrides.pop("partitions", None)
        timing: dict = {}
        observed: list = []
        gc.collect()
        with _captured_observed(observed) if exp.export else nullcontext():
            try:
                with spans.span(f"experiment:{exp.name}") if spans else nullcontext():
                    t0 = time.perf_counter()
                    result = golden.compute_result(
                        exp.name,
                        seed=seed,
                        duration_us=duration_us,
                        out_dir=None,
                        timing_sink=timing,
                        **overrides,
                    )
                    record.times[exp.name] = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - a failure is counted
                oracle.fail(exp.name, exc)
                continue
        if counters is not None:
            counters.collect()
        oracle.check(exp.name, golden.result_digest(result))
        record.pdes_timing.update(timing)
        if exp.name in HELD_OUT:
            record.paper_errors.extend(
                abs(row.measured - row.paper) / abs(row.paper)
                for row in result.rows
                if row.paper
            )
        if exp.export:
            _export(observed, oracle, f"{exp.name}:export", record, spans)
        if after_step is not None:
            after_step(record)
    return record


def step_medians(records: list[PassRecord]) -> dict[str, float]:
    """Per-step median seconds over the passes that completed the step."""
    steps: dict[str, list[float]] = {}
    for rec in records:
        for step, seconds in rec.times.items():
            steps.setdefault(step, []).append(seconds)
    return {step: statistics.median(v) for step, v in steps.items()}
