"""Layer-by-layer benchmark of the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-eval --seed 42 --seconds 20 --trace 0

One process per run. It sets up (imports the simulator), then runs the
workload's experiments back to back, pass after pass, until ``--seconds``
have elapsed (at least two passes, so every seed has a reference digest
to reproduce). Every experiment's result is checked against its pinned
digest before its time is kept.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``). ``--trace 1`` runs the same untraced passes, then one
traced pass — spans, constructor-hook work counters and leaf-frame
sampling — and reports the per-layer metrics; the spans are written to
``perfbench/out/`` at the end.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402

#: every pass count below this leaves a non-42 seed without a reference
MIN_PASSES = 2

#: fresh-interpreter set-ups timed per run for ``setup_s``
SETUP_SAMPLES = 5


def measure(workload: str, seed: int, oracle, seconds: float) -> tuple[list, list, float]:
    """Untraced passes of *workload* until *seconds* have elapsed.

    Times the host-speed probe before the first experiment, after any
    experiment that ends ``probe.EVERY_S`` or more after the last probe,
    and after the last pass. Every step is scaled by the mean of the two
    probes around it (see :mod:`probe`). Returns the raw passes, each
    pass's scaled step times, and the run's median probe seconds. Prints
    each step's raw sample count, median and range to stderr.
    """
    probes = [probe.host_seconds()]
    last = time.perf_counter()
    #: (raw step times, scaled step times, step) run since the last probe
    pending: list[tuple[dict, dict, str]] = []

    def take_probe() -> None:
        nonlocal last
        probes.append(probe.host_seconds())
        last = time.perf_counter()
        scale = probe.REFERENCE_S / ((probes[-2] + probes[-1]) / 2)
        for raw, out, step in pending:
            out[step] = raw[step] * scale
        pending.clear()

    records: list = []
    scaled: list[dict[str, float]] = []
    t0 = time.perf_counter()
    while len(records) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        out: dict[str, float] = {}
        seen = 0

        def after_step(record) -> None:
            nonlocal seen
            pending.extend((record.times, out, step) for step in list(record.times)[seen:])
            seen = len(record.times)
            if time.perf_counter() - last >= probe.EVERY_S:
                take_probe()

        records.append(harness.run_pass(workload, seed, oracle, after_step=after_step))
        scaled.append(out)
    take_probe()
    for step in records[0].times:
        samples = [r.times[step] for r in records if step in r.times]
        print(
            f"{step}: n={len(samples)} median={statistics.median(samples):.3f}s "
            f"min={min(samples):.3f}s max={max(samples):.3f}s",
            file=sys.stderr,
        )
    probe_s = statistics.median(probes)
    print(
        f"host probe: n={len(probes)} median={probe_s:.4f}s "
        f"min={min(probes):.4f}s max={max(probes):.4f}s",
        file=sys.stderr,
    )
    return records, scaled, probe_s


def setup_seconds() -> float:
    """Median host seconds from interpreter start to set-up done.

    Each sample is a fresh interpreter that runs :func:`harness.setup` and
    prints ``time.perf_counter()`` (the system-wide monotonic clock), so
    the sample includes interpreter start.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set in MB (Linux reports ``ru_maxrss`` in KiB);
    *children* also takes the largest waited-for child (the workers)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def wall_seconds(workload: str, records: list, scaled: list) -> float:
    """``wall_s``: the sum of per-step medians, host-scaled when the step's
    work ran in this process (the probe measures only this process's CPU)."""
    in_process = {exp.name: exp.in_process for exp in harness.WORKLOADS[workload]}
    raw = harness.step_medians(records)
    return sum(
        statistics.median(out[step] for out in scaled if step in out)
        if in_process[step.split(":")[0]] else seconds
        for step, seconds in raw.items()
    )


def end_to_end(workload: str, seed: int, oracle, seconds: float) -> dict:
    setup_s = setup_seconds()
    records, scaled, _ = measure(workload, seed, oracle, seconds)
    return {
        "wall_s": (wall_seconds(workload, records, scaled), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            peak_rss_mb(children=not all(e.in_process for e in harness.WORKLOADS[workload])),
            "MB",
        ),
    }


def _median_of(records: list, read) -> float:
    values = [read(r.pdes_timing) for r in records if r.pdes_timing]
    return statistics.median(values) if values else 0.0


def per_layer(workload: str, seed: int, oracle, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for the baseline, then one traced pass.

    Host times are raw, except ``sim.ns_per_event``, which divides the
    end-to-end ``wall_s``; ``host.probe_s`` is the run's probe median.
    """
    from repro.obs.profile import WallClockProfiler

    records, scaled, probe_s = measure(workload, seed, oracle, seconds)
    medians = harness.step_medians(records)
    wall_s = sum(medians.values())

    counters = layers.Counters().install()
    spans = layers.Spans()
    try:
        with layers.traced_entry_points(spans), WallClockProfiler() as profiler:
            with spans.span(f"workload:{workload}"):
                traced = harness.run_pass(
                    workload, seed, oracle,
                    serial=True, counters=counters, spans=spans,
                )
    finally:
        counters.uninstall()
    self_s, shares = layers.package_self_seconds(profiler)
    build_s, assemble_s = spans.build_and_assemble_s()
    totals = counters.totals
    frames = totals["server.frames_delivered"]
    errors = records[0].paper_errors

    metrics: dict[str, tuple[float, str]] = {}
    for name in layers.COUNTER_NAMES:
        unit = "bytes" if name == "hw.pci_bytes" else "count"
        metrics[name] = (totals[name], unit)
    metrics["sim.events_per_frame"] = (
        totals["sim.events"] / frames if frames else 0.0, "events/frame"
    )
    events = totals["sim.events"]
    metrics["sim.ns_per_event"] = (
        wall_seconds(workload, records, scaled) / events * 1e9 if events else 0.0, "ns"
    )
    for layer in layers.LAYERS + ("other",):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics["obs.export_s"] = (medians.get("observe:export", 0.0), "s")
    metrics["pdes.bringup_s"] = (_median_of(records, lambda t: t["startup_s"]), "s")
    metrics["pdes.worker_cpu_max_s"] = (
        _median_of(records, lambda t: max(t["worker_cpu_s"].values(), default=0.0)), "s"
    )
    metrics["pdes.coordinator_s"] = (_median_of(records, lambda t: t["wall_s"]), "s")
    metrics["experiments.build_s"] = (build_s, "s")
    metrics["experiments.assemble_s"] = (assemble_s, "s")
    metrics["experiments.paper_err_pct"] = (
        100.0 * statistics.median(errors) if errors else 0.0, "%"
    )
    metrics["trace.overhead"] = (traced.wall_s / wall_s, "x")
    metrics["host.probe_s"] = (probe_s, "s")

    trace = {
        "workload": workload,
        "seed": seed,
        "host_probe_s": probe_s,
        "untraced_wall_s": wall_s,
        "traced_wall_s": traced.wall_s,
        "samples": profiler.samples,
        "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "layer_self_s": self_s,
        "counters": totals,
        "spans": spans.records,
    }
    return metrics, trace


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.setup()
    except ImportError as exc:
        print(f"perfbench: cannot set up the simulator: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(time.perf_counter()))
        return 0
    # a terminated run still stops and waits for its workers (finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    finally:
        harness.stop_children()


def run(args: argparse.Namespace) -> int:
    """One measured run; prints the result line."""
    # keep every experiment's derived seeds (seed + 1000 ...) in range
    seed = args.seed % 2**31
    oracle = harness.Oracle(harness.pinned_digests(seed, None))
    if args.trace:
        metrics, trace = per_layer(args.workload, seed, oracle, args.seconds)
        harness.OUT.mkdir(exist_ok=True)
        path = harness.OUT / f"trace-{args.workload}-seed{seed}.json"
        path.write_text(json.dumps(trace, indent=1) + "\n")
        print(f"spans and layer shares written to {path}", file=sys.stderr)
    else:
        metrics = end_to_end(args.workload, seed, oracle, args.seconds)
    for failure in oracle.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
