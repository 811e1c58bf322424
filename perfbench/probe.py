"""Host-speed probe: a frozen pure-Python event loop.

Timings on a shared 2-vCPU host drift by up to 2x over minutes as
neighbours come and go, and by tens of percent from one second to the
next. Run medians absorb neither. The probe is a small discrete-event
loop in the simulator's style: a heap of slotted event objects,
generator processes resumed by ``send`` and dict updates. It imports
nothing from ``repro``, so no change to the simulator moves it. Its time
at a given moment therefore measures the host's speed at that moment.

A run times the probe before its first experiment, after any experiment
that ends at least ``EVERY_S`` after the previous probe, and after its
last pass. It scales the time of every experiment that runs in its own
process by ``REFERENCE_S`` over the mean of the two probes around it:
the time the work would have taken on a host where the probe takes
``REFERENCE_S``, at the moment the work ran. Work in spawned workers
runs on CPUs the probe does not measure, so its time stays raw.

Changing the loop or ``REFERENCE_S`` changes every scaled time, so
both stay fixed.
"""

from __future__ import annotations

import gc
import heapq
import time

#: probe seconds on the reference host; reported times are scaled to it
REFERENCE_S = 0.2

#: events per probe: about REFERENCE_S on the host the constant came from
EVENTS = 120_000

#: measured seconds between probes
EVERY_S = 0.5

_PROCESSES = 256


class _Event:
    __slots__ = ("time", "seq", "proc", "callbacks")

    def __init__(self, time: float, seq: int, proc: int) -> None:
        self.time = time
        self.seq = seq
        self.proc = proc
        self.callbacks: list = []


def _process(index: int, totals: dict):
    while True:
        delay = yield
        totals[index % 97] = totals.get(index % 97, 0.0) + delay


def host_seconds(events: int = EVENTS) -> float:
    """Seconds this host takes, right now, for the fixed probe loop.

    The collector is off while the loop runs, so the size of the
    caller's heap does not change how long the loop takes.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(events)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _loop(events: int) -> None:
    totals: dict = {}
    procs = []
    for i in range(_PROCESSES):
        proc = _process(i, totals)
        next(proc)
        procs.append(proc)
    heap: list = []
    seq = 0
    for i in range(_PROCESSES):
        seq += 1
        heapq.heappush(heap, (float(i % 13), seq, _Event(float(i % 13), seq, i)))
    recent: list = []
    for _ in range(events):
        now, ev_seq, ev = heapq.heappop(heap)
        delay = 1.0 + (ev.proc * 7919 + ev_seq) % 17 * 0.125
        procs[ev.proc].send(delay)
        seq += 1
        nxt = _Event(now + delay, seq, ev.proc)
        nxt.callbacks.append(ev_seq)
        recent.append(nxt)
        if len(recent) > 2_000:
            recent = recent[1_000:]
        heapq.heappush(heap, (now + delay, seq, nxt))
