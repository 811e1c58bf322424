"""Per-layer instrumentation for the traced benchmark pass.

Everything here attaches to the simulator from outside, inside the
benchmark process only, and is removed again when the pass ends:

* :class:`Counters` — class-level constructor hooks register every
  instance of the layer objects that carry a deterministic work counter
  (``Environment``, ``OSKernel``, ``DWCSScheduler``, ``DMAEngine`` ...);
  :meth:`Counters.collect` sums their counters and forgets the instances.
* :class:`Spans` — in-memory spans (name, start, end, parent) around the
  public entry points: workload → experiment → cell → ``Environment.run``
  or artifact export.
* :func:`package_self_seconds` — leaf-frame samples of
  :class:`repro.obs.profile.WallClockProfiler` rolled up by the innermost
  ``repro.<package>`` frame, for every package (the profiler's own
  ``package_rollup`` only knows five families).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: the ``repro.*`` packages reported as layers, in report order
LAYERS = (
    "sim",
    "rtos",
    "hw",
    "core",
    "net",
    "server",
    "media",
    "workload",
    "fixedpoint",
    "faults",
    "ha",
    "obs",
    "pdes",
    "experiments",
    "dvcm",
    "metrics",
)

#: the experiment entry points whose calls become cell spans
CELL_FUNCTIONS = (
    "run_loading_experiment",
    "run_observed",
    "run_chaos_scenario",
    "run_failover_scenario",
)


def _registries() -> dict[str, type]:
    """Layer classes whose instances carry deterministic work counters."""
    from repro.core.dwcs import DWCSScheduler
    from repro.hw.disk import SCSIDisk
    from repro.hw.ethernet import EthernetLink, EthernetSwitch
    from repro.hw.pci import DMAEngine
    from repro.media.player import StreamReception
    from repro.net.tcp import TCPConnection
    from repro.net.transport import MediaTransportBooks
    from repro.net.ttp import TTPLink
    from repro.pdes.coordinator import RunStats
    from repro.rtos.kernel import OSKernel
    from repro.sim import Environment
    from repro.sim.trace import Tracer
    from repro.workload.httperf import Httperf

    return {
        "env": Environment,
        "os": OSKernel,
        "dwcs": DWCSScheduler,
        "dma": DMAEngine,
        "link": EthernetLink,
        "switch": EthernetSwitch,
        "disk": SCSIDisk,
        "tcp": TCPConnection,
        "ttp": TTPLink,
        "books": MediaTransportBooks,
        "reception": StreamReception,
        "tracer": Tracer,
        "httperf": Httperf,
        "pdes": RunStats,
    }


#: counter name -> ((registry key, reader), ...); summed over every instance
_READERS: dict[str, tuple[tuple[str, Callable[[Any], int]], ...]] = {
    "sim.events": (("env", lambda env: env._seq),),
    "workload.requests": (("httperf", lambda h: h.calls_completed),),
    "rtos.context_switches": (("os", lambda k: k.context_switches),),
    "core.decisions": (("dwcs", lambda s: s.stats.decisions),),
    "hw.pci_bytes": (("dma", lambda d: d.bytes_moved),),
    "hw.eth_frames": (("link", lambda link: link.frames_sent),),
    "hw.eth_dropped": (("switch", lambda sw: sw.frames_dropped),),
    "hw.disk_reads": (("disk", lambda d: d.stats.reads),),
    "net.retransmissions": (
        ("tcp", lambda c: c.retransmissions),
        ("ttp", lambda link: link.retransmissions),
    ),
    "net.records_delivered": (("books", lambda b: len(b.delivered_ids)),),
    "server.frames_delivered": (("reception", lambda r: r.frames_received),),
    "obs.spans_emitted": (("tracer", lambda t: t.emitted),),
    "obs.spans_discarded": (("tracer", lambda t: t.discarded),),
    "pdes.windows": (("pdes", lambda s: s.windows),),
    "pdes.cross_messages": (("pdes", lambda s: s.messages),),
}

#: every deterministic counter :meth:`Counters.collect` reports
COUNTER_NAMES = tuple(_READERS)


class Counters:
    """Constructor hooks that register instances, and their summed counters.

    Instances are held strongly until :meth:`collect`, which the pass
    calls after every experiment, so a counter is read once its run has
    finished and the objects are released right after.
    """

    def __init__(self) -> None:
        self._classes = _registries()
        self._seen: dict[str, dict[int, Any]] = {k: {} for k in self._classes}
        self._saved: list[tuple[type, Any]] = []
        self.totals: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def install(self) -> "Counters":
        for key, cls in self._classes.items():
            original = cls.__dict__["__init__"]
            seen = self._seen[key]

            @functools.wraps(original)
            def init(self, *args, _original=original, _seen=seen, **kwargs):
                _original(self, *args, **kwargs)
                _seen[id(self)] = self

            self._saved.append((cls, original))
            cls.__init__ = init
        return self

    def uninstall(self) -> None:
        for cls, original in reversed(self._saved):
            cls.__init__ = original
        self._saved.clear()

    def collect(self) -> None:
        """Add the registered instances' counters to the totals; forget them."""
        for name, readers in _READERS.items():
            self.totals[name] += sum(
                read(obj) for key, read in readers for obj in self._seen[key].values()
            )
        for seen in self._seen.values():
            seen.clear()


class Spans:
    """In-memory spans: ``(name, start, end, parent)`` in seconds from start."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _duration(self, i: int) -> float:
        return self.records[i]["end"] - self.records[i]["start"]

    def _top(self, kind: str, under: int, blockers: tuple[str, ...] = ()) -> list[int]:
        """Outermost ``kind:*`` spans below *under*, not inside a *blockers* span."""
        stop = tuple(f"{k}:" for k in (kind, *blockers))
        found: list[int] = []
        for i, rec in enumerate(self.records):
            if not rec["name"].startswith(kind + ":"):
                continue
            parent = rec["parent"]
            while parent is not None and parent != under:
                if self.records[parent]["name"].startswith(stop):
                    break
                parent = self.records[parent]["parent"]
            else:
                if parent == under:
                    found.append(i)
        return found

    def build_and_assemble_s(self) -> tuple[float, float]:
        """``experiments.build_s`` and ``experiments.assemble_s``.

        Build time is each outermost cell span minus the ``Environment.run``
        spans inside it (topology assembly and MPEG synthesis). Assembly
        time is each experiment span minus its outermost cell spans and
        any ``Environment.run`` spans outside a cell.
        """
        build = assemble = 0.0
        for exp in (i for i, r in enumerate(self.records) if r["name"].startswith("experiment:")):
            cells = self._top("cell", exp)
            for cell in cells:
                build += self._duration(cell) - sum(
                    self._duration(r) for r in self._top("run", cell)
                )
            loose_runs = sum(
                self._duration(r) for r in self._top("run", exp, blockers=("cell",))
            )
            assemble += (
                self._duration(exp)
                - sum(self._duration(c) for c in cells)
                - loose_runs
            )
        return build, assemble


@contextmanager
def traced_entry_points(spans: Spans) -> Iterator[None]:
    """Wrap the cell entry points, ``Environment.run`` and partition builds."""
    from repro import experiments
    from repro.pdes.partition import PartitionHarness
    from repro.sim import Environment

    patched: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, spans.wrap(name, original))

    for fname in CELL_FUNCTIONS:
        original = getattr(experiments, fname)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("repro.") and getattr(module, fname, None) is original:
                patch(module, fname, f"cell:{fname}")
    patch(Environment, "run", "run:Environment.run")
    harnesses = list(PartitionHarness.__subclasses__())
    while harnesses:
        cls = harnesses.pop()
        harnesses.extend(cls.__subclasses__())
        if "build" in cls.__dict__:
            patch(cls, "build", f"cell:{cls.__name__}.build")
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def package_of(frame_label: str) -> Optional[str]:
    """``repro.<package>`` of a ``module:function`` profiler frame label."""
    module = frame_label.split(":", 1)[0]
    if not module.startswith("repro."):
        return None
    return module.split(".")[1]


def package_self_seconds(profiler) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds and sample shares per layer, by innermost repro frame.

    Samples whose stack holds no ``repro.*`` frame land in ``other``.
    """
    counts: dict[str, int] = {}
    for stack, n in profiler.stacks.items():
        layer = next(
            (p for p in map(package_of, reversed(stack)) if p is not None), "other"
        )
        counts[layer] = counts.get(layer, 0) + n
    total = profiler.samples or 1
    shares = {layer: n / total for layer, n in counts.items()}
    return {k: v * profiler.wall_s for k, v in shares.items()}, shares
