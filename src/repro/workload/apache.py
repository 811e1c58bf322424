"""Apache-like web server model.

The paper loads its host with "the Apache web server version 1.3.12 (with a
maximum of 10 server processes and starting process pool with five server
processes)". Model: a pre-fork process pool on the host OS; each worker
pulls a request from the accept queue, burns CPU for parse+respond, and
(optionally) blocks briefly for disk/network. The pool grows on backlog up
to ``max_procs`` and never shrinks below ``start_procs`` — the observable
behaviour Figure 6's load profile depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.rtos.solaris import SolarisHostOS
from repro.rtos.task import Task
from repro.sim import Environment, RandomStreams, Store, TallyStats

__all__ = ["WebRequest", "ApacheServer"]


@dataclass
class WebRequest:
    """One HTTP call."""

    submitted_at: float
    #: CPU work to serve it, µs
    service_us: float
    #: called with the request when its reply has been sent (the
    #: client's completion accounting), at the instant the worker finishes
    on_done: Optional[Callable[["WebRequest"], None]] = None


class ApacheServer:
    """Pre-fork worker pool running as host OS tasks."""

    def __init__(
        self,
        env: Environment,
        host_os: SolarisHostOS,
        start_procs: int = 5,
        max_procs: int = 10,
        mean_service_us: float = 2_000.0,
        io_wait_us: float = 500.0,
        heavy_tail_prob: float = 0.04,
        heavy_tail_mult: float = 25.0,
        rng: Optional[RandomStreams] = None,
        priority: int = 110,
    ) -> None:
        if not 1 <= start_procs <= max_procs:
            raise ValueError("need 1 <= start_procs <= max_procs")
        if not 0.0 <= heavy_tail_prob < 1.0:
            raise ValueError("heavy_tail_prob must be in [0, 1)")
        self.env = env
        self.host_os = host_os
        self.max_procs = max_procs
        self.mean_service_us = mean_service_us
        self.io_wait_us = io_wait_us
        #: real web loads are heavy-tailed: most calls are small static
        #: pages, a few are CGI/large responses holding a CPU for many
        #: quanta. The tail is what produces the >80 % bursts inside a
        #: 60 %-average profile (Figure 6) and the multi-quantum stalls
        #: that starve a host-resident packet scheduler.
        self.heavy_tail_prob = heavy_tail_prob
        self.heavy_tail_mult = heavy_tail_mult
        self.priority = priority
        self._rng = (rng if rng is not None else RandomStreams(seed=0)).stream("apache")
        self._io_wait_buf: list[float] = []
        self.accept_queue: Store = Store(env, name="apache.accept")
        self.workers: list[Task] = []
        self.requests_served = 0
        self.response_time_us = TallyStats("apache.response")
        for _ in range(start_procs):
            self._fork()
        # the master process watches backlog and forks up to max_procs
        env.process(self._master(), name="apache.master")

    @property
    def nprocs(self) -> int:
        return len(self.workers)

    @property
    def effective_mean_service_us(self) -> float:
        """Mean CPU per call including the heavy tail (for load sizing)."""
        p, m = self.heavy_tail_prob, self.heavy_tail_mult
        return self.mean_service_us * (1.0 - p + p * m)

    def draw_service_us(self, gen) -> float:
        """Sample one call's CPU demand."""
        if self.heavy_tail_prob > 0 and gen.random() < self.heavy_tail_prob:
            return float(gen.exponential(self.mean_service_us * self.heavy_tail_mult))
        return float(gen.exponential(self.mean_service_us))

    def submit(self, request: WebRequest) -> None:
        """Hand a parsed request to the pool (called by httperf's network)."""
        self.accept_queue.put_nowait(request)

    # -- processes -----------------------------------------------------------
    def _fork(self) -> None:
        idx = len(self.workers)
        self.workers.append(
            self.host_os.spawn(f"httpd{idx}", self._worker, priority=self.priority)
        )

    def _master(self) -> Generator:
        while True:
            yield self.env.timeout(500_000.0)  # Apache's 1-per-second-ish ramp
            if len(self.accept_queue.items) > 2 and self.nprocs < self.max_procs:
                self._fork()

    def _draw_io_wait_us(self) -> float:
        """Next logging/disk-write stall, drawn from the shared pool stream.

        Draws are buffered in batches: numpy's ``Generator.exponential``
        produces the identical value sequence batched or one at a time, and
        batching amortizes the per-call dispatch overhead across the pool's
        busiest path.
        """
        buf = self._io_wait_buf
        if not buf:
            # tolist() yields plain python floats (np.float64 must not leak
            # into the simulation clock); reversed so pop() consumes in
            # draw order.
            buf.extend(reversed(self._rng.exponential(self.io_wait_us, size=256).tolist()))
        return buf.pop()

    def _worker(self, task: Task) -> Generator:
        env = self.env
        timeout = env.timeout
        get = self.accept_queue.get
        response_add = self.response_time_us.add
        while True:
            request: WebRequest = yield get()
            yield task.compute(request.service_us)
            if self.io_wait_us > 0:
                # logging/disk write: blocks, does not burn CPU
                yield timeout(self._draw_io_wait_us())
            self.requests_served += 1
            response_add(env.now - request.submitted_at)
            if request.on_done is not None:
                request.on_done(request)
