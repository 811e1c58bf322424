"""httperf-like web load generator.

"The web server is loaded using `httperf` (version 0.6) from remote
Linux-based clients. Flexible specification of load from remote clients is
allowed — web pages may be requested at a certain rate by a number of
connections with a user-specified ceiling on the total number of calls."

:class:`Httperf` reproduces that parameterization: ``connections``
concurrent open-loop connections, each issuing calls at ``rate_per_s``
(exponential interarrivals), stopping after ``total_calls``. The
convenience constructor :meth:`for_target_utilization` picks a rate that
drives the host CPUs to a requested average utilization — the 45 % and
60 % levels of Figure 6.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Environment, RandomStreams, TallyStats

from .apache import ApacheServer, WebRequest

__all__ = ["Httperf"]


class Httperf:
    """Open-loop request generator against an :class:`ApacheServer`."""

    def __init__(
        self,
        env: Environment,
        server: ApacheServer,
        rate_per_s: float,
        connections: int = 4,
        total_calls: int = 10_000,
        start_at_us: float = 0.0,
        stop_at_us: Optional[float] = None,
        rate_profile: Optional[list[tuple[float, float]]] = None,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        if rate_per_s <= 0 or connections < 1:
            raise ValueError("rate and connections must be positive")
        if rate_profile is not None:
            if not rate_profile or any(r < 0 for _t, r in rate_profile):
                raise ValueError("rate profile must be non-empty with rates >= 0")
            if sorted(t for t, _r in rate_profile) != [t for t, _r in rate_profile]:
                raise ValueError("rate profile times must be sorted")
        self.env = env
        self.server = server
        self.rate_per_s = rate_per_s
        #: optional piecewise-constant schedule [(start_us, rate_per_s), ...]
        #: of absolute aggregate rates; rate_per_s applies before the first
        #: entry. Used to reproduce Figure 6's ramping utilization profiles
        #: (load applied mid-run, bursting past the average level, then
        #: released).
        self.rate_profile = rate_profile
        self.connections = connections
        self.total_calls = total_calls
        self.start_at_us = start_at_us
        self.stop_at_us = stop_at_us
        self.calls_issued = 0
        self.calls_completed = 0
        self.response_time_us = TallyStats("httperf.response")
        streams = rng if rng is not None else RandomStreams(seed=0)
        self._gens = [streams.stream(f"httperf{i}") for i in range(connections)]
        for i in range(connections):
            env.process(self._connection(i), name=f"httperf.conn{i}")

    @classmethod
    def for_target_utilization(
        cls,
        env: Environment,
        server: ApacheServer,
        target_utilization: float,
        n_cpus: int,
        **kwargs,
    ) -> "Httperf":
        """Pick the aggregate rate that loads *n_cpus* to the target level.

        Open-loop M/M/k sizing: rate = target · k / E[service].
        """
        if not 0.0 < target_utilization < 1.0:
            raise ValueError("target utilization must be in (0, 1)")
        total_rate = (
            target_utilization * n_cpus * 1_000_000.0 / server.effective_mean_service_us
        )
        return cls(env, server, rate_per_s=total_rate, **kwargs)

    def current_rate(self, now_us: float) -> float:
        """Aggregate request rate in effect at *now_us*."""
        if self.rate_profile is None:
            return self.rate_per_s
        rate = self.rate_per_s
        for start, r in self.rate_profile:
            if now_us >= start:
                rate = r
            else:
                break
        return rate

    def _connection(self, idx: int) -> Generator:
        env = self.env
        gen = self._gens[idx]
        timeout = env.timeout
        exponential = gen.exponential
        if self.start_at_us > 0:
            yield timeout(self.start_at_us)
        # Piecewise-constant profile, applied with a monotone pointer: the
        # connection's clock only moves forward, so each entry is crossed
        # once instead of rescanning the schedule per call (current_rate()
        # stays as the random-access equivalent for external callers).
        profile = self.rate_profile
        next_entry = 0
        rate = self.rate_per_s
        stop_at = self.stop_at_us
        gap_scale = 1_000_000.0 * self.connections
        collect = self._collect
        while self.calls_issued < self.total_calls:
            if stop_at is not None and env.now >= stop_at:
                return
            if profile is not None:
                now = env.now
                while next_entry < len(profile) and now >= profile[next_entry][0]:
                    rate = profile[next_entry][1]
                    next_entry += 1
            if rate <= 0:
                # load released: idle until the profile may change
                yield timeout(500_000.0)
                continue
            yield timeout(float(exponential(gap_scale / rate)))
            if self.stop_at_us is not None and env.now >= self.stop_at_us:
                return
            if self.calls_issued >= self.total_calls:
                return  # another connection used the last call while we slept
            self.calls_issued += 1
            # Completion accounting is called by the worker that sends the
            # reply: same instant, no kernel event per call. It touches
            # only this generator's counters, so the collects keep the
            # order the replies were sent in.
            self.server.submit(
                WebRequest(
                    submitted_at=env.now,
                    service_us=self.server.draw_service_us(gen),
                    on_done=collect,
                )
            )

    def _collect(self, request: WebRequest) -> None:
        self.calls_completed += 1
        self.response_time_us.add(self.env.now - request.submitted_at)
