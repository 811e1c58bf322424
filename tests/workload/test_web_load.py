"""Apache pool + httperf load generation + Perfmeter sampling."""

import pytest

from repro.hw.cpu import CPUSpec
from repro.metrics import Perfmeter
from repro.rtos import SolarisHostOS
from repro.sim import Environment, RandomStreams
from repro.workload import ApacheServer, Httperf, WebRequest

LIGHT_SWITCH = CPUSpec(
    name="host", clock_mhz=200.0, has_fpu=True,
    context_switch_us=10.0, cache_pollution_us=25.0,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def host(env):
    return SolarisHostOS(env, n_cpus=2, cpu_spec=LIGHT_SWITCH)


class TestApache:
    def test_pool_starts_with_five(self, env, host):
        server = ApacheServer(env, host)
        assert server.nprocs == 5

    def test_invalid_pool_sizes(self, env, host):
        with pytest.raises(ValueError):
            ApacheServer(env, host, start_procs=0)
        with pytest.raises(ValueError):
            ApacheServer(env, host, start_procs=11, max_procs=10)

    def test_requests_get_served(self, env, host):
        server = ApacheServer(env, host)
        for _ in range(20):
            server.submit(WebRequest(submitted_at=env.now, service_us=1000.0))
        env.run(until=5_000_000.0)
        assert server.requests_served == 20
        assert server.response_time_us.count == 20

    def test_pool_grows_under_backlog_up_to_max(self, env, host):
        server = ApacheServer(env, host, mean_service_us=50_000.0)
        Httperf(env, server, rate_per_s=200.0, total_calls=2000, rng=RandomStreams(1))
        env.run(until=10_000_000.0)
        assert server.nprocs == server.max_procs

    def test_pool_stable_when_idle(self, env, host):
        server = ApacheServer(env, host)
        env.run(until=5_000_000.0)
        assert server.nprocs == 5


class TestHttperf:
    def test_invalid_parameters(self, env, host):
        server = ApacheServer(env, host)
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=0.0)
        with pytest.raises(ValueError):
            Httperf(env, server, rate_per_s=10.0, connections=0)

    def test_total_calls_ceiling(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(env, server, rate_per_s=100.0, total_calls=50)
        env.run(until=30_000_000.0)
        assert perf.calls_issued == 50
        assert perf.calls_completed == 50

    def test_issue_rate_close_to_requested(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(
            env, server, rate_per_s=200.0, total_calls=10_000, rng=RandomStreams(2)
        )
        env.run(until=5_000_000.0)  # 5s
        achieved = perf.calls_issued / 5.0
        assert achieved == pytest.approx(200.0, rel=0.15)

    def test_start_and_stop_bounds(self, env, host):
        server = ApacheServer(env, host)
        perf = Httperf(
            env,
            server,
            rate_per_s=100.0,
            total_calls=100_000,
            start_at_us=1_000_000.0,
            stop_at_us=2_000_000.0,
        )
        env.run(until=1_000_000.0)
        assert perf.calls_issued == 0
        env.run(until=4_000_000.0)
        assert perf.calls_issued == pytest.approx(100, rel=0.5)


    def test_completion_accounting_pinned(self, env, host):
        """The worker calls httperf's collector directly when it sends the
        reply; the tallies equal the ones the per-reply done event gave."""
        server = ApacheServer(env, host, rng=RandomStreams(5))
        perf = Httperf(env, server, rate_per_s=300.0, total_calls=400, rng=RandomStreams(6))
        env.run(until=1_000_000.0)
        tally = perf.response_time_us
        assert (perf.calls_issued, perf.calls_completed, tally.count) == (324, 323, 323)
        assert tally.total == 2568507.382804689
        assert tally.min == 110.61835422406148
        assert tally.max == 116309.61352614366
        assert tally.variance == 144005093.49992839
        # every reply is collected at the instant the server logs it
        assert server.requests_served == perf.calls_completed
        assert server.response_time_us.total == tally.total

    def test_on_done_called_once_per_reply(self, env, host):
        server = ApacheServer(env, host)
        done = []
        for _ in range(5):
            server.submit(
                WebRequest(submitted_at=env.now, service_us=1000.0, on_done=done.append)
            )
        env.run(until=1_000_000.0)
        assert len(done) == 5 and len({id(r) for r in done}) == 5


class TestUtilizationTargets:
    """The Figure-6 knob: drive the host to a requested average level."""

    @pytest.mark.parametrize("target", [0.45, 0.60])
    def test_target_utilization_reached(self, env, host, target):
        server = ApacheServer(env, host, rng=RandomStreams(3))
        Httperf.for_target_utilization(
            env, server, target, n_cpus=2, total_calls=10**6, rng=RandomStreams(4)
        )
        meter = Perfmeter(env, host, period_us=500_000.0)
        env.run(until=30_000_000.0)  # 30s
        # skip the 2s ramp; context-switch overhead adds a little on top
        avg = meter.average(start=2_000_000.0) / 100.0
        assert avg == pytest.approx(target, abs=0.10)

    def test_invalid_target(self, env, host):
        server = ApacheServer(env, host)
        with pytest.raises(ValueError):
            Httperf.for_target_utilization(env, server, 1.5, n_cpus=2)


class TestPerfmeter:
    def test_idle_system_near_zero(self, env, host):
        meter = Perfmeter(env, host, period_us=1_000_000.0)
        env.run(until=5_000_000.0)
        assert meter.average() < 1.0

    def test_invalid_period(self, env, host):
        with pytest.raises(ValueError):
            Perfmeter(env, host, period_us=0.0)

    def test_fully_loaded_near_100(self, env, host):
        def burner(task):
            while True:
                yield task.compute(100_000.0)

        host.spawn("burn0", burner)
        host.spawn("burn1", burner)
        meter = Perfmeter(env, host, period_us=1_000_000.0)
        env.run(until=5_000_000.0)
        assert meter.average() > 95.0
