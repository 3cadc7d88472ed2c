"""Tests for the event-driven serving simulation (virtual clock, SLOs)."""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.ci import Server
from repro.ci.pipeline import Client
from repro.core.selector import Selector
from repro.latency.model import LatencyModel, SplitWorkload
from repro.models.resnet import ResNet, ResNetConfig
from repro.serving import (
    Arrival,
    DeadlineScheduler,
    FaultInjector,
    FaultPlan,
    InferenceService,
    ReplicaFault,
    RetryPolicy,
    TickCost,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    simulate,
)
from repro.serving.faults import REPLICA_SLOW
from repro.utils.rng import new_rng

rng = np.random.default_rng(23)

FEATURES = rng.random((1, 8, 8, 8)).astype(np.float32)


def tiny_bodies(num_nets=2):
    config = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
    bodies = [ResNet(config, rng=new_rng(i)).body for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def make_service(scheduler, num_sessions=4, max_batch=4, max_queue=64):
    service = InferenceService(Server(tiny_bodies()), max_batch=max_batch,
                               max_queue=max_queue, scheduler=scheduler)
    sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                for _ in range(num_sessions)]
    return service, sessions


class TestTraces:
    def test_bursty_trace_shape(self):
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=8,
                             burst_gap_s=0.05, deadline_s=0.1)
        assert len(trace) == 24
        assert {a.time for a in trace} == {0.0, 0.05, 0.1}
        assert {a.session_index for a in trace} == {0, 1, 2, 3}
        assert all(a.deadline_s == 0.1 for a in trace)

    def test_poisson_trace_monotone(self):
        trace = poisson_trace(num_sessions=3, num_requests=20, rate_hz=100.0,
                              rng=np.random.default_rng(5))
        times = [a.time for a in trace]
        assert times == sorted(times)
        assert len(trace) == 20


class TestTickCost:
    def test_pass_seconds(self):
        cost = TickCost(pass_overhead_s=0.01, per_sample_s=0.001)
        assert cost.pass_seconds(5) == pytest.approx(0.015)

    def test_from_latency_model_fp16_cheaper_downlink(self):
        model = LatencyModel()
        workload = SplitWorkload(batch_size=4, client_head_flops=1e6,
                                 client_tail_flops=1e6, server_body_flops=4e8,
                                 upload_bytes=4 * 8192 * 4 + 64,
                                 download_bytes_per_net=4 * 256 * 4 + 64)
        fp32 = TickCost.from_latency_model(model, workload, num_nets=8)
        fp16 = TickCost.from_latency_model(model, workload, num_nets=8,
                                           codec="fp16")
        assert fp32.per_sample_s > 0
        assert fp32.pass_overhead_s > 0
        assert fp16.per_request_downlink_s < fp32.per_request_downlink_s
        assert fp16.per_sample_s == fp32.per_sample_s


class TestSimulate:
    def test_empty_trace(self):
        service, sessions = make_service("fifo")
        report = simulate(service, sessions, [], TickCost(),
                          default_features=FEATURES)
        assert report.served == 0 and report.ticks == 0
        assert report.p95_s == 0.0

    def test_fifo_serves_whole_trace(self):
        service, sessions = make_service("fifo")
        trace = bursty_trace(num_sessions=4, bursts=2, burst_size=8,
                             burst_gap_s=0.1)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert report.served == 16
        assert report.rejected == 0
        assert report.ticks == 4  # 8-request bursts in max_batch=4 groups
        assert service.stats.served_requests == 16
        assert 0 < report.p50_s <= report.p95_s <= report.p99_s
        assert report.makespan_s > 0

    def test_deadline_violations_counted(self):
        service, sessions = make_service("fifo", max_batch=1)
        trace = [Arrival(time=0.0, session_index=i, deadline_s=0.015)
                 for i in range(4)]
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        report = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        # serial 11ms passes: completions 11/22/33/44ms against a 15ms SLO
        assert report.violations == 3
        assert report.violation_rate == pytest.approx(3 / 4)

    def test_backpressure_counts_rejections(self):
        service, sessions = make_service("fifo", max_queue=4)
        trace = [Arrival(time=0.0, session_index=i % 4) for i in range(10)]
        report = simulate(service, sessions, trace, cost=TickCost(),
                          default_features=FEATURES)
        assert report.rejected == 6  # queue of 4 absorbed the rest
        assert report.served == 4

    def test_per_arrival_features_override_default(self):
        service, sessions = make_service("fifo", num_sessions=1)
        wide = rng.random((3, 8, 8, 8)).astype(np.float32)
        report = simulate(service, sessions,
                          [Arrival(time=0.0, session_index=0, features=wide)],
                          TickCost(), default_features=None)
        assert report.served == 1
        assert service.stats.served_samples == 3

    def test_missing_features_raise(self):
        service, sessions = make_service("fifo", num_sessions=1)
        with pytest.raises(ValueError, match="default_features"):
            simulate(service, sessions, [Arrival(time=0.0, session_index=0)],
                     TickCost())

    @pytest.mark.parametrize("injector_on", ["service", "argument"])
    def test_replica_faults_raise_before_any_submit(self, injector_on):
        """A single service has no replica to slow down: the replay must
        refuse a replica schedule instead of silently ignoring it."""
        faults = FaultInjector(FaultPlan(replica_faults=(
            ReplicaFault(replica=0, at_s=0.0, kind=REPLICA_SLOW,
                         duration_s=1.0, factor=100.0),)))
        service = InferenceService(
            Server(tiny_bodies()),
            faults=faults if injector_on == "service" else None)
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        with pytest.raises(ValueError, match="simulate_fleet"):
            simulate(service, [session], [Arrival(time=0.0, session_index=0)],
                     TickCost(pass_overhead_s=0.015),
                     default_features=FEATURES,
                     faults=faults if injector_on == "argument" else None)
        assert session.request_states() == {}

    def test_repeated_simulate_on_one_service_is_stable(self):
        """Trace times rebase onto the service's monotonic clock, so a
        second replay must report the same latencies — not collapse
        deadline slack against a stale 'now'."""
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.001,
                                      max_group_samples=16)
        service, sessions = make_service(scheduler)
        trace = bursty_trace(num_sessions=4, bursts=2, burst_size=16,
                             burst_gap_s=0.08, deadline_s=0.04)
        cost = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)
        first = simulate(service, sessions, trace, cost,
                         default_features=FEATURES)
        second = simulate(service, sessions, trace, cost,
                          default_features=FEATURES)
        assert second.p95_s == pytest.approx(first.p95_s)
        assert second.violations == first.violations
        assert second.ticks == first.ticks
        assert second.makespan_s == pytest.approx(first.makespan_s)


class TestDeadlineBeatsFifoOnBursts:
    """Acceptance: deadline-aware adaptive batching shows lower p95 than
    drain-the-queue FIFO on a bursty arrival trace."""

    COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.001)

    def run(self, scheduler, deadline_s=0.04):
        service, sessions = make_service(scheduler, num_sessions=4,
                                         max_batch=4)
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=16,
                             burst_gap_s=0.08, deadline_s=deadline_s)
        return simulate(service, sessions, trace, self.COST,
                        default_features=FEATURES)

    def test_deadline_p95_lower_and_fewer_violations(self):
        fifo = self.run("fifo")
        deadline = self.run(DeadlineScheduler(
            pass_overhead_s=self.COST.pass_overhead_s,
            sample_cost_s=self.COST.per_sample_s,
            max_group_samples=16))
        assert fifo.served == deadline.served == 48
        # FIFO's fixed max_batch=4 groups serialise each 16-request burst
        # into 4 passes; the deadline scheduler collapses it into one wide
        # pass, so the burst tail stops queueing behind earlier passes.
        assert deadline.p95_s < fifo.p95_s
        assert deadline.ticks < fifo.ticks
        assert deadline.violations < fifo.violations
        assert deadline.violations == 0

    def test_summary_mentions_scheduler(self):
        report = self.run("fifo")
        assert "fifo" in report.summary()
        assert "p95" in report.summary()


class TestStreamingReports:
    """Sketch-backed reports and lazy trace consumption (PR 9)."""

    def run(self, trace, **kwargs):
        service, sessions = make_service("fifo", num_sessions=4)
        cost = TickCost(0.001, 0.0005, 0.0001)
        return simulate(service, sessions, trace, cost,
                        default_features=FEATURES, **kwargs)

    def stream(self, num_requests=200):
        return iter(poisson_trace(num_sessions=4, num_requests=num_requests,
                                  rate_hz=500.0,
                                  rng=np.random.default_rng(7)))

    def test_generator_trace_defaults_to_sketch_only(self):
        report = self.run(self.stream())
        assert report.served == report.served_total == 200
        assert report.latencies_s == []          # exact lists not retained
        assert report.latencies_by_session == {}
        assert len(report.latency_sketch) == 200
        # Percentiles still answer, from the sketch.
        assert report.p99_s >= report.p50_s > 0.0
        assert report.mean_latency_s > 0.0

    def test_list_trace_defaults_to_exact_lists(self):
        trace = poisson_trace(num_sessions=4, num_requests=100, rate_hz=500.0,
                              rng=np.random.default_rng(7))
        report = self.run(trace)
        assert len(report.latencies_s) == 100
        assert report.served == 100

    def test_retain_override_on_generator(self):
        report = self.run(self.stream(100), retain_latencies=True)
        assert len(report.latencies_s) == 100

    def test_sketch_tracks_exact_percentiles(self):
        trace = poisson_trace(num_sessions=4, num_requests=400, rate_hz=500.0,
                              rng=np.random.default_rng(7))
        exact = self.run(list(trace))
        sketched = self.run(iter(trace))  # same trace, streamed
        for q in (50, 90, 99):
            assert sketched.percentile(q) == pytest.approx(
                exact.percentile(q), rel=0.05, abs=1e-4)

    def test_session_percentile_falls_back_to_sketch(self):
        report = self.run(self.stream())
        sid = next(iter(report.sketch_by_session))
        assert report.session_percentile(sid, 95) > 0.0
        assert report.session_percentile(999_999, 95) == 0.0

    def test_out_of_order_stream_raises(self):
        def bad():
            yield Arrival(0.5, 0)
            yield Arrival(0.1, 1)  # time went backwards mid-stream
        with pytest.raises(ValueError, match="non-decreasing"):
            self.run(bad())

    def test_out_of_order_list_still_sorted(self):
        trace = [Arrival(0.5, 0), Arrival(0.1, 1)]  # historical contract
        report = self.run(trace)
        assert report.served == 2

    def test_metrics_registry_receives_aggregates(self):
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        report = self.run(self.stream(), metrics=registry)
        assert registry.counter("sim.served").value == 200
        histogram = registry.histogram("sim.latency_s")
        assert histogram.count == 200
        assert histogram.percentile(50) == pytest.approx(report.p50_s)
        # The service's stat fields arrive as gauges.
        assert registry.gauge("service.served_requests").value == 200


class TestReplayGolden:
    """Exact replay outcomes, pinned.

    The tests above assert approximately or relationally; these pin
    every count, the exact p50/p99 and a digest of the per-request
    latency list of a few fixed replays, so any rewrite of the event
    loop must reproduce each replay bit for bit.
    """

    COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.001,
                    per_request_downlink_s=0.0005)

    @staticmethod
    def observe(report):
        latencies = np.asarray(report.latencies_s, dtype=np.float64)
        return {
            "ticks": report.ticks,
            "makespan_s": report.makespan_s,
            "submitted": report.submitted,
            "served": report.served,
            "terminal_counts": report.terminal_counts,
            "violations": report.violations,
            "retries": report.retries,
            "tick_failures": report.tick_failures,
            "degraded": report.degraded,
            "privacy_refusals": report.privacy_refusals,
            "rotations": report.rotations,
            "p50_s": report.p50_s,
            "p99_s": report.p99_s,
            "latencies": hashlib.sha256(latencies.tobytes()).hexdigest()[:16],
        }

    def replay(self, service, sessions, trace, **kwargs):
        return self.observe(simulate(service, sessions, trace, self.COST,
                                     default_features=FEATURES, **kwargs))

    def test_drop_and_corrupt_faults_with_retry_timeout(self):
        faults = FaultInjector(FaultPlan(corrupt_rate=0.1, drop_rate=0.1),
                               seed=4)
        service = InferenceService(Server(tiny_bodies()), max_batch=4,
                                   max_queue=64, faults=faults)
        sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                    for _ in range(4)]
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=8,
                             burst_gap_s=0.05)
        retry = RetryPolicy(max_attempts=4, base_delay_s=0.002,
                            timeout_s=0.03)
        assert self.replay(service, sessions, trace, retry=retry) == {
            "ticks": 9, "makespan_s": 0.14150000000000001, "submitted": 24,
            "served": 24,
            "terminal_counts": {"completed": 24, "expired": 0, "cancelled": 0,
                                "rejected": 0, "throttled": 0, "failed": 0},
            "violations": 0, "retries": 4, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0,
            "p50_s": 0.020999999999999998, "p99_s": 0.04150000000000001,
            "latencies": "310669388a2927f5",
        }

    def test_injected_tick_crash(self):
        faults = FaultInjector(FaultPlan(tick_failures_at=(1, 2)))
        service = InferenceService(Server(tiny_bodies()), max_batch=4,
                                   max_queue=64, faults=faults,
                                   tick_retries=1)
        sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                    for _ in range(4)]
        trace = bursty_trace(num_sessions=4, bursts=2, burst_size=8,
                             burst_gap_s=0.1)
        assert self.replay(service, sessions, trace) == {
            "ticks": 3, "makespan_s": 0.1285, "submitted": 16, "served": 12,
            "terminal_counts": {"completed": 12, "expired": 0, "cancelled": 0,
                                "rejected": 0, "throttled": 0, "failed": 4},
            "violations": 0, "retries": 0, "tick_failures": 2, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0, "p50_s": 0.0145,
            "p99_s": 0.028499999999999998, "latencies": "9f653202fc9164b3",
        }

    def test_mid_burst_close_session(self):
        service, sessions = make_service("fifo", num_sessions=3)
        trace = bursty_trace(num_sessions=3, bursts=2, burst_size=6,
                             burst_gap_s=0.1)
        trace.append(Arrival(time=0.0, session_index=0, close_session=True))
        assert self.replay(service, sessions, trace) == {
            "ticks": 2, "makespan_s": 0.1145, "submitted": 12, "served": 8,
            "terminal_counts": {"completed": 8, "expired": 0, "cancelled": 2,
                                "rejected": 0, "throttled": 0, "failed": 2},
            "violations": 0, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0,
            "p50_s": 0.014499999999999999, "p99_s": 0.0145,
            "latencies": "5c1fbcb2dea5c1ea",
        }

    def test_deadline_scheduler_with_deadlines(self):
        scheduler = DeadlineScheduler(pass_overhead_s=0.010,
                                      sample_cost_s=0.001,
                                      max_group_samples=16)
        service, sessions = make_service(scheduler)
        trace = bursty_trace(num_sessions=4, bursts=3, burst_size=16,
                             burst_gap_s=0.08, deadline_s=0.03,
                             jitter_s=0.01, rng=np.random.default_rng(5))
        assert self.replay(service, sessions, trace) == {
            "ticks": 15, "makespan_s": 0.22448939490963135, "submitted": 48,
            "served": 48,
            "terminal_counts": {"completed": 48, "expired": 0, "cancelled": 0,
                                "rejected": 0, "throttled": 0, "failed": 0},
            "violations": 15, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0,
            "p50_s": 0.028461041197487796, "p99_s": 0.07057224079007059,
            "latencies": "87b065d2e6f96d57",
        }

    def test_privacy_metered_rotating_sessions(self):
        service = InferenceService(Server(tiny_bodies()), max_batch=2,
                                   max_queue=64)
        sessions = [
            service.adopt_session(
                Client(nn.Identity(), nn.Identity(),
                       selector=Selector.random(2, 1, rng=new_rng(seed))),
                privacy=(2.0, 1000.0, 3), rotation="per_query")
            for seed in range(2)]
        trace = [Arrival(time=0.002 * i, session_index=i % 2, deadline_s=1.0)
                 for i in range(12)]
        assert self.replay(service, sessions, trace) == {
            "ticks": 4, "makespan_s": 0.0465, "submitted": 12, "served": 6,
            "terminal_counts": {"completed": 6, "expired": 0, "cancelled": 5,
                                "rejected": 1, "throttled": 0, "failed": 0},
            "violations": 0, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 1, "rotations": 4, "p50_s": 0.0245,
            "p99_s": 0.03615, "latencies": "a3cac5bfe3e7597d",
        }

    def test_streamed_generator_trace(self):
        service, sessions = make_service("fifo")
        trace = diurnal_trace(num_sessions=4, num_requests=300,
                              base_rate_hz=200.0, period_s=0.5, seed=3,
                              deadline_s=0.05)
        assert self.replay(service, sessions, trace) == {
            "ticks": 66, "makespan_s": 0.9162013702974422, "submitted": 300,
            "served": 252,
            "terminal_counts": {"completed": 252, "expired": 0, "cancelled": 0,
                                "rejected": 48, "throttled": 0, "failed": 0},
            "violations": 211, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0,
            "p50_s": 0.20136243414396215, "p99_s": 0.2380130536110564,
            "latencies": "e3b0c44298fc1c14",
        }

    def test_two_replays_on_one_service(self):
        service, sessions = make_service("fifo", max_batch=2)
        trace = poisson_trace(num_sessions=4, num_requests=40, rate_hz=300.0,
                              deadline_s=0.02, rng=np.random.default_rng(9))
        first = self.replay(service, sessions, trace)
        second = self.replay(service, sessions, trace)
        assert first == {
            "ticks": 21, "makespan_s": 0.261463025242445, "submitted": 40,
            "served": 40,
            "terminal_counts": {"completed": 40, "expired": 0, "cancelled": 0,
                                "rejected": 0, "throttled": 0, "failed": 0},
            "violations": 38, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0, "p50_s": 0.0563771965821665,
            "p99_s": 0.12070929069251121, "latencies": "6b50b89239091c06",
        }
        assert second == {
            "ticks": 21, "makespan_s": 0.261463025242445, "submitted": 40,
            "served": 40,
            "terminal_counts": {"completed": 40, "expired": 0, "cancelled": 0,
                                "rejected": 0, "throttled": 0, "failed": 0},
            "violations": 38, "retries": 0, "tick_failures": 0, "degraded": 0,
            "privacy_refusals": 0, "rotations": 0,
            "p50_s": 0.05637719658216661, "p99_s": 0.12070929069251127,
            "latencies": "8af0f479a419dcbb",
        }
