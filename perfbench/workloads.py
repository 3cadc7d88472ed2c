"""The four workloads: interactive, open_loop, bulk and fleet_replay.

Each workload has a ``setup`` (timed, repeated, median reported as
``setup_s``) and a ``phase`` that drives the program for a fixed number of
wall seconds and returns a :class:`Phase` — raw samples, the request
ledger and the served requests the output check compares.  Metric
definitions live in :mod:`metrics`.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import common  # noqa: F401  (puts the repository's src/ on sys.path)
from repro import nn
from repro.ci.channel import TransferStats
from repro.ci.pipeline import Client, Server
from repro.core.selector import Selector
from repro.privacy.rotation import STREAM_ROTATION, derive_rng
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    Autoscaler,
    AutoscalePolicy,
    FeatureResponse,
    FleetPolicy,
    InferenceService,
    ServiceFleet,
    ServingError,
    TickCost,
    UploadRequest,
    diurnal_trace,
    simulate_fleet,
)

from checks import Ledger, Served, codec_name

SETUP_REPEATS = 5


@dataclasses.dataclass
class Phase:
    """What one measured phase produced."""

    wall_s: float = 0.0
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    images: int = 0
    ledger: Ledger = dataclasses.field(default_factory=Ledger)
    served: list[Served] = dataclasses.field(default_factory=list)
    uplink_bytes: int = 0    # framed bytes of completed requests
    downlink_bytes: int = 0
    queue_waits_ms: list[float] = dataclasses.field(default_factory=list)
    lags_ms: list[float] = dataclasses.field(default_factory=list)
    pending_max: int = 0
    extra: dict = dataclasses.field(default_factory=dict)


def pool(phases):
    """One open-loop phase from several runs of the ladder: samples are
    pooled per rate, rung times summed and each rate's backlog is the
    median over the runs."""
    extras = [p.extra for p in phases]
    ledger = Ledger(**{f: sum(getattr(p.ledger, f) for p in phases)
                       for f in ("attempted", "completed", "refused",
                                 "failed", "duplicates")})
    return Phase(
        wall_s=sum(p.wall_s for p in phases),
        latencies_ms=[v for p in phases for v in p.latencies_ms],
        images=sum(p.images for p in phases),
        ledger=ledger,
        uplink_bytes=sum(p.uplink_bytes for p in phases),
        downlink_bytes=sum(p.downlink_bytes for p in phases),
        queue_waits_ms=[v for p in phases for v in p.queue_waits_ms],
        lags_ms=[v for p in phases for v in p.lags_ms],
        pending_max=max(p.pending_max for p in phases),
        extra={
            "rungs": np.concatenate([e["rungs"] for e in extras]),
            "latency_ms": np.concatenate([e["latency_ms"] for e in extras]),
            "refused": np.concatenate([e["refused"] for e in extras]),
            "rung_s": np.sum([e["rung_s"] for e in extras], axis=0),
            "backlog": np.median([e["backlog"] for e in extras], axis=0),
        })


# -- serving workloads --------------------------------------------------


class _Serving:
    """A service over N stacked bodies plus its client sessions."""

    max_batch = 8
    max_queue = 64
    codecs: tuple[str, ...] = ("fp32",)
    metered = 0           # the first ``metered`` sessions carry a budget
    warmup_requests = 4
    images_per_request = 1
    #: a run measures this many back-to-back windows and reports the
    #: median of each end-to-end metric across them, so a disturbed
    #: window on a shared host does not move the result.
    windows = 10
    #: set by a traced run; spans then carry the request being worked on.
    tracer = None

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.images = common.make_images(seed)

    def setup(self) -> None:
        bodies = common.build_bodies()
        self.service = InferenceService(Server(bodies), max_batch=self.max_batch,
                                        max_queue=self.max_queue,
                                        scheduler="fifo")
        self.looped = Server(bodies, backend="looped")
        self.sessions = []
        self.initial_selectors = {}
        for index, codec in enumerate(self.codecs):
            head, tail, selector = common.build_client_parts(index)
            metered = index < self.metered
            session = self.service.open_session(
                head, tail, selector=selector, noise_seed=500 + index,
                noise_shape=common.SPLIT_SHAPE, noise_sigma=common.NOISE_SIGMA,
                codec=codec, rate_limit=None,
                privacy=(2.0, 1e6, 10**6) if metered else None,
                rotation="per_query" if metered else None)
            self.sessions.append(session)
            self.initial_selectors[session.session_id] = selector
        self.serves = {s.session_id: 0 for s in self.sessions}
        for i in range(self.warmup_requests):
            self.request(self.sessions[i % len(self.sessions)],
                         self.pick_images(), Phase())

    def pick_images(self) -> np.ndarray:
        index = self.rng.choice(len(self.images), self.images_per_request,
                                replace=False)
        return self.images[np.sort(index)]

    def selector_at(self, session, serve: int) -> Selector:
        """The selector the session's ``serve``-th response is decoded under.

        A ``per_query`` rotating session serves its k-th response under
        rotation index k (the first under its open-time subset), drawn
        from the session's derived rotation stream.
        """
        if session.rotation is None or serve == 0:
            return self.initial_selectors[session.session_id]
        return Selector.random(common.NUM_NETS, common.NUM_ACTIVE,
                               rng=derive_rng(session.session_id, session.epoch,
                                              serve, STREAM_ROTATION))

    def served_selector(self, session) -> Selector:
        """The selector of the session's next response, counting it served."""
        serve = self.serves[session.session_id]
        self.serves[session.session_id] = serve + 1
        return self.selector_at(session, serve)

    def mark(self, request_id: int) -> None:
        """Tag the spans that follow with ``request_id`` (-1: many)."""
        if self.tracer is not None:
            self.tracer.request_id = request_id

    def request(self, session, images: np.ndarray, phase: Phase) -> None:
        """One closed-loop request over the full client path."""
        phase.ledger.attempted += 1
        request_id = session.reserve_request_id()
        self.mark(request_id)
        features = session.encode(images)
        frame = UploadRequest(session.session_id, request_id, features).to_bytes()
        try:
            self.service.submit_bytes(frame)
        except ServingError:
            phase.ledger.refused += 1
            return
        submitted = time.perf_counter()
        phase.pending_max = max(phase.pending_max, self.service.pending)
        tick_start = time.perf_counter()
        responses = self.service.tick()
        phase.queue_waits_ms.append((tick_start - submitted) * 1e3)
        answered = False
        for response in responses:
            session.take_response(response.request_id)
            down = response.to_bytes()
            parsed = FeatureResponse.from_bytes(down)
            logits = session.client.decide(parsed.decoded())
            if response.request_id != request_id or answered:
                phase.ledger.duplicates += 1
                continue
            answered = True
            phase.ledger.completed += 1
            phase.images += images.shape[0]
            phase.uplink_bytes += len(frame)
            phase.downlink_bytes += len(down)
            phase.served.append(Served(features, codec_name(session.codec),
                                       self.served_selector(session),
                                       session.client.tail, logits))
        if not answered:
            phase.ledger.failed += 1


class ClosedLoop(_Serving):
    """One client, one request in flight, latency over the full path."""

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        session = self.sessions[0]
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            images = self.pick_images()
            sent = time.perf_counter()
            if sent >= deadline:
                break
            self.request(session, images, phase)
            phase.latencies_ms.append((time.perf_counter() - sent) * 1e3)
        phase.wall_s = time.perf_counter() - start
        return phase


class Interactive(ClosedLoop):
    name = "interactive"
    latency_limit_ms = 50.0
    # ~300 requests per one-second window: each window's tail is its p97,
    # clear of the 0.5-1.5% of requests a shared host delays by a
    # scheduler tick, which made a p99 jump between runs.
    windows = 20


class Bulk(ClosedLoop):
    name = "bulk"
    latency_limit_ms = 1000.0
    images_per_request = 64
    warmup_requests = 2
    windows = 3


class OpenLoop(_Serving):
    """16 sessions, seeded Poisson arrivals on a ladder of offered rates."""

    name = "open_loop"
    codecs = ("fp32",) * 8 + ("fp16",) * 4 + ("int8",) * 4
    metered = 4
    windows = 5
    max_queue = 32
    warmup_requests = 16
    latency_limit_ms = 100.0
    ladder_rps = (150.0, 400.0, 700.0, 1000.0)
    nominal_rps = 150.0  # latency metrics pool the rungs at or below this
    light_share = 0.55   # share of each ladder run spent at the lightest rate

    def schedule(self, seconds: float):
        """Arrival times, rung and session of every request, from the seed.

        The lightest rate, whose latency the metrics report, runs for
        ``light_share`` of the time; the other rates split the rest.
        Returns the arrays plus each rung's end time.
        """
        others = len(self.ladder_rps) - 1
        shares = np.asarray([self.light_share]
                            + [(1.0 - self.light_share) / max(1, others)] * others)
        ends = np.cumsum(seconds * shares / shares.sum())
        times, rungs, who = [], [], []
        start = 0.0
        for rung, (rate, end) in enumerate(zip(self.ladder_rps, ends)):
            span = end - start
            gaps = self.rng.exponential(1.0 / rate, int(rate * span * 2) + 16)
            due = np.cumsum(gaps)
            due = due[due < span] + start
            times.extend(due.tolist())
            rungs.extend([rung] * len(due))
            who.extend(self.rng.integers(0, len(self.codecs), len(due)).tolist())
            start = end
        return np.asarray(times), np.asarray(rungs), np.asarray(who), ends

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        due, rungs, who, ends = self.schedule(seconds)
        # Tenants' devices encode before the clock starts.
        frames, keys, features = [], [], []
        for session_index in who:
            session = self.sessions[session_index]
            request_id = session.reserve_request_id()
            self.mark(request_id)
            feats = session.encode(self.pick_images())
            frames.append(UploadRequest(session.session_id, request_id,
                                        feats).to_bytes())
            keys.append((session.session_id, request_id))
            features.append(feats)
        index_of = {key: i for i, key in enumerate(keys)}
        by_id = {s.session_id: s for s in self.sessions}
        done_s = np.full(len(due), np.nan)
        submitted_s = np.full(len(due), np.nan)
        responses: list[tuple[int, bytes]] = []
        backlog = [0] * len(self.ladder_rps)
        refused = np.zeros(len(due), dtype=bool)
        service = self.service
        self.mark(-1)  # a tick serves many requests
        n = len(due)
        sent = 0
        rung_seen = 0
        start = time.perf_counter()
        while True:
            now = time.perf_counter() - start
            while rung_seen < len(ends) and now >= ends[rung_seen]:
                backlog[rung_seen] = service.pending
                rung_seen += 1
            while sent < n and due[sent] <= now:
                phase.ledger.attempted += 1
                try:
                    service.submit_bytes(frames[sent])
                except ServingError:
                    phase.ledger.refused += 1
                    refused[sent] = True
                submitted_s[sent] = time.perf_counter() - start
                sent += 1
            if service.pending:
                phase.pending_max = max(phase.pending_max, service.pending)
                tick_start = time.perf_counter() - start
                served = service.tick()
                for response in served:
                    down = response.to_bytes()
                    finished = time.perf_counter() - start
                    key = (response.session_id, response.request_id)
                    i = index_of[key]
                    if not np.isnan(done_s[i]):
                        phase.ledger.duplicates += 1
                        continue
                    done_s[i] = finished
                    phase.queue_waits_ms.append((tick_start - submitted_s[i]) * 1e3)
                    responses.append((i, down))
                    by_id[key[0]].take_response(key[1])
            elif sent < n:
                # Busy-wait: a sleeping generator would add its own wake-up
                # delay to the next request's latency.
                while time.perf_counter() - start < due[sent]:
                    pass
            else:
                break
        phase.wall_s = time.perf_counter() - start
        while rung_seen < len(self.ladder_rps):
            backlog[rung_seen] = 0
            rung_seen += 1
        # Tenants' devices decode after the clock stops, in serve order.
        for i, down in responses:
            session = by_id[keys[i][0]]
            self.mark(keys[i][1])
            parsed = FeatureResponse.from_bytes(down)
            selector = self.served_selector(session)
            logits = Client(nn.Identity(), session.client.tail,
                            selector=selector).decide(parsed.decoded())
            phase.served.append(Served(features[i], codec_name(session.codec),
                                       selector, session.client.tail, logits))
            phase.uplink_bytes += len(frames[i])
            phase.downlink_bytes += len(down)
            phase.images += features[i].shape[0]
        # The reconstructed rotation must agree with each session's own
        # final subset, or the reference check would be moot.
        phase.extra["rotation_ok"] = all(
            session.selector.indices == self.selector_at(
                session, self.serves[session.session_id] - 1).indices
            for session in self.sessions
            if session.rotation is not None and self.serves[session.session_id])
        phase.ledger.completed = int(np.sum(~np.isnan(done_s)))
        phase.ledger.failed = (phase.ledger.attempted - phase.ledger.completed
                               - phase.ledger.refused)
        latency_ms = (done_s - due) * 1e3
        phase.latencies_ms = latency_ms[~np.isnan(latency_ms)].tolist()
        phase.lags_ms = ((submitted_s[:sent] - due[:sent]) * 1e3).tolist()
        phase.extra.update({"due": due, "rungs": rungs, "latency_ms": latency_ms,
                       "refused": refused, "backlog": backlog,
                       "rung_s": np.diff(ends, prepend=0.0)})
        return phase


# -- fleet replay -------------------------------------------------------


FLEET_SESSIONS = 10_000
FLEET_REQUESTS = 15_000
FLEET_PRIVACY_SESSIONS = 200
FLEET_COST = TickCost(pass_overhead_s=0.010, per_sample_s=0.008,
                      per_request_downlink_s=0.0005)
FLEET_POLICY = FleetPolicy(heartbeat_interval_s=0.5, suspect_after_s=2.0,
                           down_after_s=4.0, checkpoint_interval_s=30.0)
FLEET_AUTOSCALE = AutoscalePolicy(
    min_replicas=2, max_replicas=6, scale_up_pressure=0.5,
    scale_down_pressure=0.1, smoothing=0.4, patience=2, cooldown_s=2.0,
    check_interval_s=0.25)
FLEET_ADMISSION = AdmissionPolicy(downgrade_pressure=0.7, reject_pressure=0.95)


def _fleet_replica() -> InferenceService:
    return InferenceService(Server([nn.Identity(), nn.Identity()]),
                            max_batch=8, max_queue=96, scheduler="fifo")


class FleetReplay:
    """``simulate_fleet`` over a lazy diurnal trace: the control plane only."""

    name = "fleet_replay"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.features = rng.random((1, 8, 4, 4), dtype=np.float32)
        self.replays = 0

    def replica(self) -> InferenceService:
        """A fresh replica, remembered so the traced run can read its
        stats after a drain removes it from the fleet."""
        service = _fleet_replica()
        self.services.append(service)
        return service

    def setup(self) -> None:
        self.services: list[InferenceService] = []
        self.fleet = ServiceFleet([self.replica(), self.replica()],
                                  policy=FLEET_POLICY)
        self.sessions = [
            self.fleet.adopt_session(
                Client(nn.Identity(), nn.Identity()), rate_limit=None,
                privacy=((2.0, 1e6, 10**6)
                         if i < FLEET_PRIVACY_SESSIONS else None))
            for i in range(FLEET_SESSIONS)]
        self.autoscaler = Autoscaler(self.fleet, FLEET_AUTOSCALE,
                                     replica_factory=self.replica)
        self.admission = AdmissionController(FLEET_ADMISSION)

    def replay(self):
        """One replay over a trace seeded by (seed, replay number)."""
        trace = diurnal_trace(FLEET_SESSIONS, FLEET_REQUESTS, 30.0,
                              period_s=40.0, peak_factor=8.0,
                              seed=self.seed * 1000 + self.replays)
        self.replays += 1
        start = time.perf_counter()
        report = simulate_fleet(self.fleet, self.sessions, trace, FLEET_COST,
                                default_features=self.features,
                                autoscaler=self.autoscaler,
                                admission=self.admission)
        wall_s = time.perf_counter() - start
        terminal = report.terminal_counts
        completed = terminal.get("completed", 0)
        refused = (report.arrivals_rejected + terminal.get("rejected", 0)
                   + terminal.get("throttled", 0))
        attempted = report.submitted + report.arrivals_rejected
        # Sessions keep their channel across migrations, so their own
        # counters hold each frame exactly once.
        wire = sum((s.stats for s in self.sessions), TransferStats())
        migrations = len(report.migration_epsilon_log)
        ledger = Ledger(attempted=attempted, completed=completed,
                        refused=refused,
                        failed=attempted - completed - refused,
                        duplicates=report.duplicate_serves)
        return {
            "wall_s": wall_s,
            "ledger": ledger,
            "ok": (report.conservation_ok and report.duplicate_serves == 0
                   and report.epsilon_ratchet_ok),
            "p50_ms": report.p50_s * 1e3,
            "p99_ms": report.p99_s * 1e3,
            "goodput_rps": report.goodput_rps,
            "served_per_s": completed / wall_s,
            "arrivals_per_s": attempted / wall_s,
            "completed_frac": completed / max(1, attempted),
            "wire_kb_per_req": wire.total_bytes / max(1, completed) / 1024.0,
            "migrations": migrations,
            "spawns": report.spawns,
            "drains": report.drains_scaled,
            "migrations_per_scale_event": (
                migrations / max(1, report.spawns + report.drains_scaled)),
            "admission_rejected": report.admission_rejected,
            "conservation_ok": report.conservation_ok,
            "duplicate_serves": report.duplicate_serves,
            "epsilon_ratchet_ok": report.epsilon_ratchet_ok,
        }
