"""In-memory span tracer and the wrappers that put spans around each layer.

A span records its name, start, end, parent span and request id.  Spans
stay in memory while the benchmark runs and are written out when it ends
(:meth:`Tracer.dump`).  A span's self time is its duration minus the time
its direct children cover; the process is single-threaded, so children
nest strictly inside their parent.

:func:`instrument` wraps the public entry points of every layer — client,
protocol, service, server, the stacked ``nn`` modules, privacy and fleet —
from the benchmark's side, so nothing under ``src/`` changes.  The wrappers
exist only between :func:`instrument` and the undo function it returns;
untraced runs execute the program's own functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import common  # noqa: F401  (puts the repository's src/ on sys.path)
from repro.ci.pipeline import Client, Server
from repro.models.resnet import StackedBasicBlock
from repro.nn import batched, profiling
from repro.serving.fleet import ServiceFleet
from repro.serving.protocol import FeatureResponse, UploadRequest
from repro.serving.service import InferenceService
from repro.serving.session import Session

_FLOAT_BYTES = 4


class Tracer:
    """Collects spans and per-layer counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.request_ids: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request_id = -1  # the request the loop is working on, -1 if many

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.request_ids.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``ms`` and total ``self_ms``."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = out[name]
            row["calls"] += 1
            row["ms"] += duration * 1e3
            row["self_ms"] += (duration - child_time[index]) * 1e3
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, request_id]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[n, round(s, 7), round(e, 7), p, r] for n, s, e, p, r in zip(
            self.names, self.starts, self.ends, self.parents,
            self.request_ids)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "request_id"],
                       "spans": rows, "counters": dict(self.counters)}, fh)


def conv_bytes_moved(x_shape, weight_shape, stride: int, padding: int) -> int:
    """Bytes a stacked conv touches, computed from shapes (not measured).

    Input, zero-padded canvas, im2col columns, weights and output, all
    float32, following :func:`repro.nn.batched.batched_conv2d`: a shared
    4-D input is lowered once for all E members, a 5-D input per member.
    """
    e, out_c, in_c, kh, kw = weight_shape
    if len(x_shape) == 4:
        lowered, (n, c, h, w) = 1, x_shape
    else:
        lowered, (_, n, c, h, w) = e, x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    elements = (lowered * n * c * h * w
                + (lowered * n * c * hp * wp if padding else 0)
                + lowered * n * in_c * kh * kw * out_h * out_w
                + e * out_c * in_c * kh * kw
                + e * n * out_c * out_h * out_w)
    return elements * _FLOAT_BYTES


def _spanned(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)
    return wrapper


def instrument(tracer: Tracer):
    """Wrap every layer's entry points with spans; returns the undo function."""
    patches = []

    def patch(owner, attr, make):
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def plain(owner, attr, name):
        patch(owner, attr, lambda f: _spanned(tracer, name, f))

    plain(Session, "encode", "client.encode")
    plain(Client, "decide", "client.decide")
    plain(UploadRequest, "to_bytes", "protocol.upload_frame")
    plain(FeatureResponse, "to_bytes", "protocol.response_frame")
    plain(FeatureResponse, "from_bytes", "protocol.response_parse")
    plain(FeatureResponse, "decoded", "protocol.response_decode")
    plain(InferenceService, "submit_bytes", "service.submit")
    plain(InferenceService, "tick", "service.tick")
    plain(Session, "charge_privacy", "privacy.charge")
    plain(ServiceFleet, "submit", "fleet.submit")
    plain(ServiceFleet, "spawn_replica", "fleet.spawn")
    plain(ServiceFleet, "drain", "fleet.drain")
    plain(batched.StackedReLU, "forward", "nn.relu")
    plain(batched.StackedGlobalAvgPool2d, "forward", "nn.gap")
    plain(batched.StackedLinear, "forward", "nn.linear")
    plain(StackedBasicBlock, "forward", "nn.block")

    def compute(func):
        @functools.wraps(func)
        def wrapper(self, features, *args, **kwargs):
            tracer.count("server.samples", features.shape[0])
            with tracer.span("server.compute"):
                try:
                    counter = profiling.FlopCounter().__enter__()
                except RuntimeError:  # a caller already counts FLOPs
                    counter = None
                try:
                    return func(self, features, *args, **kwargs)
                finally:
                    if counter is not None:
                        counter.__exit__(None, None, None)
                        tracer.count("nn.conv.flop",
                                     counter.by_kind.get("conv2d", 0))
        return wrapper

    def conv(func):
        @functools.wraps(func)
        def wrapper(self, x):
            tracer.count("nn.conv.bytes", conv_bytes_moved(
                x.shape, self.weight.shape, self.stride, self.padding))
            with tracer.span("nn.conv"):
                return func(self, x)
        return wrapper

    def batch_norm(func):
        @functools.wraps(func)
        def wrapper(self, x):
            if self._folded and not self.training:
                return func(self, x)  # folded into the conv: no work here
            with tracer.span("nn.bn"):
                return func(self, x)
        return wrapper

    patch(Server, "compute", compute)
    patch(batched.StackedConv2d, "forward", conv)
    patch(batched.StackedBatchNorm2d, "forward", batch_norm)

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return undo
