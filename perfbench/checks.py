"""Output checks every run makes: looped reference logits and conservation."""

from __future__ import annotations

import dataclasses

import numpy as np

import common  # noqa: F401  (puts the repository's src/ on sys.path)
from repro import nn
from repro.ci.pipeline import Client, Server
from repro.serving.protocol import Codec, FeatureResponse


REFERENCE_CHUNK = 64  # images per looped reference pass


@dataclasses.dataclass
class Served:
    """One completed request as the client saw it."""

    features: np.ndarray  # the uploaded (noised) split features
    codec: str            # downlink codec name: fp32 / fp16 / int8
    selector: object      # the secret selector the response was decoded with
    tail: nn.Module
    logits: np.ndarray    # what the served path returned


def reference_logits(looped: Server, served: list[Served]) -> list[np.ndarray]:
    """Logits of the same requests through ``Server(backend="looped")``,
    the same codec round-trip, then the same selector and tail.

    The bodies treat every sample independently, so the looped pass runs
    once per distinct uploaded sample (requests repeat images from the
    seeded pool) and each request gathers its rows from those outputs.
    """
    index: dict[bytes, int] = {}
    samples: list[np.ndarray] = []
    rows_of = []
    for item in served:
        rows = []
        for sample in item.features:
            key = sample.tobytes()
            if key not in index:
                index[key] = len(samples)
                samples.append(sample)
            rows.append(index[key])
        rows_of.append(rows)
    chunks = [looped.compute(np.stack(samples[i:i + REFERENCE_CHUNK]))
              for i in range(0, len(samples), REFERENCE_CHUNK)]
    maps = [np.concatenate(parts) for parts in zip(*chunks)] if chunks else []
    out = []
    for item, rows in zip(served, rows_of):
        outs = [np.ascontiguousarray(m[rows]) for m in maps]
        wire = FeatureResponse.encode(0, 0, outs, codec=item.codec)
        decoded = FeatureResponse.from_bytes(wire.to_bytes()).decoded()
        client = Client(nn.Identity(), item.tail, selector=item.selector)
        out.append(client.decide(decoded))
    return out


def check_logits(looped: Server, served: list[Served]) -> tuple[bool, str]:
    """Compare every served request with its reference under the codec's
    tolerance; returns ``(ok, description)``."""
    worst: dict[str, float] = {}
    bad = 0
    for item, ref in zip(served, reference_logits(looped, served)):
        diff = float(np.max(np.abs(item.logits - ref)))
        worst[item.codec] = max(worst.get(item.codec, 0.0), diff)
        if not diff <= common.TOLERANCE[item.codec]:
            bad += 1
    detail = ", ".join(f"{codec} max|diff| {value:.2e} (tol {common.TOLERANCE[codec]:g})"
                       for codec, value in sorted(worst.items()))
    return bad == 0 and len(served) > 0, (
        f"reference check: {len(served)} requests, {bad} outside tolerance; "
        f"{detail or 'nothing served'}")


@dataclasses.dataclass
class Ledger:
    """Request accounting of one phase: every attempt ends exactly once."""

    attempted: int = 0
    completed: int = 0
    refused: int = 0   # BackpressureError and other admission refusals
    failed: int = 0    # admitted but never answered
    duplicates: int = 0

    def check(self) -> tuple[bool, str]:
        ok = (self.attempted == self.completed + self.failed + self.refused
              and self.duplicates == 0 and self.attempted > 0)
        return ok, (f"conservation: attempted {self.attempted} = completed "
                    f"{self.completed} + failed {self.failed} + refused "
                    f"{self.refused}, duplicates {self.duplicates}")


def codec_name(codec) -> str:
    return Codec.parse(codec).name.lower()
