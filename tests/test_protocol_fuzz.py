"""Fuzz tests for the CRC32-hardened wire protocol: no mangled frame may
escape as anything but a typed ProtocolError — plus the end-to-end wire
equivalence of the serve path (zero-copy decode + arena staging) with a
copying reference, which must leave every served response byte-identical."""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.ci.channel import Channel
from repro.ci.pipeline import Client, Server
from repro.serving import (
    Codec,
    FeatureResponse,
    InferenceService,
    ProtocolError,
    UploadRequest,
)
from repro.serving.simulate import bursty_trace
from repro.utils.rng import new_rng
from tests.helpers import ConcatStagingService

rng = np.random.default_rng(97)

CODECS = [Codec.FP32, Codec.FP16, Codec.INT8]


def upload_frame(seed=0):
    local = np.random.default_rng(seed)
    features = local.random((2, 4, 4, 4)).astype(np.float32)
    return UploadRequest(seed + 1, seed, features).to_bytes()


def response_frame(codec, seed=0):
    local = np.random.default_rng(seed)
    outputs = [local.random((2, 16)).astype(np.float32) for _ in range(3)]
    return FeatureResponse.encode(seed + 1, seed, outputs, codec=codec).to_bytes()


def all_frames():
    frames = [("upload", upload_frame())]
    frames += [(f"response-{codec.name.lower()}", response_frame(codec))
               for codec in CODECS]
    return frames


def assert_rejected(parser, blob):
    with pytest.raises(ProtocolError):
        parser(blob)


@pytest.mark.parametrize("name,frame", all_frames())
class TestMangledFrames:
    """Every mutation of every frame kind/codec must raise ProtocolError."""

    def parser(self, name):
        return (UploadRequest.from_bytes if name == "upload"
                else FeatureResponse.from_bytes)

    def test_random_truncation(self, name, frame):
        parser = self.parser(name)
        cuts = set(rng.integers(0, len(frame), size=60).tolist())
        cuts.update((0, 1, 59, 60, 61, 63, 64, len(frame) - 1))
        for cut in cuts:
            assert_rejected(parser, frame[:cut])

    def test_single_bit_flips_everywhere(self, name, frame):
        parser = self.parser(name)
        # Sweep the whole header densely and sample the payload: a flip in
        # any field — magic, version, kind, ids, shape, CRC, payload bytes —
        # must be caught (by field validation or by the checksum).
        positions = set(range(0, 64))
        positions.update(rng.integers(64, len(frame), size=120).tolist())
        for pos in positions:
            for bit in (0, 3, 7):
                blob = bytearray(frame)
                blob[pos] ^= 1 << bit
                assert_rejected(parser, bytes(blob))

    def test_multi_byte_corruption(self, name, frame):
        parser = self.parser(name)
        for trial in range(50):
            blob = bytearray(frame)
            for pos in rng.integers(0, len(frame), size=4):
                blob[pos] ^= int(rng.integers(1, 256))
            assert_rejected(parser, bytes(blob))

    def test_garbage_prefix(self, name, frame):
        parser = self.parser(name)
        for size in (0, 1, 32, 64, 256):
            assert_rejected(parser, bytes(rng.integers(0, 256, size=size,
                                                       dtype=np.uint8)))

    def test_extension_rejected(self, name, frame):
        assert_rejected(self.parser(name), frame + b"\x00" * 8)
        assert_rejected(self.parser(name), frame + frame[:17])


class TestTargetedHeaders:
    """Hand-built header violations keep their specific rejection paths."""

    def test_wrong_magic(self):
        frame = bytearray(upload_frame())
        frame[:4] = b"JUNK"
        assert_rejected(UploadRequest.from_bytes, bytes(frame))

    def test_kind_confusion(self):
        # A response frame fed to the upload parser (and vice versa) is a
        # protocol violation even though the frame itself is intact.
        assert_rejected(UploadRequest.from_bytes, response_frame(Codec.FP32))
        assert_rejected(FeatureResponse.from_bytes, upload_frame())

    def test_truncated_payload_with_intact_header(self):
        frame = upload_frame()
        assert_rejected(UploadRequest.from_bytes, frame[:64 + 7])

    @pytest.mark.parametrize("codec", CODECS)
    def test_codec_roundtrip_still_intact(self, codec):
        # Sanity companion to the fuzz: the unmangled frame still parses.
        frame = response_frame(codec)
        parsed = FeatureResponse.from_bytes(frame)
        assert parsed.codec is codec
        assert parsed.num_nets == 3

    def test_zero_filled_frame(self):
        assert_rejected(UploadRequest.from_bytes, b"\x00" * 128)
        assert_rejected(FeatureResponse.from_bytes, b"\x00" * 128)

    def test_protocol_error_is_valueerror_compatible(self):
        with pytest.raises(ValueError):
            UploadRequest.from_bytes(b"garbage")


class _FrameRecordingChannel(Channel):
    """A channel that retains every downlink frame's exact wire bytes."""

    def __init__(self):
        super().__init__()
        self.downlink_frames: dict[int, bytes] = {}

    def send_down(self, payload):
        self.downlink_frames[payload.request_id] = payload.to_bytes()
        return super().send_down(payload)


class TestFastPathWireEquivalence:
    """The eval-time serve path (zero-copy ``submit_bytes`` decode, arena
    staging of coalesced groups) is a pure optimisation: replaying the
    same bursty trace through it and through the in-test reference —
    copying decode (``submit(UploadRequest.from_bytes(frame))``) and
    ``np.concatenate`` staging — must produce *identical* response frame
    bytes for every request id, under every codec.

    The conv←BN fold is the same in both arms — it shifts numerics at
    the float32-rounding level by design, and its own ≤1e-5 parity is
    pinned by ``tests/test_fold_parity.py``; this suite pins the
    byte-exactness of everything else.
    """

    NUM_SESSIONS = 3

    def _make_bodies(self):
        bodies = []
        for i in range(3):
            rng = new_rng(500 + i)
            bodies.append(nn.Sequential(
                nn.Conv2d(3, 6, 3, padding=1, rng=rng), nn.BatchNorm2d(6),
                nn.ReLU(), nn.Conv2d(6, 4, 3, padding=1, rng=rng)))
        for body in bodies:
            body.eval()
        return bodies

    def _replay(self, codec: Codec, reference: bool) -> dict:
        """One bursty replay; returns response frame bytes by request key.

        Each burst's frames are submitted, then the queue drains: with
        ``max_batch=4`` a burst of five is served as a staged group of
        four plus a single request that reaches the engine unstaged.
        """
        service_cls = ConcatStagingService if reference else InferenceService
        service = service_cls(Server(self._make_bodies()), max_batch=4)
        channels = [_FrameRecordingChannel()
                    for _ in range(self.NUM_SESSIONS)]
        sessions = [service.adopt_session(
                        Client(nn.Identity(), nn.Identity()),
                        channel=channel, codec=codec)
                    for channel in channels]
        payloads = np.random.default_rng(42)
        trace = bursty_trace(num_sessions=self.NUM_SESSIONS, bursts=3,
                             burst_size=5, burst_gap_s=0.5)
        for _, burst in itertools.groupby(trace, key=lambda a: a.time):
            for arrival in burst:
                session = sessions[arrival.session_index]
                batch = int(payloads.integers(1, 3))
                features = payloads.standard_normal(
                    (batch, 3, 6, 6)).astype(np.float32)
                frame = UploadRequest(session.session_id,
                                      session.reserve_request_id(),
                                      features).to_bytes()
                if reference:
                    service.submit(UploadRequest.from_bytes(frame))
                else:
                    service.submit_bytes(frame)
            service.run_until_idle()
        assert service.stats.served_requests == len(trace)
        assert service.stats.peak_coalesced == 4
        return {(session.session_id, request_id): frame
                for session, channel in zip(sessions, channels)
                for request_id, frame in channel.downlink_frames.items()}

    @pytest.mark.parametrize("codec", CODECS)
    def test_fast_path_responses_byte_identical(self, codec):
        fast = self._replay(codec, reference=False)
        slow = self._replay(codec, reference=True)
        assert fast.keys() == slow.keys()
        assert len(fast) == 15  # every traced request answered, both arms
        for key in fast:
            assert fast[key] == slow[key], (
                f"response bytes diverge for (session, request) {key} "
                f"under codec {codec.name}")
