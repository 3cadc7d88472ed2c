"""Aliasing fuzz tests for the zero-copy wire decode.

``UploadRequest.from_bytes(..., zero_copy=True)`` hands back ``features``
as a :func:`numpy.frombuffer` view straight into the wire buffer — no
payload copy at decode time.  That is only sound under two invariants
this suite attacks from both sides:

* a view is shared **only** over immutable ``bytes``; any mutable source
  (``bytearray``, writable ``memoryview``) gets a defensive copy, so a
  sender recycling its frame buffer can never alias into served
  features — we mutate the source after decode and diff;
* shared views are **read-only**; nothing downstream (including the
  serving tick itself) can scribble on the wire buffer — we serve real
  traffic through ``submit_bytes`` and check the frame bytes after.
"""

import numpy as np
import pytest

from repro import nn
from repro.ci.pipeline import Client, Server
from repro.serving.protocol import Codec, FeatureResponse, UploadRequest
from repro.serving.service import InferenceService
from tests.helpers import ConcatStagingService


def make_frame(shape=(2, 3, 6, 6), dtype=np.float32, seed=0) -> tuple:
    rng = np.random.default_rng(seed)
    features = rng.standard_normal(shape).astype(dtype)
    return features, UploadRequest(1, 7, features).to_bytes()


def make_bodies(num_nets: int = 2, channels: int = 3) -> list[nn.Module]:
    from repro.utils.rng import new_rng
    return [nn.Sequential(nn.Conv2d(channels, 4, 3, padding=1,
                                    rng=new_rng(70 + i)), nn.ReLU())
            for i in range(num_nets)]


class TestZeroCopyDecode:
    def test_bytes_input_shares_a_readonly_view(self):
        features, blob = make_frame()
        request = UploadRequest.from_bytes(blob, zero_copy=True)
        assert not request.features.flags.writeable
        # Genuinely zero-copy: the view's backing buffer is the frame.
        assert np.shares_memory(request.features,
                                np.frombuffer(blob, dtype=np.uint8))
        np.testing.assert_array_equal(request.features, features)
        with pytest.raises((ValueError, RuntimeError)):
            request.features[0, 0, 0, 0] = 1.0

    def test_default_decode_is_a_writable_copy(self):
        features, blob = make_frame()
        request = UploadRequest.from_bytes(blob)
        assert request.features.flags.writeable
        assert not np.shares_memory(request.features,
                                    np.frombuffer(blob, dtype=np.uint8))
        request.features[:] = -1.0  # scribbling must not touch the frame
        np.testing.assert_array_equal(
            UploadRequest.from_bytes(blob).features, features)

    @pytest.mark.parametrize("wrap", [bytearray,
                                      lambda b: memoryview(bytearray(b))])
    def test_mutable_sources_are_defensively_copied(self, wrap):
        """zero_copy over a recyclable buffer must never alias into it."""
        features, blob = make_frame()
        source = wrap(blob)
        request = UploadRequest.from_bytes(source, zero_copy=True)
        # The sender recycles its buffer: flip every payload byte.
        mutable = source.obj if isinstance(source, memoryview) else source
        for i in range(len(mutable)):
            mutable[i] ^= 0xFF
        np.testing.assert_array_equal(request.features, features)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_shapes_decode_identically_both_modes(self, seed):
        """zero-copy and copying parses agree over random frames."""
        rng = np.random.default_rng(300 + seed)
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        dtype = rng.choice([np.float32, np.float64, np.int64])
        features, blob = make_frame(shape, np.dtype(dtype), seed=seed)
        shared = UploadRequest.from_bytes(blob, zero_copy=True)
        copied = UploadRequest.from_bytes(blob)
        np.testing.assert_array_equal(shared.features, features)
        np.testing.assert_array_equal(shared.features, copied.features)
        assert shared.features.dtype == copied.features.dtype == features.dtype

    def test_feature_response_zero_copy_views_are_readonly(self):
        maps = [np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2)
                for _ in range(2)]
        blob = FeatureResponse.encode(1, 2, maps, codec=Codec.FP32).to_bytes()
        response = FeatureResponse.from_bytes(blob, zero_copy=True)
        for arr, ref in zip(response.outputs, maps):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, ref)


class TestZeroCopyServePath:
    def _serve(self, frames: list[bytes]) -> list[list]:
        """Zero-copy ``submit_bytes`` ingest, arena-staged groups."""
        service = InferenceService(Server(make_bodies()))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        ids = [service.submit_bytes(frame) for frame in frames]
        service.run_until_idle()
        return [session.result(rid) for rid in ids]

    def _serve_reference(self, frames: list[bytes]) -> list[list]:
        """The copying oracle: copying decode, ``np.concatenate`` staging."""
        service = ConcatStagingService(Server(make_bodies()))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        ids = [service.submit(UploadRequest.from_bytes(frame))
               for frame in frames]
        service.run_until_idle()
        return [session.result(rid) for rid in ids]

    def _frames(self, count: int = 3) -> tuple[list[np.ndarray], list[bytes]]:
        rng = np.random.default_rng(9)
        feats = [rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
                 for _ in range(count)]
        return feats, [UploadRequest(1, i, f).to_bytes()
                       for i, f in enumerate(feats)]

    def test_submit_bytes_serves_reference_outputs(self):
        """The zero-copy ingest path returns byte-identical features."""
        _, frames = self._frames()
        fast = self._serve(frames)
        slow = self._serve_reference(frames)
        for fast_maps, slow_maps in zip(fast, slow):
            for a, b in zip(fast_maps, slow_maps):
                np.testing.assert_array_equal(a, b)

    def test_wire_frames_unchanged_after_serving(self):
        """Serving shared views must never write through to the frames."""
        _, frames = self._frames()
        pristine = [bytes(frame) for frame in frames]
        self._serve(frames)
        assert frames == pristine

    def test_copying_ingest_tolerates_recycled_frames(self):
        """A sender may reuse its buffer once submit_bytes returns —
        the mutable-buffer decode copied defensively."""
        feats, frames = self._frames(2)
        service = InferenceService(Server(make_bodies()))
        session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
        buffers = [bytearray(frame) for frame in frames]
        ids = [service.submit_bytes(buf) for buf in buffers]
        for buf in buffers:  # recycle before the tick even runs
            for i in range(len(buf)):
                buf[i] ^= 0xFF
        service.run_until_idle()
        reference = self._serve_reference(frames)
        for rid, ref_maps in zip(ids, reference):
            for a, b in zip(session.result(rid), ref_maps):
                np.testing.assert_array_equal(a, b)
