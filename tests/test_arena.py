"""Differential tests for the serving tensor arena.

The :class:`repro.nn.arena.TensorArena` holds the service's staging
buffer (the uplink batch a coalesced group is copied into) and keeps it
alive across ticks.  Kernel scratch never lives there.  The safety contract — no arena byte
ever escapes into a served feature map, and a shape/dtype change can
never serve a stale view — is enforced here adversarially, always on
multi-request groups so the staging buffer is live:

* **poisoning** — NaN-fill every pooled buffer between ticks; served
  outputs must stay bit-identical to the same groups staged by the
  ``np.concatenate`` reference (a single leaked arena element would
  surface as NaN);
* **invalidation** — alternate coalesce keys across ticks; every slot
  re-allocates on mismatch and still serves reference outputs;
* **coalescing contract** — a request's served features depend on its
  own payload and its group's shape only, never on its group-mates'
  values; against per-request serving (a different GEMM shape) they
  agree to ≤1e-5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci.pipeline import Client, Server
from repro.nn.arena import TensorArena
from repro.nn.tensor import Tensor, no_grad
from repro.serving.service import InferenceService
from repro.utils.rng import new_rng
from tests.helpers import ConcatStagingService


class TestTensorArenaUnit:
    def test_named_slots_are_singletons(self):
        arena = TensorArena()
        buf = arena.take_named("staging", (4, 2), np.float32)
        assert arena.take_named("staging", (4, 2), np.float32) is buf
        assert arena.num_buffers == 1

    @pytest.mark.parametrize("mutate", ["shape", "dtype"])
    def test_mismatch_invalidates_slot(self, mutate):
        arena = TensorArena()
        old = arena.take_named("staging", (2, 3), np.float32)
        shape = (2, 4) if mutate == "shape" else (2, 3)
        dtype = np.float32 if mutate == "shape" else np.float64
        fresh = arena.take_named("staging", shape, dtype)
        assert fresh is not old
        assert fresh.shape == shape and fresh.dtype == dtype
        assert arena.num_buffers == 1
        assert arena.misses == 2 and arena.hits == 0

    def test_poison_fills_floats_and_ints(self):
        arena = TensorArena()
        f = arena.take_named("f", (3,), np.float32)
        i = arena.take_named("i", (3,), np.int64)
        arena.poison()
        assert np.isnan(f).all()
        assert (i == np.iinfo(np.int64).min).all()

    def test_clear_drops_buffers_and_counters(self):
        arena = TensorArena()
        arena.take_named("staging", (2,), np.float32)
        arena.take_named("staging", (2,), np.float32)
        arena.clear()
        assert arena.num_buffers == 0 and arena.nbytes == 0
        assert arena.hits == 0 and arena.misses == 0

    def test_nbytes_tracks_pool(self):
        arena = TensorArena()
        arena.take_named("a", (4,), np.float32)
        arena.take_named("b", (2, 2), np.float64)
        assert arena.nbytes == 4 * 4 + 4 * 8


def make_resnet_bodies(num_nets: int = 3) -> list[nn.Module]:
    """Conv/BN/ReLU bodies with 3x3 receptive fields."""
    bodies = []
    for i in range(num_nets):
        rng = new_rng(80 + i)
        body = nn.Sequential(
            nn.Conv2d(3, 6, 3, padding=1, rng=rng), nn.BatchNorm2d(6),
            nn.ReLU(), nn.Conv2d(6, 6, 3, padding=1, rng=rng), nn.ReLU())
        body.train()
        with no_grad():
            body(Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32)))
        body.eval()
        bodies.append(body)
    return bodies


def serve_reference(feats: list[np.ndarray]) -> list[list]:
    """Per-request serving through the copying reference, BN unfolded."""
    service = ConcatStagingService(Server(make_resnet_bodies(), fold_bn=False),
                                   max_batch=1)
    session = service.adopt_session(Client(nn.Identity(), nn.Identity()))
    ids = [session.submit_features(f) for f in feats]
    service.run_until_idle()
    return [session.result(rid) for rid in ids]


def serve_groups(service, groups: list[list[np.ndarray]],
                 poison: bool = False) -> list[list]:
    """Serve each group of payloads in one tick; per-request results.

    Every request rides its own session, so each group is a genuine
    multi-tenant coalesce.  ``poison`` NaN-fills the arena after every
    tick.
    """
    results = []
    for group in groups:
        sessions = [service.adopt_session(Client(nn.Identity(), nn.Identity()))
                    for _ in group]
        ids = [sess.submit_features(f) for sess, f in zip(sessions, group)]
        ticks = service.stats.ticks
        service.tick()
        assert service.stats.ticks == ticks + 1
        results.extend(sess.result(rid) for sess, rid in zip(sessions, ids))
        if poison:
            service.arena.poison()
    return results


def assert_maps_equal(results, reference, atol: float = 0.0):
    """Per-request feature maps agree: bit-exactly, or within ``atol``."""
    assert len(results) == len(reference)
    for maps, ref_maps in zip(results, reference):
        for a, b in zip(maps, ref_maps):
            assert np.isfinite(a).all()
            if atol:
                np.testing.assert_allclose(a, b, rtol=0, atol=atol)
            else:
                np.testing.assert_array_equal(a, b)


def random_groups(seed: int, shapes: list[tuple[int, ...]],
                  per_group: int = 2) -> list[list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    return [[rng.standard_normal(shape).astype(np.float32)
             for _ in range(per_group)] for shape in shapes]


class TestArenaServiceIntegration:
    def _service(self, reference: bool = False):
        # fold_bn=False isolates the arena: outputs must be *bit*-equal
        # to the np.concatenate reference (the fold's own parity is
        # ≤1e-5 and covered by test_fold_parity).
        service_cls = ConcatStagingService if reference else InferenceService
        return service_cls(Server(make_resnet_bodies(), fold_bn=False))

    def test_poisoned_arena_never_leaks_into_outputs(self):
        groups = random_groups(14, [(2, 3, 6, 6)] * 4, per_group=3)
        service = self._service()
        results = serve_groups(service, groups, poison=True)
        assert service.arena.num_buffers > 0  # the staging buffer is live
        reference = serve_groups(self._service(reference=True), groups)
        assert_maps_equal(results, reference)

    def test_arena_buffers_are_reused_between_ticks(self):
        groups = random_groups(15, [(2, 3, 6, 6)] * 2)
        service = self._service()
        serve_groups(service, groups[:1])
        pooled = service.arena.num_buffers
        assert pooled > 0
        service.arena.hits = service.arena.misses = 0
        serve_groups(service, groups[1:])
        assert service.arena.num_buffers == pooled  # same working set
        assert service.arena.misses == 0 and service.arena.hits > 0

    def test_shape_change_invalidates_across_ticks(self):
        """Alternating coalesce keys must re-allocate, never serve stale."""
        shapes = [(2, 3, 6, 6), (3, 3, 8, 8), (2, 3, 6, 6), (1, 3, 4, 4)]
        groups = random_groups(16, shapes)
        service = self._service()
        results = serve_groups(service, groups, poison=True)
        assert service.arena.misses == len(shapes)  # every key change
        reference = serve_groups(self._service(reference=True), groups)
        assert_maps_equal(results, reference)
        flat = [f for group in groups for f in group]
        assert_maps_equal(results, serve_reference(flat), atol=1e-5)

    def test_staging_buffer_coalesces_multi_request_groups(self):
        """One pass serves the group; same group shape ⇒ the same bits.

        Against ``np.concatenate`` staging (identical GEMM shapes) it is
        bit-exact; against per-request serving the GEMMs are narrower and
        BLAS may pick another kernel, so float32 rounding is allowed.
        """
        groups = random_groups(17, [(2, 3, 6, 6)])
        service = self._service()
        results = serve_groups(service, groups)
        assert service.arena.num_buffers == 1  # just the staging buffer
        reference = serve_groups(self._service(reference=True), groups)
        assert_maps_equal(results, reference)
        assert_maps_equal(results, serve_reference(groups[0]), atol=1e-5)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), mates=st.integers(1, 3),
       batch=st.integers(1, 3), position=st.integers(0, 3),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
def test_served_features_ignore_group_mate_values(seed, mates, batch,
                                                  position, scale):
    """Property: a request's served features are bit-identical whatever
    values its same-shaped group-mates carry (one GEMM column never reads
    another request's values)."""
    rng = np.random.default_rng(seed)
    shape = (batch, 3, 6, 6)
    target = rng.standard_normal(shape).astype(np.float32)
    position = min(position, mates)
    service = InferenceService(Server(make_resnet_bodies()))
    served = []
    for mate_scale in (1.0, scale):
        group = [(mate_scale * rng.standard_normal(shape)).astype(np.float32)
                 for _ in range(mates)]
        group.insert(position, target)
        served.append(serve_groups(service, [group])[position])
    assert_maps_equal([served[0]], [served[1]])

