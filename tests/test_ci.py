"""Tests for the collaborative-inference protocol (channel, roles, pipelines)."""

import numpy as np
import pytest

from repro import nn
from repro.ci import (
    Channel,
    Client,
    EnsembleCIPipeline,
    HEADER_BYTES,
    Server,
    StandardCIPipeline,
    payload_nbytes,
)
from repro.core import EnsemblerModel
from repro.core.noise import FixedGaussianNoise
from repro.core.selector import Selector
from repro.models import ResNet, ResNetConfig, SplitModel
from repro.models.resnet import ResNetHead, ResNetTail
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

rng = np.random.default_rng(41)


def tiny_config(num_classes=4):
    return ResNetConfig(num_classes=num_classes, stem_channels=8, stage_channels=(8, 16),
                        blocks_per_stage=(1, 1), use_maxpool=True)


def make_single_deployment():
    model = ResNet(tiny_config(), rng=new_rng(0)).eval()
    client = Client(model.head, model.tail)
    server = Server([model.body])
    return model, client, server


class TestChannel:
    def test_payload_nbytes_single_array(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        assert payload_nbytes(arr) == arr.nbytes + HEADER_BYTES

    def test_payload_nbytes_list(self):
        arrays = [np.zeros(4, dtype=np.float32)] * 3
        assert payload_nbytes(arrays) == 3 * (16 + HEADER_BYTES)

    def test_send_up_accounting(self):
        channel = Channel()
        payload = np.zeros((1, 8), dtype=np.float32)
        out = channel.send_up(payload)
        assert out is payload
        assert channel.stats.uplink_messages == 1
        assert channel.stats.uplink_bytes == payload.nbytes + HEADER_BYTES
        assert channel.stats.downlink_bytes == 0

    def test_send_down_accounting(self):
        channel = Channel()
        channel.send_down([np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float32)])
        assert channel.stats.downlink_messages == 1
        assert channel.stats.total_messages == 1

    def test_stats_reset(self):
        channel = Channel()
        channel.send_up(np.zeros(4, dtype=np.float32))
        channel.stats.reset()
        assert channel.stats.total_bytes == 0


class TestRoles:
    def test_client_encode_shape(self):
        model, client, _ = make_single_deployment()
        images = rng.random((2, 3, 16, 16)).astype(np.float32)
        features = client.encode(images)
        assert features.shape[1:] == tiny_config().intermediate_shape(16)

    def test_client_encode_applies_noise(self):
        model, _, _ = make_single_deployment()
        noise = FixedGaussianNoise(tiny_config().intermediate_shape(16), 0.5, new_rng(1))
        noisy_client = Client(model.head, model.tail, noise=noise)
        clean_client = Client(model.head, model.tail)
        images = rng.random((1, 3, 16, 16)).astype(np.float32)
        delta = noisy_client.encode(images) - clean_client.encode(images)
        np.testing.assert_allclose(delta[0], noise.noise, atol=1e-5)

    def test_server_requires_bodies(self):
        with pytest.raises(ValueError):
            Server([])

    def test_server_computes_all_bodies(self):
        config = tiny_config()
        bodies = [ResNet(config, rng=new_rng(i)).body for i in range(3)]
        for body in bodies:
            body.eval()
        server = Server(bodies)
        features = rng.random((2, 8, 8, 8)).astype(np.float32)
        outputs = server.compute(features)
        assert len(outputs) == 3
        assert all(o.shape == (2, 16) for o in outputs)

    def test_server_records_observed_features(self):
        _, _, server = make_single_deployment()
        features = rng.random((1, 8, 8, 8)).astype(np.float32)
        server.compute(features, record=True)
        assert len(server.observed_features) == 1
        np.testing.assert_array_equal(server.observed_features[0], features)

    def test_server_does_not_record_by_default(self):
        _, _, server = make_single_deployment()
        server.compute(rng.random((1, 8, 8, 8)).astype(np.float32))
        assert server.observed_features == []

    def test_direct_train_call_bypasses_stale_stacked_mirror(self):
        """Regression: ``body.train()`` without ``sync()`` must not serve
        stale eval-mode semantics from the batched mirror — train-mode
        detection reads the bodies, not the mirror's flag."""
        direct_train_scenario(server_runner)

    def test_eval_after_direct_train_uses_batched_path_again(self):
        eval_after_direct_train_scenario(server_runner)

    def test_train_pass_then_eval_resyncs_stale_mirror(self):
        """Regression: a train-mode looped pass moves the bodies' BN running
        statistics; the next eval-mode fused serve must not answer from the
        mirror's pre-training statistics."""
        train_pass_then_eval_scenario(server_runner)

    def test_mixed_mode_ensemble_takes_the_loop(self):
        """One train-mode body must route the whole request down the loop —
        its BN statistics update in place, never the eval mirror's."""
        mixed_mode_scenario(server_runner)

    @pytest.mark.parametrize("scenario", [
        "direct_train", "eval_after_direct_train", "train_pass_then_eval",
        "mixed_mode"])
    def test_ensembler_model_follows_body_modes(self, scenario):
        """The same four mode/staleness regressions, driven through an
        eval-mode ``EnsemblerModel.server_outputs`` instead of a Server."""
        MODE_SCENARIOS[scenario](model_runner)

    def test_shrunken_ensemble_resyncs_after_train_pass(self):
        """A cached ``num_bodies=2`` prefix engine must re-sync after a
        train-mode pass moved the bodies' BN statistics, even when the
        bodies return to eval directly (no ``sync()``)."""
        bodies = make_bodies(3)
        server = Server(bodies)
        features = rng.random((4, 8, 8, 8)).astype(np.float32)
        server.compute(features, num_bodies=2)  # caches the prefix engine
        for body in bodies:
            body.train()
        server.compute(features)  # looped train pass mutates BN stats
        for body in bodies:
            body.eval()
        outputs = server.compute(features, num_bodies=2)
        reference = Server(bodies[:2], backend="looped").compute(features)
        assert len(outputs) == 2
        for got, want in zip(outputs, reference):
            np.testing.assert_allclose(got, want, atol=1e-5)


# -- mode/staleness regressions, shared by every N-body caller ----------
#
# A *runner* builds one caller over the given bodies and returns
# ``(run, sync)``: ``run(features) -> list[np.ndarray]`` is one pass over
# all bodies, ``sync()`` the caller's explicit re-sync point.


def make_bodies(count=3):
    return [ResNet(tiny_config(), rng=new_rng(i)).body for i in range(count)]


def first_bn(body):
    return getattr(getattr(body.stages, "0"), "0").bn1


def server_runner(bodies):
    server = Server(bodies)
    assert server.backend == "batched"  # a fused mirror exists to go stale
    return server.compute, server.sync


def model_runner(bodies):
    """An eval-mode EnsemblerModel; its re-sync point is a state round trip."""
    config = tiny_config()
    model = EnsemblerModel(ResNetHead(config, new_rng(10)), bodies,
                           ResNetTail(config, new_rng(11), in_multiplier=2),
                           Selector(len(bodies), (0, 1)), nn.Identity()).eval()

    def run(features):
        with no_grad():
            return [out.data for out in model.server_outputs(Tensor(features))]

    return run, lambda: model.load_state_dict(model.state_dict())


def looped_reference(bodies, features):
    return Server(bodies, backend="looped").compute(features)


def assert_outputs_match(outputs, reference):
    assert len(outputs) == len(reference)
    for got, want in zip(outputs, reference):
        np.testing.assert_allclose(got, want, atol=1e-5)


def direct_train_scenario(runner):
    bodies = make_bodies()
    for body in bodies:
        body.eval()
    run, _ = runner(bodies)
    for body in bodies:
        body.train()  # direct mode flip, deliberately no sync
    features = rng.random((4, 8, 8, 8)).astype(np.float32)
    running_means = [np.array(first_bn(body).running_mean, copy=True)
                     for body in bodies]
    outputs = run(features)
    # the looped train-mode path served: BN running stats moved in place
    for body, old_mean in zip(bodies, running_means):
        assert np.abs(first_bn(body).running_mean - old_mean).max() > 0
    # and the outputs match a reference looped server in train mode
    fresh = [body.train() for body in make_bodies()]
    assert_outputs_match(outputs, looped_reference(fresh, features))


def eval_after_direct_train_scenario(runner):
    bodies = make_bodies()
    run, sync = runner(bodies)
    for body in bodies:
        body.train()
    sync()
    for body in bodies:
        body.eval()  # again direct, no sync
    features = rng.random((2, 8, 8, 8)).astype(np.float32)
    assert_outputs_match(run(features), looped_reference(bodies, features))


def train_pass_then_eval_scenario(runner):
    bodies = make_bodies()
    for body in bodies:
        body.eval()
    run, _ = runner(bodies)  # mirror synced to pre-training stats
    features = rng.random((4, 8, 8, 8)).astype(np.float32)
    for body in bodies:
        body.train()
    run(features)  # looped train pass mutates BN stats
    for body in bodies:
        body.eval()  # direct, deliberately no sync
    assert_outputs_match(run(features), looped_reference(bodies, features))


def mixed_mode_scenario(runner):
    bodies = make_bodies()
    for body in bodies:
        body.eval()
    run, _ = runner(bodies)
    bodies[1].train()  # bodies[0] still eval: a first-body check would lie
    before = np.array(first_bn(bodies[1]).running_mean, copy=True)
    features = rng.random((4, 8, 8, 8)).astype(np.float32)
    outputs = run(features)
    assert np.abs(first_bn(bodies[1]).running_mean - before).max() > 0
    assert_outputs_match(outputs, looped_reference(bodies, features))


MODE_SCENARIOS = {
    "direct_train": direct_train_scenario,
    "eval_after_direct_train": eval_after_direct_train_scenario,
    "train_pass_then_eval": train_pass_then_eval_scenario,
    "mixed_mode": mixed_mode_scenario,
}


class TestStandardPipeline:
    def test_matches_monolithic_model(self):
        model, client, server = make_single_deployment()
        pipeline = StandardCIPipeline(client, server)
        images = rng.random((4, 3, 16, 16)).astype(np.float32)
        with no_grad():
            expected = model(Tensor(images)).data
        np.testing.assert_allclose(pipeline.infer(images), expected, rtol=1e-5)

    def test_rejects_multi_body_server(self):
        model, client, _ = make_single_deployment()
        server = Server([model.body, model.body])
        with pytest.raises(ValueError):
            StandardCIPipeline(client, server)

    def test_channel_traffic_recorded(self):
        _, client, server = make_single_deployment()
        pipeline = StandardCIPipeline(client, server)
        pipeline.infer(rng.random((2, 3, 16, 16)).astype(np.float32))
        stats = pipeline.channel.stats
        assert stats.uplink_messages == 1
        assert stats.downlink_messages == 1
        # uplink: 2 x 8 x 8 x 8 floats; downlink: 2 x 16 floats
        assert stats.uplink_bytes == 2 * 8 * 8 * 8 * 4 + HEADER_BYTES
        assert stats.downlink_bytes == 2 * 16 * 4 + HEADER_BYTES


class TestEnsemblePipeline:
    def make_ensemble(self, num_nets=3, num_active=2):
        config = tiny_config()
        nets = [ResNet(config, rng=new_rng(i)) for i in range(num_nets)]
        for net in nets:
            net.eval()
        selector = Selector(num_nets, tuple(range(num_active)))
        head = ResNetHead(config, new_rng(10))
        tail = ResNetTail(config, new_rng(11), in_multiplier=num_active)
        head.eval()
        tail.eval()
        client = Client(head, tail, selector=selector)
        server = Server([net.body for net in nets])
        return client, server, selector

    def test_requires_selector(self):
        model, client, server = make_single_deployment()
        with pytest.raises(ValueError):
            EnsembleCIPipeline(client, server)

    def test_logit_shape(self):
        client, server, _ = self.make_ensemble()
        pipeline = EnsembleCIPipeline(client, server)
        logits = pipeline.infer(rng.random((2, 3, 16, 16)).astype(np.float32))
        assert logits.shape == (2, 4)

    def test_all_nets_returned_over_channel(self):
        client, server, _ = self.make_ensemble(num_nets=3)
        pipeline = EnsembleCIPipeline(client, server)
        pipeline.infer(rng.random((2, 3, 16, 16)).astype(np.float32))
        stats = pipeline.channel.stats
        # One downlink message carrying all 3 feature tensors.
        assert stats.downlink_messages == 1
        assert stats.downlink_bytes == 3 * (2 * 16 * 4 + HEADER_BYTES)

    def test_selection_is_client_side(self):
        """The server computes all N nets — it cannot tell which were used."""
        client, server, selector = self.make_ensemble(num_nets=3, num_active=1)
        pipeline = EnsembleCIPipeline(client, server)
        features = client.encode(rng.random((1, 3, 16, 16)).astype(np.float32))
        outputs = server.compute(features)
        assert len(outputs) == 3  # server's work is independent of the secret
        assert pipeline.num_nets == 3
