"""Shared test utilities: finite-difference gradient checking and the
copying serve-path oracle."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor
from repro.serving.service import InferenceService


def numerical_grad(fn, tensor: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``fn() -> scalar Tensor`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn().data)
        flat[i] = original - eps
        minus = float(fn().data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def assert_gradients_close(fn, tensors: list[Tensor], rtol: float = 1e-4, atol: float = 1e-6):
    """Check autograd gradients of ``fn`` against finite differences.

    ``fn`` must be a zero-argument callable returning a scalar Tensor built
    from ``tensors`` (all float64, requires_grad=True).
    """
    for t in tensors:
        t.grad = None
        assert t.dtype == np.float64, "gradient checks must run in float64"
    out = fn()
    out.backward()
    for t in tensors:
        expected = numerical_grad(fn, t)
        actual = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


def rand_tensor(rng: np.random.Generator, *shape: int, scale: float = 1.0) -> Tensor:
    """Float64 random tensor with gradients enabled (for gradcheck)."""
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True, dtype=np.float64)


class ConcatStagingService(InferenceService):
    """Reference oracle for the serve path: every group is staged with a
    fresh ``np.concatenate`` instead of the service's arena buffer.

    Paired with the copying decode (``submit(UploadRequest.from_bytes(
    frame))``) it is the straightforward serve path the arena staging and
    zero-copy ``submit_bytes`` must match bit for bit.
    """

    def _stage_batch(self, group):
        return np.concatenate([r.features for r in group], axis=0)
