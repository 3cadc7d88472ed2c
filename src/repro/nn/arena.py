"""Tensor arena: reuse the serving tier's staging buffers across ticks.

A coalesced serving tick copies its requests' uplink payloads into one
batch array.  A :class:`TensorArena` keeps that staging buffer alive
between ticks and hands it back by name, so a steady stream of
same-shaped groups never re-allocates it.

The arena holds *only* this service-owned buffer.  Kernel scratch (pad
canvases, im2col columns, GEMM products) is allocated fresh per call:
the allocator hands a just-freed, cache-hot block back to the next
layer, which measured faster than cycling through one pooled buffer per
layer.  Conv activations are logically ``(E, N, C, H, W)`` but stored
member-major with the batch innermost, ``(E, C, H, W, N)`` (see
:mod:`repro.nn.batched`); none of that storage ever lives here.

Safety model
------------
An arena buffer's contents are undefined when handed out: the owner
overwrites every element it reads (the staging copy fills every row).
Nothing that escapes a tick — layer outputs, response payloads — aliases
an arena buffer, so a poisoned arena (:meth:`TensorArena.poison`, used by
the differential tests) can never leak NaNs into served features.

Shape-keyed invalidation: a slot whose requested shape or dtype differs
from the cached buffer is re-allocated on the spot, so a coalesce-key
change between ticks (different spatial size, different batch) silently
falls back to fresh memory rather than serving a stale view.

Usage::

    arena = TensorArena()
    staged = arena.take_named("uplink_staging", (n, c, h, w), np.float32)

Not thread-safe — the serving tier is a single-threaded tick loop by
design.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TensorArena"]


class TensorArena:
    """A pool of reusable staging buffers keyed by name and shape.

    :meth:`take_named` returns the singleton buffer registered under a
    name, re-allocating it (counted in ``misses``) when the requested
    shape or dtype differs from the cached one.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take_named(self, name: str, shape: tuple[int, ...],
                   dtype: np.dtype) -> np.ndarray:
        """The buffer registered under ``name``; contents are undefined."""
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    # -- observability / testing ---------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes currently pooled."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def num_buffers(self) -> int:
        """Number of live slots."""
        return len(self._buffers)

    def poison(self, value: float = np.nan) -> None:
        """Fill every pooled float buffer with ``value`` (NaN by default).

        The differential harness calls this between ticks: any stale
        arena byte that leaks into a served feature map then surfaces as
        a NaN instead of a silently plausible number.  Integer buffers
        are filled with their dtype's minimum for the same reason.
        """
        for buf in self._buffers.values():
            if np.issubdtype(buf.dtype, np.floating):
                buf.fill(value)
            elif np.issubdtype(buf.dtype, np.integer):
                buf.fill(np.iinfo(buf.dtype).min)

    def clear(self) -> None:
        """Drop every pooled buffer and zero the hit/miss counters."""
        self._buffers.clear()
        self.hits = self.misses = 0
