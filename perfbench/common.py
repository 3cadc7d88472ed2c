"""Shared pieces of the benchmark: the paper's model, inputs, host stamp, stats.

The model is Ensembler's CIFAR-10 setting at benchmark scale: N=10
resnet10-style width-16 ``ResNetBody`` bodies on the server, a P=4 secret
selector on the client, 16x16 ``cifar10_like`` images through the one-conv
head with the stem max-pool (a 16x8x8 split, a 4,160-byte uplink frame).
Weights come from fixed seeds; only the inputs depend on ``--seed``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.selector import Selector  # noqa: E402
from repro.data.synthetic import cifar10_like  # noqa: E402
from repro.models.resnet import (  # noqa: E402
    ResNetBody,
    ResNetConfig,
    ResNetHead,
    ResNetTail,
)
from repro.utils.rng import new_rng  # noqa: E402

NUM_NETS = 10
NUM_ACTIVE = 4
WIDTH = 16
IMAGE_HW = 16
NOISE_SIGMA = 0.1
CONFIG = ResNetConfig(
    num_classes=10,
    stem_channels=WIDTH,
    stage_channels=(WIDTH, 2 * WIDTH, 4 * WIDTH, 8 * WIDTH),
    blocks_per_stage=(1, 1, 1, 1),
    use_maxpool=True,
)
SPLIT_SHAPE = CONFIG.intermediate_shape(IMAGE_HW)  # (16, 8, 8)

#: logits tolerance of the served path against the looped reference, per
#: downlink codec.  fp32 differs only by summation order; fp16 and int8
#: can round one element of a map to the neighbouring code on either side.
TOLERANCE = {"fp32": 1e-4, "fp16": 5e-3, "int8": 5e-2}


def build_bodies(num_nets: int = NUM_NETS) -> list[ResNetBody]:
    """N eval-mode bodies with seeded random init (the server's ensemble)."""
    bodies = [ResNetBody(CONFIG, new_rng(100 + i)) for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def build_client_parts(index: int):
    """Head, tail and secret selector of client ``index`` (eval mode)."""
    head = ResNetHead(CONFIG, new_rng(1000 + index))
    tail = ResNetTail(CONFIG, new_rng(2000 + index), in_multiplier=NUM_ACTIVE)
    head.eval()
    tail.eval()
    selector = Selector.random(NUM_NETS, NUM_ACTIVE, rng=new_rng(3000 + index))
    return head, tail, selector


def make_images(seed: int, count: int = 160) -> np.ndarray:
    """A seeded pool of ``count`` 16x16 cifar10-like images in random order."""
    per_class = max(1, -(-count // 10))
    bundle = cifar10_like(size=IMAGE_HW, train_per_class=per_class,
                          test_per_class=1, seed=1,
                          rng=np.random.default_rng(seed))
    images = bundle.train.images[:count]
    return np.ascontiguousarray(images, dtype=np.float32)


# -- statistics ---------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timer:
    """Median of repeated set-ups: ``with timer: build()`` per repetition."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.samples.append(time.perf_counter() - self._start)

    @property
    def median_s(self) -> float:
        return median(self.samples)


# -- host stamp ---------------------------------------------------------


def _blas_library():
    """The loaded OpenBLAS shared object, found through the process maps."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads() -> int | None:
    """BLAS worker threads as loaded (None when the library is not found)."""
    lib = _blas_library()
    if lib is None:
        return None
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads"):
        func = getattr(lib, name, None)
        if func is not None:
            func.restype = ctypes.c_int
            return int(func())
    return None


def host_stamp() -> dict:
    """Where a result was measured: cores, Python, NumPy and BLAS."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
    }
