"""``repro.nn`` — a pure-NumPy deep-learning substrate.

This subpackage replaces PyTorch for the reproduction: reverse-mode autograd
(:mod:`repro.nn.tensor`), functional ops (:mod:`repro.nn.functional`), layers
(:mod:`repro.nn.modules`), initialisers (:mod:`repro.nn.init`) and optimisers
(:mod:`repro.nn.optim`).
"""

from repro.nn import arena, functional, init, optim
from repro.nn import batched
from repro.nn.arena import TensorArena
from repro.nn.batched import StackedBodies, UnstackableError, stack_modules, unbind
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from repro.nn.optim import (
    SGD,
    Adam,
    CosineAnnealingLR,
    LRScheduler,
    Optimizer,
    StackedAdam,
    StackedSGD,
    StepLR,
)
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad, ones, randn, stack, where, zeros

__all__ = [
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "ConvTranspose2d",
    "CosineAnnealingLR",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "LRScheduler",
    "LeakyReLU",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "StackedAdam",
    "StackedBodies",
    "StackedSGD",
    "StepLR",
    "TensorArena",
    "Tanh",
    "Tensor",
    "UnstackableError",
    "UpsampleNearest2d",
    "arena",
    "as_tensor",
    "batched",
    "concat",
    "functional",
    "init",
    "no_grad",
    "ones",
    "optim",
    "randn",
    "stack",
    "stack_modules",
    "unbind",
    "where",
    "zeros",
]
