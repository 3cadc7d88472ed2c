"""The Ensembler model: client head/tail + N server bodies + secret selector.

This is the inference-time object of Fig. 2 (top).  ``forward`` follows the
client's view (only the P selected bodies matter); ``server_outputs`` follows
the server's view (all N bodies run, because the server cannot know which
ones are active).

Execution
---------
Both views run their bodies through one
:class:`~repro.nn.batched.BodyEnsemble`: the N bodies (and the P selected
ones) run as a single fused :class:`~repro.nn.batched.StackedBodies` pass
when they stack, which is what makes the "run all N so the selection stays
secret" protocol affordable, and as a per-body loop otherwise — for
architecturally heterogeneous bodies, and whenever a body is in train mode
so that BatchNorm running statistics update in the bodies themselves.

The fused engines hold a *copy* of the bodies' parameters, kept out of
``state_dict`` and ``parameters()`` so checkpoints stay loop-compatible.
They re-sync after a train-mode pass, when the model returns to eval mode
and on :meth:`EnsemblerModel.load_state_dict`.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.noise import FixedGaussianNoise
from repro.core.selector import Selector
from repro.nn.batched import BodyEnsemble
from repro.nn.tensor import Tensor


class EnsemblerModel(nn.Module):
    """Complete Ensembler pipeline.

    Parameters
    ----------
    head, tail:
        The client's private layers (``M_c,h``, ``M_c,t``); the tail input
        width must equal ``P * feature_dim`` because the selector concatenates.
    bodies:
        The N server networks ``{M_s^i}`` (trained in stage 1, frozen after).
    selector:
        The stage-2 secret selector.
    noise:
        The stage-3 fixed Gaussian noise added to the head output.
    """

    def __init__(self, head: nn.Module, bodies: list[nn.Module], tail: nn.Module,
                 selector: Selector, noise: nn.Module):
        super().__init__()
        if len(bodies) != selector.num_nets:
            raise ValueError("selector arity must match the number of bodies")
        self.head = head
        self.bodies = nn.ModuleList(bodies)
        self.tail = tail
        self.noise = noise
        self.selector = selector  # plain attribute: not a module, has no weights
        # Not a Module, so its fused mirrors stay out of state_dict().
        self._ensemble = BodyEnsemble(list(bodies))

    @property
    def num_nets(self) -> int:
        return len(self.bodies)

    def train(self, mode: bool = True) -> "EnsemblerModel":
        super().train(mode)
        if not mode:
            self._ensemble.sync()
        return self

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._ensemble.sync()

    # -- inference ------------------------------------------------------
    def intermediate(self, x: Tensor) -> Tensor:
        """What the client uploads: ``M_c,h(x) + N(0, σ)``."""
        return self.noise(self.head(x))

    def server_outputs(self, features: Tensor) -> list[Tensor]:
        """The server's honest computation: every body, in index order."""
        return self._ensemble(features)

    def forward(self, x: Tensor) -> Tensor:
        """Client-perspective forward: only the selected bodies are evaluated."""
        selected = self._ensemble(self.intermediate(x), self.selector.indices)
        return self.tail(self.selector.apply_subset(selected))

    def forward_full_protocol(self, x: Tensor) -> Tensor:
        """Protocol-faithful forward: all N bodies run, then the selector.

        Numerically identical to :meth:`forward`; used by tests to pin down
        that the client-side shortcut does not change predictions.
        """
        features = self.intermediate(x)
        outputs = self.server_outputs(features)
        return self.tail(self.selector(outputs))

    def client_parameters(self) -> list[nn.Parameter]:
        return self.head.parameters() + self.tail.parameters()

    def server_parameters(self) -> list[nn.Parameter]:
        return [p for body in self.bodies for p in body.parameters()]
