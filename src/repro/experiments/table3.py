"""Table III — inference latency of Standard CI, Ensembler and STAMP.

Runs the calibrated latency model (see :mod:`repro.latency`) on the actual
FLOP counts and wire sizes of the paper-scale ResNet-18 split (batch 128).
"""

from __future__ import annotations

import dataclasses

from repro.latency import LatencyBreakdown, LatencyModel, StampModel, workload_from_model
from repro.experiments.reporting import f2, format_markdown_table
from repro.models.resnet import ResNetConfig


@dataclasses.dataclass(frozen=True)
class Table3Result:
    """Full Table III (seconds)."""

    standard: LatencyBreakdown
    ensembler: LatencyBreakdown
    stamp: LatencyBreakdown
    num_nets: int
    batch_size: int

    @property
    def overhead_fraction(self) -> float:
        """Ensembler's total-time overhead over standard CI (paper: 4.8%)."""
        return (self.ensembler.total_s - self.standard.total_s) / self.standard.total_s

    def to_markdown(self) -> str:
        headers = ["Name", "Client", "Server", "Communication", "Total"]

        def row(r: LatencyBreakdown, dashes: bool = False):
            if dashes:
                return [r.name, "-", "-", "-", f2(r.total_s)]
            return [r.name, f2(r.client_s), f2(r.server_s), f2(r.communication_s),
                    f2(r.total_s)]

        return format_markdown_table(
            headers, [row(self.standard), row(self.ensembler), row(self.stamp, dashes=True)])


def run_table3(model_config: ResNetConfig | None = None, image_hw: int = 32,
               batch_size: int = 128, num_nets: int = 10,
               model: LatencyModel | None = None) -> Table3Result:
    """Regenerate Table III (defaults follow the paper's measurement setup)."""
    model_config = model_config if model_config is not None else ResNetConfig(num_classes=10)
    latency = model if model is not None else LatencyModel()
    workload = workload_from_model(model_config, image_hw, batch_size)
    standard = latency.standard_ci(workload)
    ensembler = latency.ensembler(workload, num_nets)
    stamp = StampModel().from_plaintext(standard)
    return Table3Result(standard, ensembler, stamp, num_nets, batch_size)
