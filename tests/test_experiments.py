"""Integration tests: the experiment runners regenerate every table end to end
at the tiny preset."""

import numpy as np
import pytest

from repro.experiments import (
    brute_force_cost_table,
    get_preset,
    run_table1,
    run_table2,
    run_table3,
    sweep_num_nets,
)
from repro.experiments.reporting import f2, f3, format_markdown_table, pct


class TestPresets:
    def test_known_presets(self):
        for name in ("tiny", "small", "paper"):
            preset = get_preset(name)
            assert preset.name == name
            assert {s.key for s in preset.datasets} == {"cifar10", "cifar100", "celeba"}

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("huge")

    def test_paper_preset_matches_paper_parameters(self):
        preset = get_preset("paper")
        assert preset.num_nets == 10
        assert preset.sigma == 0.1
        # P = {4, 3, 5} per Section IV-A.
        assert preset.dataset("cifar10").num_active == 4
        assert preset.dataset("cifar100").num_active == 3
        assert preset.dataset("celeba").num_active == 5
        # Paper-scale stem is width 64; CIFAR-100/CelebA drop the maxpool.
        assert preset.dataset("cifar10").model_config.stem_channels == 64
        assert preset.dataset("cifar10").model_config.use_maxpool
        assert not preset.dataset("cifar100").model_config.use_maxpool
        assert not preset.dataset("celeba").model_config.use_maxpool

    def test_dataset_lookup_unknown(self):
        with pytest.raises(KeyError):
            get_preset("tiny").dataset("imagenet")

    def test_ensembler_config_derivation(self):
        preset = get_preset("tiny")
        config = preset.ensembler_config(preset.dataset("cifar10"))
        assert config.num_nets == preset.num_nets
        assert config.num_active == preset.dataset("cifar10").num_active


class TestReporting:
    def test_format_markdown_table(self):
        table = format_markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = table.splitlines()
        assert lines[0].startswith("| a")
        assert len(lines) == 4

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a"], [["1", "2"]])

    def test_number_formats(self):
        assert pct(-0.0213) == "-2.13%"
        assert f3(0.0601) == "0.060"
        assert f2(14.307) == "14.31"


class TestTable3:
    def test_reproduces_paper_rows(self):
        result = run_table3()
        assert result.standard.total_s == pytest.approx(3.94, rel=0.02)
        assert result.ensembler.total_s == pytest.approx(4.13, rel=0.02)
        assert result.stamp.total_s == pytest.approx(309.7, rel=0.02)
        assert result.overhead_fraction == pytest.approx(0.048, abs=0.01)

    def test_markdown_contains_rows(self):
        text = run_table3().to_markdown()
        for name in ("standard-ci", "ensembler", "stamp"):
            assert name in text


@pytest.mark.slow
class TestTable1And2:
    def test_table1_tiny_single_dataset(self):
        result = run_table1("tiny", seed=0, datasets=("cifar10",))
        assert len(result.tables) == 1
        table = result.tables[0]
        assert {r.name for r in table.rows} == {
            "Single", "Ours - Adaptive", "Ours - SSIM", "Ours - PSNR"}
        for row in table.rows:
            assert -1.0 <= row.ssim <= 1.0
            assert np.isfinite(row.psnr)
        assert "cifar10" in result.to_markdown()

    def test_table1_best_rows_dominate(self):
        result = run_table1("tiny", seed=1, datasets=("cifar100",))
        table = result.tables[0]
        # Ours-SSIM is by construction the max-SSIM single-net attack.
        assert table.row("Ours - SSIM").ssim >= table.row("Ours - PSNR").ssim - 1e-9
        assert table.row("Ours - PSNR").psnr >= table.row("Ours - SSIM").psnr - 1e-9

    def test_table2_tiny(self):
        result = run_table2("tiny", seed=0)
        names = [r.name for r in result.rows]
        assert names == ["None", "Shredder", "Single", "DR-single",
                         "DR-4 - SSIM", "DR-4 - PSNR",
                         "Ours - Adaptive", "Ours - SSIM", "Ours - PSNR"]
        assert result.row("None").delta_acc == 0.0
        assert 0.0 <= result.base_accuracy <= 1.0


@pytest.mark.slow
class TestAblations:
    def test_sweep_num_nets(self):
        result = sweep_num_nets(values=(2, 3), preset_name="tiny", seed=0)
        assert [p.label for p in result.points] == ["N=2", "N=3"]
        assert "N=2" in result.to_markdown()


class TestBruteForceCost:
    def test_cost_table_rows(self):
        table = brute_force_cost_table(values=(4, 10))
        assert table.rows[0][:3] == (4, 15, 6)
        assert table.rows[1][:3] == (10, 1023, 252)
        assert "2^N" in table.to_markdown()

    def test_cost_grows_exponentially(self):
        table = brute_force_cost_table(values=(4, 8, 12))
        hours = [row[3] for row in table.rows]
        assert hours[1] / hours[0] > 10
        assert hours[2] / hours[1] > 10
