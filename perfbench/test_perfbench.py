"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import common
import metrics
import workloads
from checks import Ledger, check_logits
from spans import Tracer, conv_bytes_moved

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_arrival_schedule_is_fixed_by_the_seed():
    first = workloads.OpenLoop(7).schedule(2.0)
    again = workloads.OpenLoop(7).schedule(2.0)
    other = workloads.OpenLoop(8).schedule(2.0)
    for a, b in zip(first[:3], again[:3]):
        np.testing.assert_array_equal(a, b)
    assert len(first[0]) != len(other[0]) or not np.array_equal(first[0], other[0])
    due = first[0]
    assert np.all(np.diff(due) >= 0) and due[-1] < 2.0


def test_open_loop_latency_counts_from_due_time():
    workload = workloads.OpenLoop(3)
    workload.ladder_rps = (60.0,)
    workload.setup()
    stall_s = 0.3
    tick = workload.service.tick
    stalled = []

    def stalling_tick():
        if not stalled:
            stalled.append(time.perf_counter())
            time.sleep(stall_s)
        return tick()

    workload.service.tick = stalling_tick
    phase = workload.phase(1.0)
    due = phase.extra["due"]
    latency = phase.extra["latency_ms"]
    # Requests due while the first tick stalled wait for it to end: their
    # latency from due time covers the rest of the stall, even though each
    # was served promptly once submitted.
    behind = np.flatnonzero((due > due[0]) & (due < due[0] + stall_s - 0.05))
    assert len(behind) > 0
    for i in behind:
        assert latency[i] >= (due[0] + stall_s - due[i]) * 1e3 * 0.95
    assert max(phase.lags_ms) >= (stall_s - 0.05) * 1e3


def test_reference_check_catches_a_perturbed_logit():
    workload = workloads.Interactive(5)
    workload.setup()
    phase = workload.phase(0.3)
    ok, _ = check_logits(workload.looped, phase.served)
    assert ok
    victim = phase.served[len(phase.served) // 2]
    victim.logits = victim.logits.copy()
    victim.logits[0, 3] += 10 * common.TOLERANCE["fp32"]
    ok, line = check_logits(workload.looped, phase.served)
    assert not ok and "1 outside tolerance" in line


def test_every_metric_name_and_unit_is_well_formed():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(metrics.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in metrics.PER_LAYER]


def test_ledger_conservation():
    assert Ledger(attempted=5, completed=3, refused=1, failed=1).check()[0]
    assert not Ledger(attempted=5, completed=3, refused=1).check()[0]
    assert not Ledger(attempted=2, completed=2, duplicates=1).check()[0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    summary = tracer.summary()
    assert summary["inner"]["self_ms"] == pytest.approx(summary["inner"]["ms"])
    assert summary["outer"]["self_ms"] == pytest.approx(
        summary["outer"]["ms"] - summary["inner"]["ms"])


def test_conv_bytes_moved_counts_each_buffer():
    # Shared 4-D input (1, 2, 4, 4), two members of one 3x3 kernel, pad 1.
    moved = conv_bytes_moved((1, 2, 4, 4), (2, 1, 2, 3, 3), 1, 1)
    elements = 32 + 72 + 2 * 9 * 16 + 2 * 18 + 2 * 16
    assert moved == elements * 4


def test_max_rate_interpolates_inside_the_step():
    def row(rate, p99, met, backlog_ok=True, goodput=0.0):
        return {"rate": rate, "p99_ms": p99, "met": met,
                "backlog_ok": backlog_ok, "goodput_rps": goodput}

    latency_bound = [row(100, 10, True), row(200, 30, False)]
    assert metrics.max_rate(latency_bound, 20.0) == pytest.approx(150.0)
    saturated = [row(100, 10, True), row(200, 15, False, False, 170.0)]
    assert metrics.max_rate(saturated, 20.0) == pytest.approx(170.0)
    assert metrics.max_rate([row(100, 10, True)], 20.0) == 100.0
