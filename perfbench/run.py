"""End-to-end benchmark of the Ensembler serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs the workload twice for half the time each,
untraced then traced, and prints every per-layer metric including
``trace.overhead_frac``.  ``--workload all`` runs each workload that
BENCHMARK.json gates, each in its own process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common  # noqa: F401  (puts the repository's src/ on sys.path)
import metrics
import workloads
from checks import check_logits
from common import Timer, median, peak_rss_mb
from spans import Tracer, instrument
from workloads import SETUP_REPEATS, Phase

#: untimed running between set-up and the first measured window.
SETTLE_S = 1.0

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def _serving(workload, seconds: float, trace: bool):
    setup = _setup_median(workload)
    workload.phase(SETTLE_S)  # let caches fill and lazy set-up finish
    notes = []
    phases = []

    def measure(seconds_, tracer=None):
        service = workload.service
        before = dataclasses.asdict(service.stats)
        undo = instrument(tracer) if tracer is not None else None
        workload.tracer = tracer
        try:
            phase = workload.phase(seconds_)
        finally:
            workload.tracer = None
            if undo is not None:
                undo()
        after = dataclasses.asdict(service.stats)
        delta = {k: after[k] - before[k] for k in before}
        phases.append(phase)
        return phase, delta

    def end_to_end(phases):
        if workload.name == "open_loop":
            values, rows = metrics.open_loop(
                phases, workload.ladder_rps, workload.nominal_rps,
                workload.latency_limit_ms, workload.max_batch)
            notes.extend(_rung_lines(rows, workload.latency_limit_ms))
            return values
        per_window = [metrics.closed_loop(p, workload.latency_limit_ms)
                      for p in phases]
        return {key: median([w[key] for w in per_window])
                for key in per_window[0]}

    if not trace:
        values = end_to_end([measure(seconds / workload.windows)[0]
                             for _ in range(workload.windows)])
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = setup
        notes.append(_sample_line(workload, phases))
    else:
        plain, _ = measure(seconds / 2)
        untraced = end_to_end([plain])
        tracer = Tracer()
        traced_phase, delta = measure(seconds / 2, tracer)
        traced = end_to_end([traced_phase])
        values = metrics.layers(tracer, traced_phase, [workload.service],
                                traced_phase.wall_s, delta)
        values["trace.overhead_frac"] = (traced["latency_p50_ms"]
                                         / untraced["latency_p50_ms"] - 1.0)
        tracer.dump(OUT_DIR / f"trace-{workload.name}-{workload.seed}.json")

    correct = True
    for phase in phases:
        ok, line = check_logits(workload.looped, phase.served)
        ok_ledger, ledger_line = phase.ledger.check()
        rotation_ok = phase.extra.get("rotation_ok", True)
        correct = correct and ok and ok_ledger and rotation_ok
        notes += [line, ledger_line]
        if not rotation_ok:
            notes.append("selector rotation diverged from the reference model")
    return values, correct, phases, notes


def _setup_median(workload) -> float:
    timer = Timer()
    for _ in range(SETUP_REPEATS):
        with timer:
            workload.setup()
    return timer.median_s


def _sample_line(workload, phases) -> str:
    if workload.name == "open_loop":
        counts = [int(np.sum(metrics.nominal_mask(p, workload.ladder_rps,
                                                  workload.nominal_rps)))
                  for p in phases]
        tails = ", ".join(f"p{metrics.tail_percentile(c):.4g} of {c}"
                          for c in counts)
        return (f"open_loop: {len(phases)} runs of the ladder; capacity from "
                f"all runs pooled per rate; latency at "
                f"{workload.nominal_rps:g} req/s per run: {tails}")
    tails = ", ".join(f"p{metrics.tail_percentile(len(p.latencies_ms)):.4g} "
                      f"of {len(p.latencies_ms)}" for p in phases)
    return (f"{workload.name}: medians over {len(phases)} windows of "
            f"{phases[0].wall_s:.2f} s; latency tail per window: {tails}")


def _rung_lines(rows, limit_ms) -> list[str]:
    lines = [f"open_loop ladder (limit {limit_ms:g} ms on the tail):",
             f"{'rate':>6} {'sent':>6} {'done':>6} {'p50 ms':>8} {'tail ms':>8} "
             f"{'refused':>7} {'backlog':>7} {'goodput':>8} met"]
    for row in rows:
        lines.append(f"{row['rate']:>6.0f} {row['sent']:>6} {row['completed']:>6} "
                     f"{row['p50_ms']:>8.2f} {row['p99_ms']:>8.2f} "
                     f"{row['refused']:>7} {row['backlog']:>7} "
                     f"{row['goodput_rps']:>8.1f} {row['met']}")
    return lines


def _fleet(workload, seconds: float, trace: bool):
    timer = Timer()

    def replays(seconds_, tracer=None):
        rows = []
        start = time.perf_counter()
        while len(rows) < 2 or time.perf_counter() - start < seconds_:
            with timer:
                workload.setup()
            undo = instrument(tracer) if tracer is not None else None
            try:
                rows.append(workload.replay())
            finally:
                if undo is not None:
                    undo()
        return rows

    if not trace:
        rows = replays(seconds)
        values = metrics.fleet(rows)
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = timer.median_s
    else:
        plain = replays(seconds / 2)
        tracer = Tracer()
        rows = replays(seconds / 2, tracer)
        wall_s = sum(r["wall_s"] for r in rows)
        phase = Phase(wall_s=wall_s)
        for r in rows:
            for field in ("attempted", "completed", "refused", "failed"):
                setattr(phase.ledger, field, getattr(phase.ledger, field)
                        + getattr(r["ledger"], field))
        services = workload.services
        counts = {key: median([r[key] for r in rows]) for key in (
            "migrations", "migrations_per_scale_event", "spawns", "drains",
            "admission_rejected")}
        delta = {"served_requests": 0, "ticks": 0, "rejected_requests": 0,
                 "privacy_charged_queries": 0, "selector_rotations": 0}
        for service in services:
            for key in delta:
                delta[key] += getattr(service.stats, key)
        values = metrics.layers(tracer, phase, services, wall_s, delta, counts)
        per_arrival = lambda rs: median([1.0 / r["arrivals_per_s"] for r in rs])  # noqa: E731
        values["trace.overhead_frac"] = per_arrival(rows) / per_arrival(plain) - 1.0
        tracer.dump(OUT_DIR / f"trace-{workload.name}-{workload.seed}.json")
        rows = plain + rows
    notes = []
    correct = True
    for r in rows:
        correct = correct and r["ok"] and r["ledger"].check()[0]
        notes.append(
            f"replay: {r['ledger'].attempted} arrivals in {r['wall_s']:.2f} s, "
            f"conservation_ok={r['conservation_ok']}, duplicate_serves="
            f"{r['duplicate_serves']}, epsilon_ratchet_ok="
            f"{r['epsilon_ratchet_ok']}, {r['migrations']} migrations over "
            f"{r['spawns']} spawns + {r['drains']} drains, virtual p99 "
            f"{r['p99_ms']:.1f} ms")
    ledgers = [r["ledger"] for r in rows]
    return values, correct, ledgers, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    classes = {"interactive": workloads.Interactive,
               "open_loop": workloads.OpenLoop,
               "bulk": workloads.Bulk,
               "fleet_replay": workloads.FleetReplay}
    workload = classes[name](seed)
    if name == "fleet_replay":
        values, correct, ledgers, notes = _fleet(workload, seconds, trace)
    else:
        values, correct, phases, notes = _serving(workload, seconds, trace)
        ledgers = [p.ledger for p in phases]
    return {
        "workload": name,
        "host": common.host_stamp(),
        "notes": notes,
        "correct": bool(correct),
        "attempted": sum(l.attempted for l in ledgers),
        # Refusals by admission control under overload are by design and
        # show in completed_frac; ``failed`` counts requests that were
        # admitted and never answered.
        "failed": sum(l.failed for l in ledgers),
        "values": values,
    }


def print_result(result: dict, trace: bool) -> None:
    host = result["host"]
    print(f"# workload {result['workload']} on {host['nproc']} cores, Python "
          f"{host['python']}, NumPy {host['numpy']}, {host['blas']} "
          f"{host['blas_version']} with {host['blas_threads']} BLAS threads")
    for line in result["notes"]:
        print(f"# {line}")
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    for name, unit, *rest in catalogue:
        moves = f"  -> {rest[-1]}" if trace else ""
        print(f"{result['workload']:>13} {name:<34} {result['values'][name]:>14.6g} "
              f"{unit}{moves}")


def summary_json(result: dict, trace: bool) -> str:
    names = [m[0] for m in (metrics.PER_LAYER if trace else metrics.END_TO_END)]
    return json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(result["values"][name]),
                           "unit": metrics.UNITS[name]} for name in names},
    })


def run_all(args) -> int:
    """Each workload in its own process (so ``peak_rss_mb`` is its own)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in metrics.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            merged["correct"] = False
            continue
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*metrics.WORKLOADS, *metrics.UNGATED, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_result(result, bool(args.trace))
    print(summary_json(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
