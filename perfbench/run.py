"""Repository benchmark: TPC-C in and out of the buffer, and GC-bound flash.

Run from the repository root::

    python3 perfbench/run.py --workload tpcc_regions --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with nothing attached, host
time in reference seconds (see hostspeed.py);
``--trace 1`` makes a separate traced run and prints the per-layer ladder.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
# the program under test is the source tree of the checkout this file is in
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: no program to measure at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True

from hostspeed import HostSpeed, Meter  # noqa: E402
from layers import Tracer, layer_metrics, wall_tail  # noqa: E402
from workloads import FlashWorkload, TpccWorkload, Window, counters  # noqa: E402

Workload = TpccWorkload | FlashWorkload

WORKLOADS: dict[str, Workload] = {
    "tpcc_regions": TpccWorkload("tpcc_regions", buffer_frames=768),
    "tpcc_cached": TpccWorkload("tpcc_cached", buffer_frames=4096),
    "flash_hotcold": FlashWorkload("flash_hotcold"),
}

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "requests_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
    "sim_requests_per_s": "1/s",
    "sim_p99_ms": "ms",
    "write_amplification": "ratio",
    "erases_per_1k_writes": "count/1k",
}

#: ``setup_s`` is the median of at least this many set-ups, spanning at
#: least this many wall seconds, so a ~40 ms flash set-up is not one
#: sample of host noise
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 2.0
#: the host-speed sample after a set-up lasts this share of the set-up
SETUP_SAMPLE_SHARE = 0.1

LADDER = json.loads((HERE / "ladder.json").read_text())["layers"]
PER_LAYER = {name: unit for row in LADDER for name, (unit, __) in row["metrics"].items()}


def timed_setup(workload: Workload, seed: int) -> tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def check(workload: Workload, state: Any, *windows: Window) -> list[str]:
    """Output checks after the windows; prints and returns the problems."""
    problems = workload.check(state)
    if state.device.events is not None or state.device.faults is not None:
        problems.append("an event bus or fault injector was attached")
    for window in windows:
        problems += window.errors
        if window.stale_reads:
            problems.append(f"{window.stale_reads} reads returned stale data")
    for line in problems:
        print(f"check failed: {line}")
    return problems


def measure(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """End-to-end metrics, nothing attached; host time in reference seconds."""
    speed = HostSpeed()
    setups: list[float] = []
    wall_setups: list[float] = []
    state = None
    before, sampled = speed.sample()
    while len(setups) < SETUP_MIN_REPEATS or sum(wall_setups) < SETUP_MIN_SECONDS:
        state = None  # drop the previous stack before building the next
        state, wall = timed_setup(workload, seed)
        # the host's speed around the set-up: the samples on either side,
        # each weighted by its length
        after, took = speed.sample(wall * SETUP_SAMPLE_SHARE)
        setups.append(wall * (before * sampled + after * took) / (sampled + took))
        wall_setups.append(wall)
        before, sampled = after, took
    horizon = workload.horizon
    meter = Meter(speed, lambda done, elapsed: elapsed < seconds or done < horizon)
    window = workload.run(state, seed, meter)
    meter.close()
    problems = check(workload, state, window)
    completed = window.attempted - window.failed
    print(f"wall time: setup_s {statistics.median(wall_setups):.6g} s, requests_per_s "
          f"{completed / meter.wall_s:.6g} 1/s; host speed {meter.speed_share:.4f} "
          "of the reference")
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_ref_s": completed / meter.ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": completed / max(1, window.attempted),
        **window.sim,
    }
    for name, unit in END_TO_END.items():
        print(f"{name:<24} {values[name]:>16.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def trace(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Per-layer metrics from a traced run, plus the tracing overhead.

    Two identical stacks are set up, one untraced and one traced.  The
    traced one runs for ``seconds``; the untraced one then replays exactly
    as many operations, and the wall-time difference is the overhead.
    """
    plain, plain_setup = timed_setup(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_setup = timed_setup(workload, seed)
        setup_random = tracer.layer_self_seconds()["tpcc.random_gen"]
        rows = tracer.calls("Table.insert")
        tracer.reset()
        device = traced.device
        before = counters(traced)
        window = workload.run(traced, seed, lambda done, elapsed: elapsed < seconds)
        after = counters(traced)
        metrics, shares = layer_metrics(
            tracer, window.elapsed, len(tracer.txn_spans), before, after,
            read_service_us=device.timing.read_us
            + device.timing.bus_us(device.geometry.page_size, device.geometry.page_size),
            pages_per_block=device.geometry.pages_per_block,
        )
        tails = {kind: wall_tail([s for k, s in tracer.txn_spans if k == kind])[0]
                 for kind in {k for k, __ in tracer.txn_spans}}
    finally:
        tracer.remove()
    replay = workload.run(plain, seed, lambda done, elapsed: done < window.attempted)
    metrics["tpcc.loader.rows_per_s"] = rows / plain_setup
    metrics["tpcc.random_gen.setup_share"] = setup_random / traced_setup
    metrics["trace.overhead_share"] = (window.elapsed - replay.elapsed) / replay.elapsed
    metrics["trace.requests"] = window.attempted
    problems = check(workload, traced, window, replay)
    print_ladder(workload.name, metrics, shares, tails)
    return {
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def print_ladder(name: str, metrics: dict[str, float], shares: dict[str, float],
                 tails: dict[str, float]) -> None:
    """The layer ladder: self-time share, metrics, and what each should move."""
    print(f"layer ladder for {name} (self-time shares of the traced window sum to "
          f"{sum(shares.values()):.3f})")
    print(f"{'layer':<20} {'share':>7}  moves -> most / little")
    for row in LADDER:
        layer = row["layer"]
        share = f"{shares[layer]:7.3f}" if layer in shares else " " * 7
        print(f"{layer:<20} {share}  {', '.join(row['moves']) or '-'} -> "
              f"{', '.join(row['most'])} / {', '.join(row['little']) or '-'}")
        for metric, (unit, __) in row["metrics"].items():
            print(f"    {metric:<48} {metrics[metric]:>14.6g} {unit}")
    for kind, pct in sorted(tails.items()):
        print(f"    tpcc.transactions.{kind}.wall_tail_ms is p{pct:g}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<48} {'unit':<9}" + "".join(f"{w:>16}" for w in results))
    for metric in names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        print(f"{metric:<48} {unit:<9}" + "".join(
            f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    mode = trace if args.trace else measure
    print(json.dumps(mode(WORKLOADS[args.workload], args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
