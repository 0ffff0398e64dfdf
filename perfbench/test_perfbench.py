"""The benchmark's own tests: determinism, tracing, and its declared metrics.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.store import NoFTLStore  # noqa: E402
from repro.mapping.blockinfo import BookkeepingError  # noqa: E402
from repro.tpcc.transactions import TransactionExecutor  # noqa: E402
from workloads import FlashWorkload, TpccWorkload, Window, counters, percentile  # noqa: E402

TPCC = run.WORKLOADS["tpcc_regions"]
FLASH = run.WORKLOADS["flash_hotcold"]
#: short windows: the simulated metrics are then taken over what ran
TPCC_OPS = 150
FLASH_OPS = workloads.WARMUP_OPS + 2 * workloads.CHUNK_OPS


def window(workload: TpccWorkload | FlashWorkload, seed: int, ops: int) -> Window:
    state = workload.setup(seed)
    result = workload.run(state, seed, lambda done, __: done < ops)
    assert result.attempted == ops and result.stale_reads == 0
    assert workload.check(state) == []
    return result


def simulated(workload: TpccWorkload | FlashWorkload, seed: int, ops: int) -> dict[str, float]:
    result = window(workload, seed, ops)
    assert result.failed == 0
    return result.sim


def test_tpcc_simulated_metrics_repeat_per_seed_and_follow_it() -> None:
    first = simulated(TPCC, 3, TPCC_OPS)
    assert set(first) == {"sim_requests_per_s", "sim_p99_ms", "write_amplification",
                          "erases_per_1k_writes"}
    assert first["sim_requests_per_s"] > 0 and first["sim_p99_ms"] > 0
    assert first["write_amplification"] >= 1.0
    assert simulated(TPCC, 3, TPCC_OPS) == first
    assert simulated(TPCC, 4, TPCC_OPS) != first


def test_flash_simulated_metrics_repeat_per_seed_and_follow_it() -> None:
    first = simulated(FLASH, 3, FLASH_OPS)
    assert first["write_amplification"] > 1.0 and first["erases_per_1k_writes"] > 0
    assert simulated(FLASH, 3, FLASH_OPS) == first
    assert simulated(FLASH, 4, FLASH_OPS) != first


def test_flash_stream_follows_the_spec() -> None:
    pages = len(FLASH.setup(1).rpns)
    ops = workloads.flash_stream(1, pages)
    assert ops == workloads.flash_stream(1, pages)
    assert max(op >> 1 for op in ops) < pages
    reads = sum(op & 1 for op in ops) / len(ops)
    hot = sum((op >> 1) < pages // 8 for op in ops) / len(ops)
    assert abs(reads - 0.44) < 0.01
    assert abs(hot - 0.9) < 0.01


def test_a_raising_flash_op_is_counted_and_the_window_goes_on() -> None:
    state = FLASH.setup(1)
    write = state.region.write
    calls = [0]

    def flaky(rpn: int, data: bytes, at: float) -> float:
        calls[0] += 1
        if calls[0] % 100 == 0:
            raise OSError("injected")
        return write(rpn, data, at)

    state.region.write = flaky  # type: ignore[method-assign]
    result = FLASH.run(state, 1, lambda done, __: done < FLASH_OPS)
    assert result.attempted == FLASH_OPS
    assert result.failed == calls[0] // 100 > workloads.MAX_ERRORS
    assert len(result.errors) == workloads.MAX_ERRORS
    assert result.errors[0] == "OSError: injected"


def test_a_raising_transaction_is_counted_and_the_window_goes_on(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    calls = [0]
    payment = TransactionExecutor.payment_txn

    def flaky(self: TransactionExecutor, *args: object) -> object:
        calls[0] += 1
        if calls[0] % 5 == 0:
            raise OSError("injected")
        return payment(self, *args)

    monkeypatch.setattr(TransactionExecutor, "payment_txn", flaky)
    result = window(TPCC, 1, TPCC_OPS)
    assert result.failed == calls[0] // 5 > 0
    assert result.failed < result.attempted


def test_a_broken_invariant_is_a_failed_check(monkeypatch: pytest.MonkeyPatch) -> None:
    def broken(self: NoFTLStore) -> None:
        raise BookkeepingError("die 3: free blocks in candidate set")

    state = FLASH.setup(1)
    monkeypatch.setattr(NoFTLStore, "check_consistency", broken)
    assert FLASH.check(state) == [
        "store.check_consistency: BookkeepingError: die 3: free blocks in candidate set"]


def test_a_tpcc_window_ends_at_the_transaction_cap(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "MAX_TXNS", 30)
    state = TPCC.setup(1)
    assert TPCC.run(state, 1, lambda done, __: True).attempted == 30


class SlowHalfSpeed(hostspeed.HostSpeed):
    """A host at half the reference speed whose samples take 10 ms each."""

    def __init__(self) -> None:
        self.samples = 0

    def sample(self, seconds: float = 0.0) -> tuple[float, float]:
        self.samples += 1
        time.sleep(0.01)
        return 0.5, 0.01


def test_meter_keeps_window_time_in_reference_seconds(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(hostspeed, "SLICE_S", 0.0)  # a sample at every look at the clock
    speed = SlowHalfSpeed()
    meter = hostspeed.Meter(speed, lambda done, __: done < FLASH_OPS)
    result = FLASH.run(FLASH.setup(1), 1, meter)
    meter.close()
    assert result.attempted == FLASH_OPS
    # one before the first chunk, one after each look at the clock, one at close
    assert speed.samples == FLASH_OPS // workloads.CHUNK_OPS + 3
    assert meter.ref_s == pytest.approx(meter.wall_s / 2)
    assert meter.speed_share == pytest.approx(0.5)
    # the samples' own time is not workload time
    assert meter.wall_s < result.elapsed - 0.01 * (speed.samples - 2)


def test_host_speed_sample_runs_the_loop_for_as_long_as_asked() -> None:
    factor, took = hostspeed.HostSpeed().sample(0.05)
    assert took >= 0.05 and factor > 0


def test_tracer_restores_every_original() -> None:
    originals = {
        (cls, attr): cls.__dict__[attr]
        for classes, methods in layers.LAYERS.values()
        for cls in classes
        for attr in methods
        if attr in cls.__dict__
    }
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[attr] is not fn for (cls, attr), fn in originals.items())
    finally:
        tracer.remove()
    assert all(cls.__dict__[attr] is fn for (cls, attr), fn in originals.items())


def test_traced_shares_sum_to_one_and_attribute_layers() -> None:
    state = TPCC.setup(5)
    tracer = layers.Tracer()
    tracer.install()
    try:
        before = counters(state)
        result = TPCC.run(state, 5, lambda done, __: done < 40)
        after = counters(state)
        metrics, shares = layers.layer_metrics(
            tracer, result.elapsed, len(tracer.txn_spans), before, after,
            read_service_us=125.0, pages_per_block=32,
        )
    finally:
        tracer.remove()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert len(tracer.txn_spans) == 40
    assert sum(shares[layer] for layer in shares if layer.startswith("db.")) > 0.3
    assert metrics["db.btree.searches_per_txn"] > 0
    assert metrics["core.region.group_writes_share"] == 1.0


def test_percentiles() -> None:
    assert percentile([], 0.99) == 0.0
    assert percentile([float(i) for i in range(1, 101)], 0.99) == 99.0
    assert layers.wall_tail([1.0] * 5) == (50.0, 1.0)
    assert layers.wall_tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


def test_benchmark_json_declares_exactly_the_printed_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flash_hotcold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
