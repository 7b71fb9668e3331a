"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest sidbench -q``
(about a minute; the smoke runs execute real ops).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def self_times(
    spans: list[tuple[int, str, float, float, int | None]],
) -> dict[str, float]:
    """Self time per name from explicit ``(id, name, start, end, parent_id)``.

    The reference arithmetic the recorder's running totals must match:
    a span's length minus the union of its children's intervals,
    clipped to its own.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for s, e in sorted(children[span_id]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start) - covered
    return dict(out)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)
        wrapped_leaf()

    def outer():
        clock.advance(3.0)
        wrapped_middle()
        wrapped_leaf()
        clock.advance(0.25)

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_middle = rec.wrap("middle", middle)
    wrapped_outer = rec.wrap("outer", outer)

    rec.begin_op(7)
    wrapped_outer()
    totals = rec.end_op()

    # outer: 3 + middle(1 + 2 + 0.5 + 2) + leaf 2 + 0.25 = 10.75
    assert totals["outer"] == (10.75, 3.25, 1)
    assert totals["middle"] == (5.5, 1.5, 1)
    assert totals["leaf"] == (6.0, 6.0, 3)
    # The running totals agree with the interval arithmetic on the
    # recorded spans.
    assert self_times([s[1:] for s in rec.spans]) == {
        "outer": 3.25,
        "middle": 1.5,
        "leaf": 6.0,
    }
    assert {s[0] for s in rec.spans} == {7}


def test_self_times_clips_overlapping_children():
    spans = [
        (1, "p", 0.0, 10.0, None),
        (2, "a", 1.0, 4.0, 1),
        (3, "b", 3.0, 6.0, 1),  # overlaps a: union is [1, 6]
        (4, "c", 9.0, 12.0, 1),  # clipped to [9, 10]
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_hot_spans_are_aggregated_and_still_child_time():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    hot_name = "sensors.battery.draw"
    assert hot_name in tracing.HOT
    draw = rec.wrap(hot_name, lambda: clock.advance(0.5))

    def parent():
        for _ in range(4):
            draw()

    rec.begin_op(0)
    rec.wrap("parent", parent)()
    totals = rec.end_op()
    assert totals["parent"] == (2.0, 0.0, 1)
    assert [s[2] for s in rec.spans] == ["parent"]
    assert rec.hot == [(0, hot_name, 2.0, 2.0, 4)]


def test_wrapper_restores_patched_entry_points():
    originals = [
        owner.__dict__[attr] for owner, attr, _ in tracing.layer_patches()
    ]
    with tracing.traced(tracing.SpanRecorder()):
        patched = [
            owner.__dict__[attr] for owner, attr, _ in tracing.layer_patches()
        ]
    restored = [
        owner.__dict__[attr] for owner, attr, _ in tracing.layer_patches()
    ]
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(r is o for r, o in zip(restored, originals))


# ----------------------------------------------------------------------
# Inputs and summaries
# ----------------------------------------------------------------------
def test_op_seed_is_deterministic_and_spread():
    a = workloads.op_seed("quiet-64", 3, 5)
    assert a == workloads.op_seed("quiet-64", 3, 5)
    others = {
        workloads.op_seed("quiet-64", 3, 6),
        workloads.op_seed("quiet-64", 4, 5),
        workloads.op_seed("chaos-heal-30", 3, 5),
    }
    assert a not in others and len(others) == 3
    seeds = [workloads.op_seed("paper-tables", 0, i) for i in range(1000)]
    assert all(1 <= s < workloads.SEED_SPACE for s in seeds)
    assert len(set(seeds)) > 990


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    p, value, beyond = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value, beyond) == (90.0, 90.0, 10)
    p, _, beyond = run.tail_percentile([float(i) for i in range(1000)])
    assert (p, beyond) == (99.0, 10)


def test_registry_matches_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    layer_names = set(
        tracing.op_layer_metrics(
            tracing.SpanRecorder(), {}, object()
        )
    ) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


# ----------------------------------------------------------------------
# Output checks on real ops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_pinned_op_passes_and_corruption_is_caught(name):
    pins = run.load_pins()
    workload = workloads.WORKLOADS[name]
    rec, result = run.run_op(workload, pins["seed"], 0, pins)
    assert rec.problems == []
    assert rec.digest == pins[name][0]
    assert rec.decisions_ok == rec.decisions > 0

    wrong = {**pins, name: ["0" * 64]}
    bad, _ = run.run_op(workload, pins["seed"], 0, wrong)
    assert any("pinned" in p for p in bad.problems)

    if name == "paper-tables":
        no_ship, ship = result
        broken = (no_ship, ship[:-1])
    elif name == "chaos-heal-30":
        broken = dataclasses.replace(
            result, fault_stats={**result.fault_stats, "cold_restarts": 3}
        )
    else:
        broken = dataclasses.replace(result, fault_stats={"reroutes": 1})
    assert workload.check(broken)


def test_raising_op_is_counted_not_raised():
    def boom(_seed):
        raise ValueError("no sea today")

    workload = dataclasses.replace(workloads.WORKLOADS["quiet-64"], run=boom)
    rec, result = run.run_op(workload, 0, 0, {})
    assert result is None and rec.failed
    assert "ValueError" in rec.problems[0]


# ----------------------------------------------------------------------
# The command itself
# ----------------------------------------------------------------------
def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "sidbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    proc = _bench("--workload", "quiet-64", "--seed", "5", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in summary["metrics"].values())
    else:
        layer = {k: v["value"] for k, v in summary["metrics"].items()}
        assert layer["scenario.fleet_precompute_frac"] == pytest.approx(1.0)
        assert layer["scenario.elision_frac"] == pytest.approx(1.0)
        assert layer["detection.node_detector.windows"] == 0


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "sidbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "quiet-64", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
