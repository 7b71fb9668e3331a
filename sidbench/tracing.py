"""Layer spans for the traced run, recorded from outside the program.

``SpanRecorder`` wraps callables.  Each call is a span: an id, name,
start, end, the id of the enclosing span and the op it belongs to.  A span's
self time is its duration minus the durations of its direct children,
which for properly nested single-threaded spans equals the duration
minus the part of its interval that child spans cover.  Spans stay in
memory and are written out once, when the run ends.  Calls made
hundreds of thousands of times per op (``HOT``) are only aggregated,
so that memory stays flat; their time still counts as child time of
the enclosing span.

``layer_patches()`` lists the wrapped entry points, each patched where
its caller looks it up: methods on their class, module functions in
the namespace of the module that calls them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Span names aggregated per op instead of kept one record per call.
HOT = frozenset({"sensors.battery.draw", "detection.node_detector"})


class SpanRecorder:
    """Span stack plus per-op totals; ``clock`` is injectable for tests.

    ``spans`` holds ``(op, span_id, name, start, end, parent_id)`` for
    every non-hot call; ``hot`` holds one ``(op, name, total_s, self_s,
    calls)`` aggregate per hot name and op.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.op = -1
        self.spans: list[tuple[int, int, str, float, float, int | None]] = []
        self.hot: list[tuple[int, str, float, float, int]] = []
        self.hooks: dict[str, Callable[[tuple, Any], None]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        #: Distinct cluster reports sent sinkward / received by the sink
        #: in the current op, keyed by ``id`` (the values keep them alive).
        self.reports_sent: dict[int, Any] = {}
        self.reports_received: dict[int, Any] = {}
        self._stack: list[list[Any]] = []
        self._totals: dict[str, list[Any]] = defaultdict(lambda: [0.0, 0.0, 0])
        self._ids = 0

    def begin_op(self, op: int) -> None:
        """Start collecting totals for op ``op``."""
        self.op = op
        self._totals.clear()
        self.counters.clear()
        self.reports_sent.clear()
        self.reports_received.clear()

    def end_op(self) -> dict[str, tuple[float, float, int]]:
        """Per-name ``(total_s, self_s, calls)`` of the op just finished."""
        totals = {k: (v[0], v[1], v[2]) for k, v in self._totals.items()}
        for name in sorted(HOT & totals.keys()):
            self.hot.append((self.op, name, *totals[name]))
        return totals

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` (then its hook, if any)."""
        recorder = self
        stack = self._stack
        totals = self._totals
        clock = self.clock
        keep = name not in HOT
        spans = self.spans
        hooks = self.hooks

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            recorder._ids += 1
            frame = [0.0, recorder._ids]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc = totals[name]
                acc[0] += duration
                acc[1] += duration - frame[0]
                acc[2] += 1
                if parent is not None:
                    parent[0] += duration
                if keep:
                    spans.append((
                        recorder.op, frame[1], name, start, end,
                        parent[1] if parent is not None else None,
                    ))
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header, every span and every hot aggregate as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for op, span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "op": op, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
            for op, name, total, own, calls in self.hot:
                out.write(json.dumps({
                    "op": op, "name": name, "total_s": total,
                    "self_s": own, "calls": calls,
                }) + "\n")


# ----------------------------------------------------------------------
# The entry points the traced run wraps
# ----------------------------------------------------------------------
def layer_patches() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.analysis.experiments as experiments
    import repro.detection.cluster as cluster
    import repro.scenario.runner as runner
    from repro.detection.fleet import FleetDetector
    from repro.detection.node_detector import NodeDetector
    from repro.detection.sink import Sink
    from repro.network.nodeproc import NetworkNode, SensorNetwork
    from repro.network.simulator import Simulator
    from repro.physics.buoy import Buoy
    from repro.physics.wake_train import WakeTrain
    from repro.physics.wavefield import AmbientWaveField
    from repro.sensors.accelerometer import Accelerometer
    from repro.sensors.battery import Battery

    return [
        # scenario / analysis entry points
        (runner, "run_network_scenario", "scenario.runner"),
        (experiments, "run_correlation_table", "analysis.table"),
        (runner, "synthesize_fleet_traces", "scenario.synthesis"),
        (runner, "fuse_sequential_clusters", "scenario.fusion"),
        # physics + sensors (synthesis children)
        (Buoy, "specific_force", "physics.buoy"),
        (AmbientWaveField, "vertical_acceleration_batch", "physics.wavefield"),
        (WakeTrain, "vertical_acceleration", "physics.wake"),
        (Accelerometer, "read_axis", "sensors.accelerometer"),
        (Battery, "draw", "sensors.battery.draw"),
        # detection
        (runner, "preprocess_z_counts_batch", "detection.preprocess"),
        (runner, "preprocess_z_counts", "detection.preprocess"),
        (NodeDetector, "process_window", "detection.node_detector"),
        (FleetDetector, "step", "detection.fleet"),
        (experiments, "cluster_correlation", "detection.correlation"),
        (cluster, "cluster_correlation", "detection.correlation"),
        # network
        (Simulator, "run", "network.simulator"),
        (NetworkNode, "catch_up_quiet_windows", "network.nodeproc.catch_up"),
        (SensorNetwork, "send_to_sink", "network.send_to_sink"),
        (Sink, "receive", "detection.sink"),
    ]


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the layer wrappers for the duration of the block."""
    from repro.network.messages import ClusterReportMsg

    def report_sent(args: tuple, _result: Any) -> None:
        payload = args[2] if len(args) > 2 else None
        if isinstance(payload, ClusterReportMsg):
            recorder.reports_sent[id(payload.report)] = payload.report

    def report_received(args: tuple, _result: Any) -> None:
        recorder.reports_received[id(args[1])] = args[1]

    def simulator_stats(args: tuple, _result: Any) -> None:
        stats = args[0].stats()
        recorder.counters["events"] += stats["events_executed"]
        recorder.counters["peak_queue_depth"] = max(
            recorder.counters["peak_queue_depth"], stats["peak_queue_depth"]
        )

    hooks = {
        "network.simulator": simulator_stats,
        "network.send_to_sink": report_sent,
        "detection.sink": report_received,
    }
    recorder.hooks.update(hooks)
    originals = []
    try:
        for owner, attr, name in layer_patches():
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        for name in hooks:
            recorder.hooks.pop(name, None)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced op
# ----------------------------------------------------------------------
def _total(t: dict[str, tuple[float, float, int]], name: str) -> float:
    return t.get(name, (0.0, 0.0, 0))[0]


def _self(t: dict[str, tuple[float, float, int]], name: str) -> float:
    return t.get(name, (0.0, 0.0, 0))[1]


def _calls(t: dict[str, tuple[float, float, int]], name: str) -> int:
    return t.get(name, (0.0, 0.0, 0))[2]


def op_layer_metrics(
    recorder: SpanRecorder,
    totals: dict[str, tuple[float, float, int]],
    result: Any,
) -> dict[str, float | None]:
    """Per-layer metrics of one op from its span totals and its result.

    Network counters come from the op's ``NetworkScenarioResult``; an
    op without a network run (the offline tables) reports them as 0.
    ``None`` marks a ratio with nothing to divide (no network run, or
    no cluster report sent sinkward); callers aggregate over the ops
    where it is defined.
    """
    counters = recorder.counters
    network = hasattr(result, "mac_stats")
    mac = result.mac_stats if network else {}
    faults = result.fault_stats if network else {}
    sent = len(recorder.reports_sent)
    sim_s = _total(totals, "network.simulator")
    events = counters.get("events", 0.0)
    return {
        "physics.buoy.s": _total(totals, "physics.buoy"),
        "physics.wavefield.s": _total(totals, "physics.wavefield"),
        "physics.wake.s": _total(totals, "physics.wake"),
        "sensors.accelerometer.s": _total(totals, "sensors.accelerometer"),
        "scenario.synthesis.self_s": _self(totals, "scenario.synthesis"),
        "scenario.synthesis.calls": _calls(totals, "scenario.synthesis"),
        "detection.node_detector.s": _total(totals, "detection.node_detector"),
        "detection.node_detector.windows": _calls(
            totals, "detection.node_detector"
        ),
        "detection.fleet.s": _total(totals, "detection.fleet"),
        "detection.fleet.steps": _calls(totals, "detection.fleet"),
        "detection.preprocess.s": _total(totals, "detection.preprocess"),
        "network.simulator.self_s": _self(totals, "network.simulator"),
        "network.simulator.events": events,
        "network.simulator.events_per_s": events / sim_s if sim_s > 0 else 0.0,
        "network.simulator.peak_queue_depth": counters.get(
            "peak_queue_depth", 0.0
        ),
        "scenario.runner.self_s": _self(totals, "scenario.runner"),
        "sensors.battery.draws": _calls(totals, "sensors.battery.draw"),
        "sensors.battery.s": _total(totals, "sensors.battery.draw"),
        "network.nodeproc.catch_up_calls": _calls(
            totals, "network.nodeproc.catch_up"
        ),
        "network.mac.transmissions": mac.get("transmissions", 0),
        "network.mac.retries": mac.get("retries", 0),
        "network.mac.collisions": mac.get("collisions", 0),
        "network.sink_delivery_ratio": (
            len(recorder.reports_received.keys() & recorder.reports_sent.keys())
            / sent
            if sent
            else None
        ),
        "network.selfheal.reroutes": faults.get("reroutes", 0),
        "network.selfheal.hop_retransmits": faults.get("hop_retransmits", 0),
        "network.selfheal.cold_restarts": faults.get("cold_restarts", 0),
        "scenario.fusion.s": _total(totals, "scenario.fusion"),
        "detection.correlation.s": _total(totals, "detection.correlation"),
        "analysis.table.self_s": _self(totals, "analysis.table"),
        # 1/0 per network op, None on other ops: the caller averages
        # them over network ops only.
        "scenario.fleet_precompute_frac": (
            float(_calls(totals, "detection.fleet") > 0) if network else None
        ),
        "scenario.elision_frac": (
            float(_calls(totals, "network.nodeproc.catch_up") > 0)
            if network
            else None
        ),
    }
