"""The benchmark's three workloads: one op each, its inputs and its checks.

Every op is a closed-loop call into the public scenario API with a
scenario seed derived from ``(workload, workload seed, op index)``; the
program sees only those generated inputs.  Program entry points are
looked up through their modules at call time, so the traced run's
wrappers (see ``tracing.py``) are seen by every op.

Importing this module imports ``repro`` and therefore ``numpy``: pin
the BLAS threads before importing it (``run.py`` does).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import repro.analysis.experiments as experiments
import repro.scenario.runner as runner
from repro.constants import CORRELATION_DECISION_THRESHOLD
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.synthesis import SynthesisConfig

#: Simulated length of every scenario [s].
DURATION_S = 400.0

#: Scenario seeds are drawn from [1, SEED_SPACE): ``run_correlation_table``
#: derives further seeds as ``seed * 100 + speed`` and ``seed + 999``.
SEED_SPACE = 2**20


def op_seed(workload: str, seed: int, index: int) -> int:
    """Scenario seed of op ``index`` of ``workload`` under workload ``seed``."""
    text = f"sidbench:{workload}:{seed}:{index}".encode()
    return 1 + int.from_bytes(hashlib.sha256(text).digest()[:8], "big") % (
        SEED_SPACE - 1
    )


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``run`` maps a scenario seed to the program's result; ``digest``
    fingerprints that result bit-exactly; ``decisions`` scores it
    against ground truth as ``(correct, total)``; ``check`` returns the
    output-invariant violations (empty when the result is well formed).
    """

    name: str
    node_seconds: float
    run: Callable[[int], Any]
    digest: Callable[[Any], str]
    decisions: Callable[[Any], tuple[int, int]]
    check: Callable[[Any], list[str]]


# ----------------------------------------------------------------------
# Network workloads
# ----------------------------------------------------------------------
def _network_invariants(result: Any) -> list[str]:
    problems = []
    for key, value in result.mac_stats.items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"mac_stats[{key!r}] = {value!r}")
    if result.sink_frames < 0:
        problems.append(f"sink_frames = {result.sink_frames}")
    if len(result.decisions) > result.sink_frames:
        problems.append(
            f"{len(result.decisions)} sink decisions from "
            f"{result.sink_frames} frames"
        )
    return problems


def _run_quiet(seed: int) -> Any:
    return runner.run_network_scenario(
        GridDeployment(8, 8, seed=17),
        [],
        sid_config=SIDNodeConfig(detector=NodeDetectorConfig(hop_s=0.2)),
        synthesis_config=SynthesisConfig(
            duration_s=DURATION_S, synthesis_method="spectral"
        ),
        seed=seed,
    )


def _check_quiet(result: Any) -> list[str]:
    problems = _network_invariants(result)
    if result.fault_stats:
        problems.append("fault counters on an unfaulted, unhealed run")
    return problems


#: The chaos plan: the chokepoint forwarder (18 of 30 nodes route
#: through node 8) crash-reboots four times while three ships cross.
CHAOS_CROSS_TIMES_S = (100.0, 200.0, 300.0)
CHAOS_CRASHES = 4


def _chaos_plan() -> FaultPlan:
    return FaultPlan.rolling_crashes(
        [8] * CHAOS_CRASHES, first_at_s=70.0, interval_s=80.0, downtime_s=70.0
    )


def _run_chaos(seed: int) -> Any:
    dep = paper_deployment(seed=seed)
    return runner.run_network_scenario(
        dep,
        [paper_ship(dep, cross_time_s=t) for t in CHAOS_CROSS_TIMES_S],
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4, hop_s=0.2),
            cluster=TemporaryClusterConfig(min_rows=3),
        ),
        synthesis_config=SynthesisConfig(duration_s=DURATION_S),
        faults=_chaos_plan(),
        healing=SelfHealingConfig(),
        seed=seed,
    )


def _check_chaos(result: Any) -> list[str]:
    problems = _network_invariants(result)
    # Every planned reboot cold-restarts node 8's baseline.
    restarts = result.fault_stats.get("cold_restarts")
    if restarts != CHAOS_CRASHES:
        problems.append(
            f"cold_restarts = {restarts!r}, plan reboots {CHAOS_CRASHES} times"
        )
    return problems


def _one_decision(expect_intrusion: bool) -> Callable[[Any], tuple[int, int]]:
    def score(result: Any) -> tuple[int, int]:
        return int(result.intrusion_detected == expect_intrusion), 1

    return score


# ----------------------------------------------------------------------
# Offline correlation tables
# ----------------------------------------------------------------------
TABLE_M = (1.0, 2.0, 3.0)
TABLE_ROWS = (4, 5, 6)


def _run_tables(seed: int) -> tuple[list[list[float]], list[list[float]]]:
    no_ship = experiments.run_correlation_table(
        False, TABLE_M, TABLE_ROWS, (seed,)
    )
    ship = experiments.run_correlation_table(True, TABLE_M, TABLE_ROWS, (seed,))
    return no_ship, ship


def _score_tables(result: Any) -> tuple[int, int]:
    no_ship, ship = result
    correct = sum(
        c < CORRELATION_DECISION_THRESHOLD for row in no_ship for c in row
    ) + sum(c >= CORRELATION_DECISION_THRESHOLD for row in ship for c in row)
    return int(correct), 2 * len(TABLE_M) * len(TABLE_ROWS)


def _check_tables(result: Any) -> list[str]:
    problems = []
    for label, matrix in zip(("table I", "table II"), result):
        if len(matrix) != len(TABLE_M) or any(
            len(row) != len(TABLE_ROWS) for row in matrix
        ):
            problems.append(f"{label} is not {len(TABLE_M)}x{len(TABLE_ROWS)}")
            continue
        for row in matrix:
            for c in row:
                if not (math.isfinite(c) and -1.0 <= c <= 1.0):
                    problems.append(f"{label} holds C = {c!r}")
    return problems


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="quiet-64",
            node_seconds=64 * DURATION_S,
            run=_run_quiet,
            digest=scenario_digest,
            decisions=_one_decision(False),
            check=_check_quiet,
        ),
        Workload(
            name="chaos-heal-30",
            node_seconds=30 * DURATION_S,
            run=_run_chaos,
            digest=scenario_digest,
            decisions=_one_decision(True),
            check=_check_chaos,
        ),
        Workload(
            name="paper-tables",
            node_seconds=9 * 30 * DURATION_S,
            run=_run_tables,
            digest=scenario_digest,
            decisions=_score_tables,
            check=_check_tables,
        ),
    )
}
