#!/usr/bin/env python3
"""SID benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Usage (from the repository root)::

    python3 sidbench/run.py                      # all workloads, one process each
    python3 sidbench/run.py --workload quiet-64 --seed 3 --seconds 20 --trace 0
    python3 sidbench/run.py --workload paper-tables --trace 1

Each workload is a closed loop: one op at a time, op ``i`` with the
scenario seed ``workloads.op_seed(workload, seed, i)``.  Set-up (start
of this script through one untimed warm-up op) is measured in this
process and in ``SETUP_PROBES`` fresh processes and reported as their
median.  ``--trace 0`` then times ops for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` times untraced ops for
half the time, replays the same ops with every layer wrapped, and
reports the per-layer metrics.  Every op's output is checked; the last
line of standard output is one JSON object, and the exit code is 0
only when every check passed.  See README.md for the workloads and
what each metric is expected to move.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = ROOT / ".sidbench"
WORKLOAD_NAMES = ("quiet-64", "chaos-heal-30", "paper-tables")

#: The seed whose op digests ``pins.json`` records; its op 0 is also
#: every run's warm-up op, so each run checks at least one pinned digest.
DEFAULT_SEED = 0
#: Extra fresh processes that repeat the set-up, for a median.
SETUP_PROBES = 2
#: Fewest timed ops per phase, however short ``--seconds`` is.
MIN_OPS = 3
#: Seconds one child process may take before it counts as failed.
CHILD_TIMEOUT_S = 170

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Program knobs read from the environment that would change the load.
CLEARED_VARS = (
    "REPRO_SWEEP_WORKERS",
    "REPRO_CHAOS_SCALE",
    "REPRO_CHAOS_TRACE",
    "REPRO_SANITIZE_REPORT",
)

#: glibc ``mallopt`` parameters and the values they are pinned to.
#: Left dynamic, glibc raises its mmap threshold whenever a large block
#: is freed, so the heap's shape and peak size depend on which op freed
#: one first; peak memory then jumps by ~7% between runs.  With blocks
#: over 4 MiB always mmapped and the heap top never trimmed below
#: 64 MiB, peak memory repeats and op times are unchanged.
MALLOPT = {-3: 4 << 20, -1: 64 << 20}  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("op_s", "s"),
    ("node_sim_s_per_s", "node-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
#: End-to-end figures printed and filed with every run but left out of
#: the JSON summary: ``ops_failed_frac`` is 0 whenever a run passes, and
#: ``decision_ok_frac`` is a share of ~20 decisions per run on
#: chaos-heal-30, whose binomial spread alone exceeds any usable bound.
REPORTED_ONLY = (("ops_failed_frac", "frac"), ("decision_ok_frac", "frac"))


def prepare_environment() -> str:
    """Pin BLAS threads and malloc thresholds, clear load-changing knobs.

    Must run before ``numpy`` is imported.  Returns how the allocator
    was pinned, for the environment stamp.  Exits non-zero when the
    program's source is missing.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in CLEARED_VARS:
        os.environ.pop(var, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"sidbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "default (no glibc)"
    if all(mallopt(param, value) == 1 for param, value in MALLOPT.items()):
        return "glibc mmap_threshold=4MiB trim_threshold=64MiB"
    return "default (mallopt refused)"


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def environment_stamp(seed: int, allocator: str) -> dict[str, Any]:
    """Commit, versions, CPU and settings to file with every result."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "allocator": allocator,
        "workload_seed": seed,
    }


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
@dataclass
class OpRecord:
    """One executed op: its timing, fingerprint and check outcome."""

    index: int
    scenario_seed: int
    wall_s: float
    digest: str | None = None
    decisions_ok: int = 0
    decisions: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def load_pins() -> dict[str, Any]:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def run_op(workload: Any, seed: int, index: int, pins: dict[str, Any]):
    """Run, time and check one op; returns ``(OpRecord, result)``.

    Only the program call is timed, and it starts on a collected heap.
    An exception is recorded as the
    op's failure rather than raised: this is the boundary that keeps
    the closed loop going.
    """
    from workloads import op_seed

    scenario_seed = op_seed(workload.name, seed, index)
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.run(scenario_seed)
    except Exception as exc:  # noqa: BLE001 - counted, reported below
        wall = time.perf_counter() - start
        return (
            OpRecord(index, scenario_seed, wall,
                     problems=[f"raised {type(exc).__name__}: {exc}"]),
            None,
        )
    wall = time.perf_counter() - start
    rec = OpRecord(index, scenario_seed, wall, digest=workload.digest(result))
    rec.decisions_ok, rec.decisions = workload.decisions(result)
    rec.problems.extend(workload.check(result))
    pinned = pins.get(workload.name, [])
    if seed == pins.get("seed") and index < len(pinned):
        if rec.digest != pinned[index]:
            rec.problems.append(
                f"digest {rec.digest[:16]} != pinned {pinned[index][:16]}"
            )
    return rec, result


def timed_ops(workload: Any, seed: int, seconds: float, pins: dict) -> list[OpRecord]:
    """Closed loop: ops 0, 1, ... until ``seconds`` have passed."""
    records = []
    began = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - began < seconds:
        records.append(run_op(workload, seed, len(records), pins)[0])
    return records


def same_digest(rec: OpRecord, reference: OpRecord, what: str) -> None:
    """Record a problem on ``rec`` if it does not reproduce ``reference``."""
    if reference.digest is not None and rec.digest != reference.digest:
        rec.problems.append(
            f"{what}: digest {str(rec.digest)[:16]} != {reference.digest[:16]}"
        )


def tail_percentile(walls: list[float]) -> tuple[float, float, int] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it.

    Returns ``(percentile, value, samples beyond)`` by nearest rank, or
    None when fewer than 20 samples exist.
    """
    ordered = sorted(walls)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def warm_up(workload: Any, pins: dict) -> tuple[OpRecord, float]:
    """The untimed warm-up op (pinned seed, op 0) and the set-up time.

    Set-up runs from the start of this script, before ``repro`` is
    imported, through the warm-up op, so lazy caches are filled.
    """
    rec, _ = run_op(workload, pins.get("seed", DEFAULT_SEED), 0, pins)
    return rec, time.perf_counter() - _PROCESS_T0


def probe_setup(name: str) -> tuple[float | None, str | None]:
    """Repeat the set-up in a fresh process: ``(setup_s, problem)``."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        return None, f"set-up probe failed: {type(exc).__name__}: {exc}"
    if proc.returncode != 0 or probe.get("problems"):
        return None, f"set-up probe failed: {probe.get('problems')}"
    return float(probe["setup_s"]), None


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, allocator: str
) -> int:
    import workloads

    pins = load_pins()
    workload = workloads.WORKLOADS[name]
    warm, own_setup = warm_up(workload, pins)
    env = environment_stamp(seed, allocator)
    print("env " + json.dumps(env, sort_keys=True))
    checked = [warm]

    reported: dict[str, float] = {}
    if trace:
        metrics, ops = _traced_run(workload, seed, seconds, pins, env)
    else:
        setups = [own_setup]
        for _ in range(SETUP_PROBES):
            value, problem = probe_setup(name)
            if problem is not None:
                warm.problems.append(problem)
            else:
                setups.append(value)
        ops = timed_ops(workload, seed, seconds, pins)
        rerun, _ = run_op(workload, seed, 0, pins)
        same_digest(rerun, ops[0], "re-run of op 0")
        checked.append(rerun)
        metrics = _end_to_end(workload, ops, statistics.median(setups))
        decisions = sum(rec.decisions for rec in ops)
        reported["decision_ok_frac"] = (
            sum(rec.decisions_ok for rec in ops) / decisions if decisions else 0.0
        )
    checked.extend(ops)

    failed = sum(rec.failed for rec in checked)
    reported["ops_failed_frac"] = failed / len(checked)
    for rec in checked:
        for problem in rec.problems:
            print(f"FAILED {name} op {rec.index} (seed {rec.scenario_seed}): "
                  f"{problem}")
    print(f"{name}: {failed} of {len(checked)} ops failed")
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    for key, unit in REPORTED_ONLY:
        if key in reported:
            print(f"{name}: {key} = {reported[key]:.6g} {unit} (not in summary)")
    summary = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, **summary, "reported": reported,
                    "ops": [asdict(r) for r in checked]}, indent=1)
    )
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def _end_to_end(workload: Any, ops: list[OpRecord], setup_s: float) -> dict:
    walls = [rec.wall_s for rec in ops]
    completed = [rec for rec in ops if rec.digest is not None]
    tail = tail_percentile(walls)
    if tail is None:
        print(f"{workload.name}: op_s tail: n={len(walls)}, "
              "too few ops for a percentile with 10 samples beyond it")
    else:
        p, value, beyond = tail
        print(f"{workload.name}: op_s p{p:g} = {value:.4f} s "
              f"({beyond} of {len(walls)} samples beyond)")
    values = {
        "op_s": statistics.median(walls),
        "node_sim_s_per_s": len(completed) * workload.node_seconds / sum(walls),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def _traced_run(workload: Any, seed: int, seconds: float, pins: dict,
                env: dict) -> tuple[dict, list[OpRecord]]:
    from tracing import SpanRecorder, op_layer_metrics, traced
    from workloads import op_seed

    plain = timed_ops(workload, seed, seconds / 2.0, pins)
    recorder = SpanRecorder()
    layers: list[dict[str, float | None]] = []
    replayed = []
    with traced(recorder):
        for reference in plain:
            recorder.begin_op(reference.index)
            rec, result = run_op(workload, seed, reference.index, pins)
            totals = recorder.end_op()
            same_digest(rec, reference, "traced replay")
            replayed.append(rec)
            if result is not None:
                layers.append(op_layer_metrics(recorder, totals, result))
    recorder.write(
        OUT / f"{workload.name}-seed{seed}.spans.jsonl",
        {"env": env, "workload": workload.name,
         "ops": {r.index: op_seed(workload.name, seed, r.index) for r in plain}},
    )
    metrics: dict[str, dict[str, Any]] = {}
    for key in layers[0] if layers else ():
        values = [m[key] for m in layers if m[key] is not None]
        if not values:
            value = 0.0
        elif key.endswith("_frac"):
            value = statistics.fmean(values)
        else:
            value = statistics.median(values)
        metrics[key] = {"value": value, "unit": _layer_unit(key)}
    overhead = (
        statistics.median(r.wall_s for r in replayed)
        / statistics.median(r.wall_s for r in plain)
        - 1.0
    )
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics, plain + replayed


def _layer_unit(key: str) -> str:
    if key.endswith(".s") or key.endswith("self_s"):
        return "s"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_frac") or key.endswith("_ratio"):
        return "frac"
    return "count"


# ----------------------------------------------------------------------
# All workloads, one process each
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S + 2 * seconds,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out")
            status = 1
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            rows.append((name, json.loads(lines[-1])))
    print()
    for name, summary in rows:
        metrics = " ".join(
            f"{k}={m['value']:.4g}{m['unit']}"
            for k, m in summary["metrics"].items()
        )
        print(f"{name:14s} failed={summary['failed']}/{summary['attempted']} "
              f"{metrics}")
    return status


def record_pins(names: list[str], count: int) -> int:
    """Re-record the digests of ops 0..count-1 under DEFAULT_SEED."""
    import workloads

    pins = load_pins()
    pins["seed"] = DEFAULT_SEED
    for name in names:
        workload = workloads.WORKLOADS[name]
        pins[name] = [
            run_op(workload, DEFAULT_SEED, i, {})[0].digest for i in range(count)
        ]
        print(f"{name}: pinned {count} digests")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (internal)")
    parser.add_argument("--record-pins", type=int, metavar="N",
                        help="re-pin the digests of the first N ops")
    args = parser.parse_args(argv)
    allocator = prepare_environment()
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    if args.record_pins:
        return record_pins(names, args.record_pins)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        import workloads

        rec, setup_s = warm_up(workloads.WORKLOADS[args.workload], load_pins())
        print(json.dumps({"setup_s": setup_s, "problems": rec.problems}))
        return 0 if not rec.failed else 1
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), allocator
    )


if __name__ == "__main__":
    sys.exit(main())
