"""Light-weight checks of the experiment drivers.

The heavy Monte-Carlo shape assertions live in ``benchmarks/``; here we
verify the drivers run, return well-formed records and respect their
parameters, using the smallest viable configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    Fig11Point,
    run_correlation_table,
    run_fig5_ocean_waves,
    run_fig6_stft_comparison,
    run_fig7_wavelet,
    run_fig8_filtering,
    run_fig11_detection_ratio,
    run_fig12_speed_estimation,
    run_threshold_ablation,
)
from repro.detection.correlation import cluster_correlation, majority_side
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.reports import RowObservation
from repro.parallel import SweepConfig, SweepRunner
from repro.scenario.metrics import classify_alarms
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.runner import run_offline_scenario
from repro.scenario.synthesis import SynthesisConfig, random_disturbances


def test_fig5_driver():
    trace, summary = run_fig5_ocean_waves(duration_s=60.0, seed=1)
    assert len(trace) == 3000
    assert set(summary) == {"x", "y", "z"}
    assert summary["z"].mean > 800


def test_fig6_driver():
    cmp = run_fig6_stft_comparison(seed=2)
    assert cmp.frequencies_hz[0] >= 0.1
    assert cmp.frequencies_hz[-1] <= 5.0
    assert cmp.ship_features.total_power > cmp.ambient_features.total_power


def test_fig7_driver():
    scalogram, summary = run_fig7_wavelet(seed=3)
    assert 0.0 <= summary["wake_low_freq_fraction"] <= 1.0
    assert scalogram.power.shape[0] == 40


def test_fig8_driver():
    result = run_fig8_filtering(seed=4)
    assert result["filtered_above_1hz"] < result["raw_above_1hz"]
    assert result["raw_rms"] > 0


def test_fig11_point_ratio():
    p = Fig11Point(m=2.0, af=0.5, true_positives=3, false_positives=1)
    assert p.ratio == 0.75
    assert Fig11Point(2.0, 0.5, 0, 0).ratio == 0.0


def test_fig11_driver_minimal():
    points = run_fig11_detection_ratio(
        m_values=(2.0,), af_values=(0.5,), seeds=(1,)
    )
    assert len(points) == 1
    assert points[0].true_positives + points[0].false_positives >= 0


def test_correlation_table_shape():
    matrix = run_correlation_table(
        True, m_values=(2.0,), row_counts=(4, 6), seeds=(1,),
        speeds_knots=(10.0,),
    )
    assert len(matrix) == 1
    assert len(matrix[0]) == 2
    # More required rows can only lower the product.
    assert matrix[0][1] <= matrix[0][0] + 1e-9


def test_fig12_driver_minimal():
    rows = run_fig12_speed_estimation(
        speeds_knots=(10.0,), alphas_deg=(55.0,), seeds=(1,)
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.min_knots <= row.max_knots
    assert len(row.estimates_knots) >= 1


def test_threshold_ablation_driver():
    result = run_threshold_ablation(seeds=(1,))
    assert set(result) == {
        "adaptive_false_per_node_hour",
        "fixed_false_per_node_hour",
    }
    assert result["fixed_false_per_node_hour"] >= 0


def test_report_generator_quick(tmp_path):
    """The report CLI runs end to end and covers every experiment."""
    import io

    from repro.analysis.report import generate_report

    buffer = io.StringIO()
    generate_report(buffer, quick=True)
    text = buffer.getvalue()
    for marker in (
        "Fig. 5",
        "Fig. 6",
        "Fig. 7",
        "Fig. 8",
        "Fig. 11",
        "Table I",
        "Table II",
        "Fig. 12",
    ):
        assert marker in text


def test_report_cli_writes_file(tmp_path):
    from repro.analysis.report import main

    out = tmp_path / "report.txt"
    assert main(["--quick", "-o", str(out)]) == 0
    assert "Fig. 12" in out.read_text()


def test_correlation_components_driver():
    from repro.analysis.experiments import run_correlation_components

    result = run_correlation_components(True, seeds=(1,))
    assert set(result) == {"time_only", "energy_only", "combined"}
    assert 0.0 <= result["combined"] <= 1.0
    # Eq. 13: the combined coefficient is a product of the factors, so
    # averaged over trials it cannot exceed either single factor.
    assert result["combined"] <= result["time_only"] + 1e-9
    assert result["combined"] <= result["energy_only"] + 1e-9


def test_cluster_size_ablation_driver():
    from repro.analysis.experiments import run_cluster_size_ablation

    rows = run_cluster_size_ablation(row_counts=(2, 4), seeds=(1,))
    assert [r["rows"] for r in rows] == [2, 4]
    for r in rows:
        assert set(r) >= {"rows", "mean_C_ship", "mean_C_noship", "margin"}
        assert r["margin"] == pytest.approx(
            r["mean_C_ship"] - r["mean_C_noship"]
        )


# ----------------------------------------------------------------------
# Sweeps synthesise once per trace-determining input
# ----------------------------------------------------------------------
def _oracle_correlations(with_ship, m, seed, speed, row_counts):
    """One Table I/II trial the slow way: a full offline run for this M.

    Returns ``(CNt, CNe, C)`` per row count.
    """
    dep = paper_deployment(seed=seed)
    ship = paper_ship(dep, speed_knots=speed)
    track = ship.travel_line()
    synth = SynthesisConfig(duration_s=400.0)
    nuisances = None if with_ship else random_disturbances(
        dep, synth, gusts_per_node_hour=1.0, bumps_per_node_hour=0.5,
        seed=seed + 999,
    )
    res = run_offline_scenario(
        dep,
        [ship] if with_ship else [],
        detector_config=NodeDetectorConfig(
            m=m, af_threshold=0.4 if with_ship else 0.3
        ),
        synthesis_config=synth,
        disturbances_by_node=nuisances,
        track_hypothesis=track,
        seed=seed * 100 + int(speed),
    )
    center = ship.time_at_point(dep.center()) if with_ship else 200.0
    rows = []
    for r in range(max(row_counts)):
        obs = []
        for node in dep.row_nodes(r):
            near = [
                rep for rep in res.merged_by_node[node.node_id]
                if abs(rep.onset_time - center) < 80.0
            ]
            if not near:
                continue
            best = max(near, key=lambda rep: rep.energy)
            signed = track.signed_distance(node.anchor)
            obs.append(RowObservation(
                node_id=node.node_id,
                distance_to_track=abs(signed),
                onset_time=best.onset_time,
                energy=best.energy,
                side=1 if signed >= 0 else -1,
            ))
        rows.append(majority_side(obs))
    return [cluster_correlation(rows[:k]) for k in row_counts]


def _trial_speeds(with_ship):
    return (10.0, 16.0) if with_ship else (10.0,)


@pytest.mark.parametrize("with_ship", [False, True])
def test_correlation_table_matches_per_m_oracle(with_ship):
    m_values, row_counts = (1.0, 2.0), (4, 6)
    matrix = run_correlation_table(
        with_ship, m_values=m_values, row_counts=row_counts, seeds=(1,)
    )
    expected = []
    for m in m_values:
        trials = [
            _oracle_correlations(with_ship, m, 1, speed, row_counts)
            for speed in _trial_speeds(with_ship)
        ]
        expected.append([
            float(np.mean([trial[j][2] for trial in trials]))
            for j in range(len(row_counts))
        ])
    assert matrix == expected


@pytest.mark.parametrize("with_ship", [False, True])
def test_correlation_components_match_per_m_oracle(with_ship):
    result = experiments.run_correlation_components(
        with_ship, m=2.0, n_rows=4, seeds=(1,)
    )
    trials = [
        _oracle_correlations(with_ship, 2.0, 1, speed, (4,))[0]
        for speed in _trial_speeds(with_ship)
    ]
    cnts, cnes, cs = zip(*trials)
    assert result == {
        "time_only": float(np.mean(cnts)),
        "energy_only": float(np.mean(cnes)),
        "combined": float(np.mean(cs)),
    }


@pytest.fixture
def synthesis_calls(monkeypatch):
    """Count ``synthesize_fleet_traces`` calls made by the experiments."""
    owner = experiments.scenario_runner
    real = owner.synthesize_fleet_traces
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, "synthesize_fleet_traces", counting)
    return calls


@pytest.mark.parametrize("with_ship", [False, True])
def test_correlation_table_synthesises_once_per_seed_and_speed(
    synthesis_calls, with_ship
):
    run_correlation_table(
        with_ship, m_values=(1.0, 2.0, 3.0), row_counts=(4,), seeds=(1, 2)
    )
    expected = [
        seed * 100 + int(speed)
        for seed in (1, 2)
        for speed in _trial_speeds(with_ship)
    ]
    assert synthesis_calls == expected


def _oracle_fig11_cell(m, af, seed):
    """One Fig. 11 (M, af, seed) trial with its own offline run."""
    dep = paper_deployment(seed=seed)
    ships = [
        paper_ship(dep, cross_time_s=140.0),
        paper_ship(dep, alpha_deg=110.0, cross_time_s=280.0, column_gap=2.5),
    ]
    synth = SynthesisConfig(duration_s=400.0)
    res = run_offline_scenario(
        dep,
        ships,
        detector_config=NodeDetectorConfig(m=m, af_threshold=af),
        synthesis_config=synth,
        disturbances_by_node=experiments._heavy_nuisances(
            dep, synth, seed=seed + 7919
        ),
        seed=seed * 100,
    )
    cross_times = [s.time_at_point(dep.center()) for s in ships]
    tp = fp = 0
    for nid, reps in res.merged_by_node.items():
        near = [
            r for r in reps
            if any(abs(r.onset_time - ct) < 60.0 for ct in cross_times)
        ]
        ca = classify_alarms(
            near, res.truth_windows_by_node[nid], tolerance_s=3.0
        )
        tp += ca.true_positives
        fp += ca.false_positives
    return tp, fp


@pytest.mark.parametrize("workers", [1, 2])
def test_fig11_matches_per_cell_oracle(workers):
    m_values, af_values, seeds = (2.0, 3.0), (0.5,), (1, 2)
    points = run_fig11_detection_ratio(
        m_values=m_values,
        af_values=af_values,
        seeds=seeds,
        runner=SweepRunner(SweepConfig(workers=workers)),
    )
    expected = []
    for m in m_values:
        for af in af_values:
            cells = [_oracle_fig11_cell(m, af, seed) for seed in seeds]
            expected.append(Fig11Point(
                m=m,
                af=af,
                true_positives=sum(tp for tp, _ in cells),
                false_positives=sum(fp for _, fp in cells),
            ))
    assert points == expected


def test_fig11_synthesises_once_per_seed(synthesis_calls):
    run_fig11_detection_ratio(
        m_values=(2.0, 3.0), af_values=(0.5, 0.7), seeds=(1, 2)
    )
    assert synthesis_calls == [100, 200]
