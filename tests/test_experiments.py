"""Integration tests for the experiment harnesses (quick scale).

These do not assert the paper's absolute numbers — the workloads are tiny
proxies — but they do check that every table/figure harness runs end to
end, produces the expected columns, and respects the qualitative shape the
paper reports (e.g. Spinner beats hash partitioning on locality).
"""

import pytest

from repro.experiments import ablations, fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import table1, table3, table4
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentScale


@pytest.fixture(scope="module")
def quick():
    return ExperimentScale.quick()


def test_table1_rows_and_shape(quick):
    rows = table1.run_table1(k_values=(2, 4), approaches=("ldg", "spinner"), scale=quick)
    assert len(rows) == 4
    assert {"approach", "k", "phi", "rho"} <= set(rows[0])
    spinner_rows = [r for r in rows if r["approach"] == "spinner"]
    # Locality decreases (or stays) as k grows.
    assert spinner_rows[0]["phi"] >= spinner_rows[1]["phi"] - 0.05


def test_partitioning_experiments_match_pinned_rows(quick):
    # Reference rows recorded from the dictionary-graph implementation of
    # these experiments: the CSR generators, partitioner kernels and array
    # metrics must reproduce them exactly.
    assert table1.run_table1(
        k_values=(2, 4), approaches=("wang", "ldg", "fennel", "spinner"), scale=quick
    ) == [
        {"approach": "wang", "k": 2, "phi": 0.553, "rho": 1.31},
        {"approach": "wang", "k": 4, "phi": 0.36, "rho": 1.655},
        {"approach": "ldg", "k": 2, "phi": 0.588, "rho": 1.093},
        {"approach": "ldg", "k": 4, "phi": 0.363, "rho": 1.032},
        {"approach": "fennel", "k": 2, "phi": 0.603, "rho": 1.065},
        {"approach": "fennel", "k": 4, "phi": 0.394, "rho": 1.269},
        {"approach": "spinner", "k": 2, "phi": 0.633, "rho": 1.011},
        {"approach": "spinner", "k": 4, "phi": 0.377, "rho": 1.056},
    ]
    assert fig3.run_fig3(datasets=("TU",), k_values=(2, 8), scale=quick) == [
        {"graph": "TU", "k": 2, "phi": 0.661, "phi_hash": 0.503, "improvement": 1.31},
        {"graph": "TU", "k": 8, "phi": 0.257, "phi_hash": 0.122, "improvement": 2.1},
    ]
    assert fig5.run_fig5(c_values=(1.02,), k_values=(4,), repeats=1, scale=quick) == [
        {
            "c": 1.02,
            "k": 4,
            "rho_mean": 1.025,
            "rho_max": 1.025,
            "rho_min": 1.025,
            "iterations": 53.0,
        }
    ]
    assert table3.run_table3(datasets=("LJ", "TU"), k_values=(4,), scale=quick) == [
        {"graph": "LJ", "rho": 1.033},
        {"graph": "TU", "rho": 1.013},
    ]


def test_table1_runs_metis(quick):
    rows = table1.run_table1(k_values=(2,), approaches=("metis",), scale=quick)
    assert rows == [{"approach": "metis", "k": 2, "phi": 0.611, "rho": 1.028}]


@pytest.mark.parametrize("graph_scale", [float("nan"), float("inf"), 0.0, -0.5])
def test_experiment_scale_rejects_non_positive_scale(graph_scale):
    with pytest.raises(ConfigurationError, match="graph_scale"):
        ExperimentScale(graph_scale=graph_scale)


def test_table3_reports_balance_for_each_graph(quick):
    rows = table3.run_table3(datasets=("LJ", "TU"), k_values=(4,), scale=quick)
    assert [row["graph"] for row in rows] == ["LJ", "TU"]
    assert all(row["rho"] >= 1.0 for row in rows)
    assert all(row["rho"] < 1.6 for row in rows)


def test_table4_spinner_reduces_mean_superstep_time(quick):
    rows = table4.run_table4(
        num_workers=4, num_partitions=4, pagerank_iterations=4, scale=quick
    )
    by_approach = {row["approach"]: row for row in rows}
    assert by_approach["spinner"]["mean"] < by_approach["random"]["mean"]


def test_fig3_spinner_beats_hash_locality(quick):
    rows = fig3.run_fig3(datasets=("TU",), k_values=(2, 8), scale=quick)
    assert all(row["phi"] > row["phi_hash"] for row in rows)
    assert all(row["improvement"] > 1.0 for row in rows)


def test_fig4_metrics_evolve_towards_balance_and_locality(quick):
    rows = fig4.run_fig4(dataset="TW", num_partitions=4, max_iterations=20, scale=quick)
    assert len(rows) == 20
    assert rows[-1]["phi"] > rows[0]["phi"]
    assert rows[-1]["score"] > rows[0]["score"]
    halted = fig4.halting_iteration(rows)
    assert 0 <= halted <= rows[-1]["iteration"]


def test_fig5_rho_tracks_c(quick):
    rows = fig5.run_fig5(c_values=(1.02, 1.20), k_values=(4,), repeats=1, scale=quick)
    by_c = {row["c"]: row for row in rows}
    # Larger allowed capacity converges at least as fast and allows more
    # unbalance.
    assert by_c[1.20]["iterations"] <= by_c[1.02]["iterations"] + 2
    assert by_c[1.20]["rho_mean"] >= by_c[1.02]["rho_mean"] - 0.05


def test_fig6_scalability_trends(quick):
    rows_a = fig6.run_fig6a(vertex_counts=(200, 800), degree=6, num_partitions=4, scale=quick)
    assert rows_a[-1]["runtime_ms"] >= rows_a[0]["runtime_ms"] * 0.8
    rows_b = fig6.run_fig6b(worker_counts=(2, 8), num_vertices=200, degree=6,
                            num_partitions=4, scale=quick)
    assert rows_b[-1]["simulated_time"] < rows_b[0]["simulated_time"]
    rows_c = fig6.run_fig6c(partition_counts=(2, 16), num_vertices=400, degree=6, scale=quick)
    assert len(rows_c) == 2


def test_fig7_adaptation_saves_work_and_moves_fewer_vertices(quick):
    rows = fig7.run_fig7(change_fractions=(0.01, 0.2), num_partitions=4, scale=quick)
    for row in rows:
        assert row["moved_adaptive_pct"] < row["moved_scratch_pct"]
        assert row["time_savings_pct"] > 0
        assert row["message_savings_pct"] > 0


def test_fig8_elastic_adaptation(quick):
    rows = fig8.run_fig8(new_partition_counts=(1, 4), initial_partitions=4, scale=quick)
    for row in rows:
        assert row["moved_adaptive_pct"] < row["moved_scratch_pct"]


def test_fig9_spinner_placement_speeds_up_applications(quick):
    rows = fig9.run_fig9(workloads=(("TU", 4),), applications=("PR", "CC"), scale=quick)
    for row in rows:
        assert row["improvement_pct"] > 0
        assert row["remote_msgs_spinner"] < row["remote_msgs_hash"]


def test_quality_ablations(quick):
    rows = ablations.run_quality_ablations(num_partitions=4, dataset="TU", scale=quick)
    by_variant = {row["variant"]: row for row in rows}
    # Removing the balance penalty degrades balance.
    assert by_variant["no_balance_penalty"]["rho"] >= by_variant["baseline"]["rho"]


def test_conversion_ablation(quick):
    rows = ablations.run_conversion_ablation(num_partitions=4, scale=quick)
    assert {row["variant"] for row in rows} == {"weighted", "naive"}


def test_worker_local_ablation():
    rows = ablations.run_worker_local_ablation(num_partitions=3)
    assert {row["variant"] for row in rows} == {"async_worker_loads", "sync_only"}
