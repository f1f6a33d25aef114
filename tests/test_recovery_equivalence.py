"""The recovery bit-exactness contract.

A run that crashes (by deterministic fault injection) and recovers from a
checkpoint must produce **byte-identical** results to the uninterrupted
run: vertex values / labels, superstep count, halt reason, aggregator
histories and per-superstep worker statistics.  These tests pin that
contract for all four applications and for the Spinner partitioning
itself, plus the offline abort-then-resume path.  The faulted run is
always the vector engine; ``engine_kind`` names the engine of the
uninterrupted baseline: the vector engine itself, or the per-vertex
reference oracle (which does not checkpoint).
"""

import numpy as np
import pytest

from repro.apps import make_app_program
from repro.core.config import SpinnerConfig
from repro.core.spinner import SpinnerPartitioner
from repro.errors import RecoveryAbortedError
from repro.faults import FaultPlan, MessageFault, WorkerCrash
from repro.graph.digraph import DiGraph
from repro.pregel import VectorPregelEngine, resume_from_checkpoint

from oracles import apps as oracle_apps
from oracles.engine import PregelEngine
from oracles.graphs import run_on_digraph, spinner_input
from oracles.spinner import DictSpinnerPartitioner

APPS = {
    "degree": {},
    "pagerank": {"num_iterations": 6},
    "sssp": {"source": 0},
    "wcc": {},
}

NUM_WORKERS = 3


def small_graph() -> DiGraph:
    edges = [(i, (i * 3 + 1) % 60) for i in range(60)]
    edges += [(i, (i + 11) % 60) for i in range(60)]
    edges += [(0, i) for i in range(1, 8)]
    return DiGraph.from_edges(edges)


def crashy_plan(crash_superstep: int = 2) -> FaultPlan:
    return FaultPlan(
        crashes=(WorkerCrash(superstep=crash_superstep, worker=1),),
        message_faults=(MessageFault(superstep=crash_superstep + 1, failures=2),),
        seed=5,
    )


def run_app(app: str, tmp_path=None, fault_plan=None):
    """Run ``app`` on the vector engine, checkpointed when ``tmp_path`` is given."""
    kwargs = {}
    if tmp_path is not None:
        kwargs = {
            "checkpoint_interval": 2,
            "checkpoint_dir": tmp_path,
            "fault_plan": fault_plan,
        }
    engine = VectorPregelEngine(num_workers=NUM_WORKERS, **kwargs)
    return run_on_digraph(engine, make_app_program(app, **APPS[app]), small_graph())


def run_baseline(app: str, engine_kind: str):
    """The uninterrupted run on the vector engine or the reference oracle."""
    if engine_kind == "vector":
        return run_app(app)
    program = oracle_apps.make_app_program(app, **APPS[app])
    return PregelEngine(num_workers=NUM_WORKERS).run_on_digraph(program, small_graph())


def assert_equivalent(recovered, baseline, engine_kind: str) -> None:
    if engine_kind == "dict":
        assert recovered.vertex_values() == baseline.vertex_values()
    else:
        assert np.array_equal(recovered.values, baseline.values)
        assert np.array_equal(recovered.original_ids, baseline.original_ids)
    assert recovered.num_supersteps == baseline.num_supersteps
    assert recovered.halt_reason == baseline.halt_reason
    assert recovered.aggregator_history == baseline.aggregator_history
    assert recovered.stats.superstep_stats == baseline.stats.superstep_stats
    assert recovered.stats.messages_dropped == baseline.stats.messages_dropped


# ----------------------------------------------------------------------
# crash + recover == uninterrupted, all apps, both baselines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_crash_recovery_is_bit_exact(app, engine_kind, tmp_path):
    baseline = run_baseline(app, engine_kind)
    # DegreeCount converges after superstep 1, so fault it earlier.
    plan = crashy_plan(crash_superstep=0 if app == "degree" else 2)
    recovered = run_app(app, tmp_path, plan)
    assert recovered.stats.recoveries == 1
    assert recovered.stats.delivery_retries == 2
    assert recovered.stats.checkpoints_written >= 1
    assert_equivalent(recovered, baseline, engine_kind)


@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_repeated_crashes_within_budget_recover(engine_kind, tmp_path):
    plan = FaultPlan(
        crashes=(WorkerCrash(superstep=2, worker=0, times=2),), max_recoveries=3
    )
    baseline = run_baseline("wcc", engine_kind)
    recovered = run_app("wcc", tmp_path, plan)
    assert recovered.stats.recoveries == 2
    assert_equivalent(recovered, baseline, engine_kind)


@pytest.mark.parametrize("engine_kind", ["vector"])
def test_crash_budget_exhaustion_aborts(engine_kind, tmp_path):
    plan = FaultPlan(crashes=(WorkerCrash(superstep=2),), max_recoveries=0)
    with pytest.raises(RecoveryAbortedError) as excinfo:
        run_app("pagerank", tmp_path, plan)
    assert excinfo.value.superstep == 2
    assert excinfo.value.recoveries == 0


@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_delivery_retry_exhaustion_escalates_to_crash_and_recovers(
    engine_kind, tmp_path
):
    # 5 failures > max_delivery_retries=3: the message fault escalates to
    # a crash, recovery replays the superstep, and the second pass is
    # clean because the fault's firing budget is spent.
    plan = FaultPlan(
        message_faults=(MessageFault(superstep=3, failures=5),),
        max_delivery_retries=3,
    )
    baseline = run_baseline("sssp", engine_kind)
    recovered = run_app("sssp", tmp_path, plan)
    assert recovered.stats.recoveries == 1
    assert recovered.stats.delivery_retries == 3
    assert_equivalent(recovered, baseline, engine_kind)


# ----------------------------------------------------------------------
# abort, then offline resume_from_checkpoint == uninterrupted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", ["pagerank", "wcc"])
@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_offline_resume_after_abort_is_bit_exact(app, engine_kind, tmp_path):
    baseline = run_baseline(app, engine_kind)
    plan = FaultPlan(crashes=(WorkerCrash(superstep=2),), max_recoveries=0)
    with pytest.raises(RecoveryAbortedError):
        run_app(app, tmp_path, plan)
    resumed = resume_from_checkpoint(tmp_path)
    assert_equivalent(resumed, baseline, engine_kind)


# ----------------------------------------------------------------------
# the Spinner partitioning itself (SpinnerProgram / BatchSpinnerProgram)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_spinner_partitioner_recovery_is_bit_exact(engine_kind, tmp_path):
    graph = spinner_input(small_graph())
    clean_config = SpinnerConfig(seed=7, max_iterations=12)
    baseline_cls = DictSpinnerPartitioner if engine_kind == "dict" else SpinnerPartitioner
    baseline = baseline_cls(config=clean_config, num_workers=NUM_WORKERS).partition(graph, 4)

    faulted_config = clean_config.with_options(
        checkpoint_interval=3,
        checkpoint_dir=str(tmp_path),
        fault_plan=crashy_plan(),
    )
    recovered = SpinnerPartitioner(
        config=faulted_config, num_workers=NUM_WORKERS
    ).partition(graph, 4)

    assert recovered.assignment == baseline.assignment
    assert recovered.iterations == baseline.iterations
    assert recovered.phi == baseline.phi
    assert recovered.rho == baseline.rho
    assert [r.score for r in recovered.history] == [r.score for r in baseline.history]
    assert recovered.pregel_result.halt_reason == baseline.pregel_result.halt_reason
    assert (
        recovered.pregel_result.aggregator_history
        == baseline.pregel_result.aggregator_history
    )
    assert (
        recovered.pregel_result.stats.superstep_stats
        == baseline.pregel_result.stats.superstep_stats
    )
    assert recovered.pregel_result.stats.recoveries == 1


def test_spinner_dict_and_vector_recovery_agree(tmp_path):
    # The cross-engine bit-exactness contract survives fault injection:
    # vector-with-crash == the clean reference oracle run.
    graph = spinner_input(small_graph())
    config = SpinnerConfig(seed=7, max_iterations=10)
    faulted = config.with_options(
        checkpoint_interval=2,
        checkpoint_dir=str(tmp_path),
        fault_plan=FaultPlan(crashes=(WorkerCrash(superstep=4, worker=2),)),
    )
    recovered = SpinnerPartitioner(config=faulted, num_workers=NUM_WORKERS).partition(graph, 3)
    reference = DictSpinnerPartitioner(config=config, num_workers=NUM_WORKERS).partition(
        graph, 3
    )
    assert recovered.pregel_result.stats.recoveries == 1
    assert recovered.assignment == reference.assignment
