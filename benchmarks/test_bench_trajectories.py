"""Noisy trajectories on a routed realistic-qubit point (Section 2.7).

The realistic track maps a circuit onto the platform's grid (inserting
SWAPs) and injects depolarising, T1/T2 and read-out errors after every
gate.  This row runs the heaviest ``sweep_noisy`` point, a 10-qubit
depth-6 rotation ladder mapped onto 12 qubits at 256 shots, through the
experiment runner's default sharding, and reports how few passes over the
shot stack its trajectory plan needs: SWAPs are axis relabelings, each
single-qubit layer is a few block gemms, and the trailing measurements are
one step.
"""

import pytest

from bench_utils import print_table, run_once
from repro.qx import kernels
from repro.qx.error_models import error_model_for
from repro.qx.trajectories import TrajectoryPlan
from repro.runtime import CircuitSpec, ExperimentRunner, ExperimentSpec, PlatformSpec
from repro.runtime.runner import Planner
from repro.runtime.worker import load_program

SPEC = ExperimentSpec(
    name="bench-trajectories",
    circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 10, "depth": 6, "seed": 11}),
    platform=PlatformSpec(factory="realistic"),
    shots=256,
    seed=1,
)


@pytest.mark.bench_smoke
def test_routed_realistic_point_trajectories(benchmark):
    result = run_once(benchmark, lambda: ExperimentRunner(SPEC, workers=1, use_cache=False).run())
    point = result.points[0]
    task = Planner(None).plan_point(next(iter(SPEC.points()))).tasks[0]
    program = load_program(task)
    plan = TrajectoryPlan(program, error_model_for(task.qubit_model), task.num_qubits)
    swaps = sum(op.structure == kernels.SWAP_2Q for op in program.ops)
    print_table(
        "Routed 10q-on-12 realistic point, 256 shots: stack passes per chunk",
        ["qubits", "ops", "swaps", "plan_steps", "errors_injected"],
        [(point.num_qubits, len(program.ops), swaps, len(plan.steps), point.errors_injected)],
    )
    assert point.num_qubits == 12 and point.shots == 256
    assert sum(point.counts.values()) == 256 and point.errors_injected > 0
    assert swaps > 0
    assert len(plan.steps) < len(program.ops) - swaps
