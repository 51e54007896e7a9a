"""Shard execution — the function that runs inside pool workers.

A :class:`ShardTask` is a small picklable record: the compiled cQASM text,
the qubit model, the shot count and the ``(root seed, point, shard)``
coordinates that determine the shard's random stream.  Workers rebuild the
executable :class:`~repro.qx.compiled.KernelProgram` from the on-disk
artifact cache (falling back to parse + lower, then publishing the result)
and memoise it per process, so a worker pays the lowering cost at most once
per distinct circuit regardless of how many shards it executes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.qubits import QubitModel
from repro.qx.compiled import KernelProgram, lower
from repro.qx.error_models import error_model_for
from repro.qx.simulator import QXSimulator
from repro.qx.trajectories import TrajectoryPlan
from repro.runtime.cache import ArtifactCache
from repro.runtime.seeding import shard_seed


@dataclass(frozen=True)
class ShardTask:
    """One batch of shots of one sweep point, with its seed coordinates.

    ``backend`` pins the simulation engine (``None`` = policy
    auto-dispatch); ``max_bond`` and ``truncation_threshold`` are the MPS
    accuracy knobs; ``channel_fusion`` is the density engine's
    superoperator-fusion cost knob.  All of them come verbatim from the
    spec's :class:`~repro.runtime.spec.SimulationSpec` (possibly swept), so
    every shard of a point runs on the same engine configuration and the
    merged histogram stays bit-identical for any worker count.
    """

    cqasm: str
    num_qubits: int
    shots: int
    root_seed: int
    point_index: int
    shard_index: int
    qubit_model: QubitModel | None = None
    cache_dir: str | None = None
    backend: str | None = None
    max_bond: int | None = None
    truncation_threshold: float | None = None
    channel_fusion: bool = True


@dataclass
class ShardResult:
    """Histogram and error statistics of one executed shard."""

    point_index: int
    shard_index: int
    shots: int
    counts: dict[str, int] = field(default_factory=dict)
    errors_injected: int = 0
    #: Mapping metrics of a compile shard (empty for circuit/qec shards).
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class QecShardTask:
    """One batch of surface-code memory-experiment trials.

    The ``kind="qec"`` analogue of :class:`ShardTask`: ``trials`` plays the
    role of shots and the ``(root seed, point, shard)`` coordinates feed the
    same :func:`~repro.runtime.seeding.shard_seed` contract, so distance and
    error-rate sweeps merge bit-identically for any worker count.
    """

    distance: int
    trials: int
    root_seed: int
    point_index: int
    shard_index: int
    rounds: int | None = None
    physical_error_rate: float = 1e-3
    measurement_error_rate: float | None = None
    noise_model: str = "phenomenological"
    decoder: str | None = None


@dataclass(frozen=True)
class CompileShardTask:
    """One compile-and-map pipeline run of one sweep point.

    The ``kind="compile"`` analogue of :class:`ShardTask`: the payload is
    the *source* circuit's cQASM plus the resolved
    :class:`~repro.runtime.spec.CompileSpec` fields.  Compilation is
    deterministic, so a point is a single shard and merged results are
    bit-identical for any worker count by construction.
    """

    cqasm: str
    placement: str
    router: str
    topology: str
    rows: int | None
    cols: int | None
    schedule_policy: str
    lookahead_window: int
    decay: float
    point_index: int
    shard_index: int = 0
    cache_dir: str | None = None


def program_cache_key(cqasm: str, fuse: bool) -> str:
    """Cache key of a lowered program: compiled text + fusion flag."""
    return ArtifactCache.key_for("program", cqasm=cqasm, fuse=fuse)


def mapping_cache_key(task: CompileShardTask) -> str:
    """Cache key of a compile-and-map artifact: source text + pipeline config."""
    return ArtifactCache.key_for(
        "mapping",
        cqasm=task.cqasm,
        placement=task.placement,
        router=task.router,
        topology=task.topology,
        rows=task.rows,
        cols=task.cols,
        schedule_policy=task.schedule_policy,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    )


def _noise_free(qubit_model: QubitModel | None) -> bool:
    return qubit_model is None or qubit_model.is_perfect


#: Per-process memo of lowered programs, keyed by cache key.  LRU with a
#: hard size cap: long-lived batch workers stream thousands of distinct
#: circuits through one process, so an unbounded memo would grow without
#: limit.  Hit/miss counters are surfaced per shard (and summed per point
#: by the runner) for cache observability.
PROGRAM_MEMO_CAP = 128
_PROGRAMS: OrderedDict[str, KernelProgram] = OrderedDict()
_program_memo_stats = {"hits": 0, "misses": 0}


def program_memo_stats() -> dict[str, int]:
    """Cumulative hit/miss counters of this process's program memo."""
    return dict(_program_memo_stats)


def load_program(task: ShardTask) -> KernelProgram:  # contract: ignore[REPRO006]
    """Lowered program for a task: process memo -> disk cache -> lower().

    The REPRO006 ignore is deliberate: the program memo is a *per-process*
    LRU keyed by content hash, so its state never changes a result — only
    whether the lowering work is repeated.  Its hit/miss counters are
    surfaced per shard precisely so that divergence would be visible.
    """
    fuse = _noise_free(task.qubit_model)
    key = program_cache_key(task.cqasm, fuse)
    program = _PROGRAMS.get(key)
    if program is not None:
        _program_memo_stats["hits"] += 1
        _PROGRAMS.move_to_end(key)
        return program
    _program_memo_stats["misses"] += 1
    cache = ArtifactCache(task.cache_dir) if task.cache_dir else None
    program = cache.get(key) if cache is not None else None
    if not isinstance(program, KernelProgram):
        from repro.cqasm.parser import cqasm_to_circuit

        program = lower(cqasm_to_circuit(task.cqasm), fuse=fuse)
        if cache is not None:
            cache.put(key, program)
    _PROGRAMS[key] = program
    while len(_PROGRAMS) > PROGRAM_MEMO_CAP:
        _PROGRAMS.popitem(last=False)
    return program


#: Per-process memo of trajectory plans, keyed by (program cache key, qubit
#: model, register width) and bounded like the program memo.  The shards of
#: a noisy point share one plan instead of rebuilding it per shard.
_PLANS: OrderedDict[tuple, TrajectoryPlan] = OrderedDict()


def load_plan(task: ShardTask, program) -> TrajectoryPlan:  # contract: ignore[REPRO006]
    """Trajectory plan of a noisy task's unfused ``program``, built once per process.

    The REPRO006 ignore is deliberate, as for :func:`load_program`: the
    memo is keyed by content (the program's cache key, the frozen qubit
    model and the register width), and a plan is a pure function of those,
    so its state never changes a result — only whether the plan is rebuilt.
    """
    key = (program_cache_key(task.cqasm, False), task.qubit_model, task.num_qubits)
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
        return plan
    plan = TrajectoryPlan(program, error_model_for(task.qubit_model), task.num_qubits)
    _PLANS[key] = plan
    while len(_PLANS) > PROGRAM_MEMO_CAP:
        _PLANS.popitem(last=False)
    return plan


def _run_qec_shard(task: QecShardTask) -> ShardResult:
    """Execute one batch of memory-experiment trials inside a pool worker.

    The histogram uses key ``"1"`` for logical failures and ``"0"`` for
    successes; ``errors_injected`` carries the space-time defect total, so
    merged points report the decoder load alongside the failure rate.
    """
    from repro.qec.surface_code import PlanarSurfaceCode

    code = PlanarSurfaceCode(task.distance)
    seed = shard_seed(task.root_seed, task.point_index, task.shard_index)
    if task.noise_model == "circuit":
        result = code.run_circuit_memory_experiment(
            task.physical_error_rate,
            rounds=task.rounds,
            trials=task.trials,
            measurement_error_rate=task.measurement_error_rate,
            seed=seed,
            decoder=task.decoder or "union_find",
        )
    else:
        result = code.run_memory_experiment(
            task.physical_error_rate,
            rounds=task.rounds,
            trials=task.trials,
            measurement_error_rate=task.measurement_error_rate,
            seed=seed,
            decoder=task.decoder or "matching",
        )
    counts: dict[str, int] = {}
    successes = result.trials - result.logical_failures
    if successes:
        counts["0"] = successes
    if result.logical_failures:
        counts["1"] = result.logical_failures
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=task.trials,
        counts=counts,
        errors_injected=result.total_defects,
    )


def compile_and_map(task: CompileShardTask):
    """Run the full pass pipeline for a compile task; returns the artifact dict.

    The artifact bundles the :class:`~repro.openql.compiler.CompilationResult`
    with the extracted mapping metrics, so cache hits skip the whole
    pipeline, not just the metric extraction.
    """
    from repro.core.qubits import REALISTIC
    from repro.cqasm.parser import cqasm_to_circuit
    from repro.mapping.traffic import TrafficAnalyzer
    from repro.openql.compiler import Compiler
    from repro.openql.kernel import Kernel
    from repro.openql.passes.decomposition import DecompositionPass
    from repro.openql.passes.mapping_pass import MappingPass
    from repro.openql.passes.optimization import OptimizationPass
    from repro.openql.passes.scheduling_pass import SchedulingPass
    from repro.openql.platform import Platform
    from repro.openql.program import Program
    from repro.runtime.spec import CompileSpec

    circuit = cqasm_to_circuit(task.cqasm)
    topology = CompileSpec(
        placement=task.placement,
        router=task.router,
        topology=task.topology,
        rows=task.rows,
        cols=task.cols,
        schedule_policy=task.schedule_policy,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    ).build_topology(circuit.num_qubits)
    platform = Platform(
        name=f"compile_{topology.name}",
        num_qubits=topology.num_qubits,
        qubit_model=REALISTIC,
        topology=topology,
    )
    mapping_pass = MappingPass(
        strategy=task.placement,
        mode=task.router,
        lookahead_window=task.lookahead_window,
        decay=task.decay,
    )
    compiler = Compiler(
        passes=[
            DecompositionPass(),
            OptimizationPass(),
            mapping_pass,
            SchedulingPass(policy=task.schedule_policy),
        ]
    )
    program = Program(name="compile", platform=platform)
    # Keep the kernel at the logical circuit width: the router, not the
    # kernel, widens the register to the topology, so placement only ever
    # reasons about qubits the program actually uses.
    kernel = Kernel(circuit.name or "main", platform, num_qubits=circuit.num_qubits)
    kernel.extend(circuit)
    program.add_kernel(kernel)
    result = compiler.compile(program)
    routed = result.kernels[0]
    schedule = result.schedules[0]
    routing = mapping_pass.last_result
    traffic = TrafficAnalyzer()
    if routing is not None:
        report = traffic.analyze_routing(routing)
    else:  # pragma: no cover - REALISTIC always routes
        report = traffic.analyze_circuit(routed)
    metrics = {
        "swaps": routing.swaps_inserted if routing is not None else 0,
        "routing_overhead": round(routing.overhead, 6) if routing is not None else 0.0,
        "makespan_ns": schedule.makespan,
        "parallelism": round(schedule.parallelism(), 4),
        "locality": round(report.locality_score, 6),
        "movement_fraction": round(report.movement_fraction, 6),
        "total_hops": report.total_hops,
        "routed_gate_count": routed.gate_count(),
        "routed_depth": routed.depth(),
        "topology_sites": topology.num_qubits,
    }
    return {"compilation": result, "metrics": metrics}


def _run_compile_shard(task: CompileShardTask) -> ShardResult:
    """Execute one compile-and-map point inside a pool worker (cache-backed)."""
    cache = ArtifactCache(task.cache_dir) if task.cache_dir else None
    key = mapping_cache_key(task)
    artifact = cache.get(key) if cache is not None else None
    if not (isinstance(artifact, dict) and "metrics" in artifact):
        artifact = compile_and_map(task)
        if cache is not None:
            cache.put(key, artifact)
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=1,
        counts={},
        metrics=dict(artifact["metrics"]),
    )


def run_shard(task: ShardTask | QecShardTask | CompileShardTask) -> ShardResult:
    """Execute one shard and return its merged-ready histogram."""
    if isinstance(task, QecShardTask):
        return _run_qec_shard(task)
    if isinstance(task, CompileShardTask):
        return _run_compile_shard(task)
    seed = shard_seed(task.root_seed, task.point_index, task.shard_index)
    simulator = QXSimulator(
        num_qubits=task.num_qubits,
        qubit_model=None if _noise_free(task.qubit_model) else task.qubit_model,
        seed=seed,
        backend=task.backend,
        max_bond=task.max_bond,
        truncation_threshold=task.truncation_threshold,
        channel_fusion=task.channel_fusion,
    )
    metrics: dict = {}
    if task.backend == "stabilizer":
        # The tableau engine executes named gates, not lowered matrices, so
        # a stabilizer-pinned shard re-parses the compiled cQASM instead of
        # loading the cached KernelProgram.
        from repro.cqasm.parser import cqasm_to_circuit

        result = simulator.run(cqasm_to_circuit(task.cqasm), shots=task.shots)
    else:
        before = dict(_program_memo_stats)
        program = load_program(task)
        # Noisy points take trajectories on every engine but the density one.
        plan = None
        if not _noise_free(task.qubit_model) and task.backend != "density":
            plan = load_plan(task, program)
        result = simulator.run_program(program, shots=task.shots, plan=plan)
        metrics["program_cache_hits"] = _program_memo_stats["hits"] - before["hits"]
        metrics["program_cache_misses"] = _program_memo_stats["misses"] - before["misses"]
    metrics["backend"] = result.backend
    if result.backend == "mps":
        metrics["truncation_error"] = result.truncation_error
    return ShardResult(
        point_index=task.point_index,
        shard_index=task.shard_index,
        shots=task.shots,
        counts=result.counts,
        errors_injected=result.errors_injected,
        metrics=metrics,
    )
