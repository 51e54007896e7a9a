"""The plan→execute core of the runtime, and the experiment runner on it.

All three front-ends — :class:`ExperimentRunner`, the fleet runner
:class:`~repro.runtime.batch.BatchRunner` and the experiment service's
:class:`~repro.service.engine.JobService` — run sweep points through the
same four steps defined here:

1. **enumerate** — ``spec.points()`` (an
   :class:`~repro.runtime.spec.ExperimentSpec` sweep, or one point per
   :class:`~repro.runtime.batch.BatchSpec` circuit);
2. **plan** — :class:`Planner` builds each point's circuit and platform,
   compiles through the artifact cache, canonicalises, verifies, validates a
   pinned backend, and emits either shard tasks (each carrying its
   ``(root seed, point, shard)`` seed coordinates, :mod:`repro.runtime.seeding`)
   or, for batch work, a *stack row* that
   :func:`~repro.runtime.batch.stack_chunks` groups into one stacked
   ``(batch, 2**n)`` pass;
3. **execute** — :func:`run_unit` runs one work unit (a shard task or a
   batch chunk) in whatever process it lands in; :func:`execute` runs a list
   of units inline or across one ``ProcessPoolExecutor``, while the service
   feeds shard tasks through its fair scheduler;
4. **fold** — :func:`fold` merges one point's shard results into its
   :class:`~repro.runtime.aggregate.PointResult`.  Merging is a commutative
   sum over a deterministic shard list, so merged counts are bit-identical
   for any worker count, chunk layout or scheduling order.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from repro.analysis.circuit_check import report
from repro.core.circuit import Circuit
from repro.cqasm.parser import cqasm_to_circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.openql.platform import Platform
from repro.qx import compiled
from repro.qx.backends import CircuitProfile, DispatchPolicy, profile_circuit
from repro.qx.compiled import LoweringPlan, lower
from repro.qx.error_models import error_model_for, noise_kind
from repro.runtime.aggregate import ExperimentResult, PointResult, merge_counts, merge_metrics
from repro.runtime.cache import ArtifactCache, default_cache_dir
from repro.runtime.seeding import shard_sizes
from repro.runtime.spec import ExperimentSpec, SweepPoint
from repro.runtime.worker import (
    CompileShardTask,
    QecShardTask,
    ShardResult,
    ShardTask,
    mapping_cache_key,
    program_cache_key,
    run_shard,
)

def available_workers() -> int:
    """Usable CPU count (respects scheduler affinity where exposed)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class PlannedPoint:
    """A sweep point planned down to executable work.

    A point carries either shard ``tasks`` or, when it is a stack row of
    batch work, the shared lowering ``plan`` and the concrete ``circuit``
    whose matrices are stacked at chunk build time (no per-circuit program
    is ever materialised on that path) plus its ``shard_shots`` layout.
    ``metrics`` holds plan-time counters folded into the point's result.
    """

    point: SweepPoint
    cqasm: str
    num_qubits: int
    gate_count: int
    compile_cached: bool
    compile_time_s: float
    tasks: list = field(default_factory=list)
    plan: LoweringPlan | None = None
    circuit: Circuit | None = None
    shard_shots: list[int] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def stackable(self) -> bool:
        return self.plan is not None


def _plan_profile(plan: LoweringPlan, circuit: Circuit, shots: int, noise: str) -> CircuitProfile:
    """Build the dispatch profile of a plan's lowered form.

    Equivalent to ``profile_program(lower(circuit))`` for every feature the
    policy reads — gate arities, operand pairs, span, measurement and
    trajectory flags, ``is_clifford=False`` — without materialising the
    program.  (Fused runs count one gate each even when a particular
    circuit's run would elide to the identity; that total only feeds the
    cost model beyond the dense-engine tier, where stacking is off anyway.)
    """
    gate_count = 0
    two_qubit = 0
    span = 0
    max_arity = 1
    pairs: list[tuple[int, int]] = []
    ops = circuit.operations
    for step in plan.steps:
        kind = step[0]
        if kind == "run":
            gate_count += 1
        elif kind != "measure":  # "gate" or "cond"
            qubits = ops[step[1]].qubits
            arity = len(qubits)
            gate_count += 1
            if arity > max_arity:
                max_arity = arity
            if arity == 2:
                first, second = qubits
                two_qubit += 1
                span += abs(first - second)
                pairs.append((first, second))
    return CircuitProfile(
        num_qubits=circuit.num_qubits,
        shots=shots,
        gate_count=gate_count,
        two_qubit_gate_count=two_qubit,
        num_measurements=plan.num_measurements,
        needs_trajectories=plan.needs_trajectories,
        is_clifford=False,
        noise=noise,
        max_gate_qubits=max_arity,
        total_gate_span=span,
        _pairs=pairs,
    )


class Planner:
    """Plans sweep points of any kind into work units, through one cache.

    One planner serves one run (or one service job), so its memos — built
    platforms per (platform spec, width), dispatch decisions per lowering
    plan, and the set of plans already dataflow-verified — amortise across
    the run's points without outliving it.
    """

    def __init__(self, cache: ArtifactCache | None, strict_verify: bool = False):
        self.cache = cache
        self.strict_verify = strict_verify
        self.policy = DispatchPolicy()
        self._platforms: dict[tuple[str, int], Platform] = {}
        #: (plan, shard shots, pinned backend, noise) -> chosen engine.
        self._dispatch_memo: dict[tuple, str] = {}
        #: Plans already dataflow-verified (identity-keyed, like the
        #: dispatch memo): structurally identical fleet circuits share a
        #: plan, so a batch pays for one verification per structure.
        self._verified_plans: set = set()

    def plan_point(self, point: SweepPoint, stack: bool = False) -> PlannedPoint:
        """Plan one sweep point; dispatches on the point's own kind.

        ``stack=True`` marks batch work: a noise-free point whose every
        shard would run on the dense sampled path becomes a stack row
        instead of shard tasks.
        """
        if point.spec.kind == "qec":
            return self._plan_qec_point(point)
        if point.spec.kind == "compile":
            return self._plan_compile_point(point)
        return self._plan_circuit_point(point, stack)

    # ------------------------------------------------------------------ #
    def _platform(self, spec: ExperimentSpec, num_qubits: int) -> Platform:
        key = (json.dumps(asdict(spec.platform), sort_keys=True, default=str), num_qubits)
        platform = self._platforms.get(key)
        if platform is None:
            platform = spec.platform.build(default_num_qubits=num_qubits)
            self._platforms[key] = platform
        return platform

    def _compile(
        self, circuit: Circuit, platform: Platform, spec: ExperimentSpec
    ) -> tuple[str, bool]:
        """Compiled cQASM of ``circuit`` and whether it came from the cache."""
        key = ArtifactCache.key_for(
            "compile",
            source=circuit_to_cqasm(circuit),
            platform=platform.describe(),
            compiler=vars(spec.compiler),
        )
        compiled_cqasm = self.cache.get(key) if self.cache is not None else None
        if isinstance(compiled_cqasm, str):
            return compiled_cqasm, True
        compiled_cqasm = circuit_to_cqasm(spec.compiler.build().compile_circuit(circuit, platform))
        if self.cache is not None:
            self.cache.put(key, compiled_cqasm)
        return compiled_cqasm, False

    def _stack_dispatch(
        self, plan: LoweringPlan, circuit: Circuit, size: int, backend: str | None, noise: str
    ) -> str:
        """The engine a shard of ``size`` shots would dispatch to.

        Mirrors the worker's ``profile_program`` + ``DispatchPolicy.choose``
        on the lowered program, built from the plan instead: every profile
        feature is structural (lowered programs are never Clifford-eligible,
        and fused runs count one gate each), so one decision serves every
        circuit sharing the plan.  Gates wider than two qubits are mapped to
        a non-stackable pseudo-engine, since the batched kernels stop at 4x4.
        """
        # Keyed on the plan object itself (identity hash): holding the
        # reference prevents an evicted-and-freed plan's id being reused.
        key = (plan, size, backend, noise)
        chosen = self._dispatch_memo.get(key)
        if chosen is None:
            profile = _plan_profile(plan, circuit, size, noise)
            if profile.max_gate_qubits > 2:
                chosen = "unstackable"
            elif backend is not None:
                chosen = backend
            else:
                chosen = self.policy.choose(profile)
            self._dispatch_memo[key] = chosen
        return chosen

    def _plan_circuit_point(self, point: SweepPoint, stack: bool) -> PlannedPoint:
        spec = point.spec
        start = time.perf_counter()
        circuit = spec.circuit.build()
        platform = self._platform(spec, circuit.num_qubits)
        if circuit.num_qubits > platform.num_qubits:
            raise ValueError(
                f"point {point.params!r}: circuit needs {circuit.num_qubits} qubits, "
                f"platform {platform.name!r} has {platform.num_qubits}"
            )
        qubit_model = platform.qubit_model
        noise_free = qubit_model.is_perfect
        compile_cached = False
        cqasm: str | None = None
        if spec.compiler.enabled:
            cqasm, compile_cached = self._compile(circuit, platform, spec)
        elif not stack:
            cqasm = circuit_to_cqasm(circuit)
        # Canonicalise through the parser so the parent plans exactly the
        # circuit every worker will reconstruct.  Uncompiled batch work skips
        # the round trip: it is value-preserving (shortest-round-trip floats,
        # gates rebuilt from the same mnemonics), and the text is rendered
        # only for circuits that fall back to worker tasks.
        exec_circuit = circuit if cqasm is None else cqasm_to_circuit(cqasm)

        plan: LoweringPlan | None = None
        metrics: dict = {}
        if stack and noise_free:
            before = compiled.plan_cache_stats()
            plan = compiled.plan_for(exec_circuit, fuse=True)
            after = compiled.plan_cache_stats()
            metrics = {
                "plan_cache_hits": after["hits"] - before["hits"],
                "plan_cache_misses": after["misses"] - before["misses"],
            }
        # Plan-time dataflow check: a malformed circuit (out-of-range bits,
        # use-before-write conditionals) surfaces once in the parent, not as
        # N confusing worker results.  Structurally identical circuits share
        # a lowering plan, so fleets verify once per structure.
        if plan is None or plan not in self._verified_plans:
            if plan is not None:
                self._verified_plans.add(plan)
            report(exec_circuit, where=f"point {point.params!r}", strict=self.strict_verify)

        simulation = spec.simulation
        noise = noise_kind(error_model_for(qubit_model))
        if simulation.backend is not None:
            # Fail fast in the parent: an explicitly pinned engine that
            # cannot run this point's circuit should surface as one clear
            # UnsupportedBackendError, not as N worker crashes.
            self.policy.validate(
                simulation.backend,
                profile_circuit(exec_circuit, shots=spec.shots, noise=noise),
            )
        shard_shots = shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards)
        planned = PlannedPoint(
            point=point,
            cqasm=cqasm or "",
            num_qubits=exec_circuit.num_qubits,
            gate_count=exec_circuit.gate_count(),
            compile_cached=compile_cached,
            compile_time_s=0.0,
            metrics=metrics,
        )
        if (
            plan is not None
            and not plan.needs_trajectories
            and plan.num_measurements > 0
            # The engine run_shard would pick, per shard size (the cost model
            # sees the shard's shots, not the point's): stack only when every
            # shard lands on the dense sampled path.
            and all(
                self._stack_dispatch(plan, exec_circuit, size, simulation.backend, noise)
                == "statevector"
                for size in sorted(set(shard_shots))
            )
        ):
            planned.plan, planned.circuit, planned.shard_shots = plan, exec_circuit, shard_shots
            planned.compile_time_s = time.perf_counter() - start
            return planned

        if cqasm is None:
            cqasm = planned.cqasm = circuit_to_cqasm(circuit)
        if self.cache is not None:
            # Pre-warm the program cache so pool workers get artifact hits
            # instead of re-lowering.
            program_key = program_cache_key(cqasm, noise_free)
            if self.cache.get(program_key) is None:
                self.cache.put(program_key, lower(exec_circuit, fuse=noise_free))
        cache_dir = str(self.cache.directory) if self.cache is not None else None
        planned.tasks = [
            ShardTask(
                cqasm=cqasm,
                num_qubits=exec_circuit.num_qubits,
                shots=size,
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
                qubit_model=None if noise_free else qubit_model,
                cache_dir=cache_dir,
                backend=simulation.backend,
                max_bond=simulation.max_bond,
                truncation_threshold=simulation.truncation_threshold,
                channel_fusion=simulation.channel_fusion,
            )
            for shard_index, size in enumerate(shard_shots)
        ]
        planned.compile_time_s = time.perf_counter() - start
        return planned

    def _plan_qec_point(self, point: SweepPoint) -> PlannedPoint:
        """Shard one surface-code memory-experiment point.

        No compilation or artifact cache is involved: the point's trial
        budget (the spec's ``shots``) is sharded with the same layout and
        seed coordinates as circuit shots, so qec sweeps inherit the
        bit-identical 1-vs-N-workers contract for free.
        """
        from repro.qec.surface_code import PlanarSurfaceCode

        spec = point.spec
        start = time.perf_counter()
        qec = spec.qec
        code = PlanarSurfaceCode(qec.distance)  # validates the distance
        tasks = [
            QecShardTask(
                distance=qec.distance,
                trials=size,
                root_seed=spec.seed,
                point_index=point.index,
                shard_index=shard_index,
                rounds=qec.rounds,
                physical_error_rate=qec.physical_error_rate,
                measurement_error_rate=qec.measurement_error_rate,
                noise_model=qec.noise_model,
                decoder=qec.decoder,
            )
            for shard_index, size in enumerate(
                shard_sizes(spec.shots, spec.max_shard_shots, spec.min_shards)
            )
        ]
        return PlannedPoint(
            point=point,
            cqasm="",
            num_qubits=code.num_physical_qubits,
            gate_count=0,
            compile_cached=False,
            compile_time_s=time.perf_counter() - start,
            tasks=tasks,
        )

    def _plan_compile_point(self, point: SweepPoint) -> PlannedPoint:
        """Turn one compile-and-map sweep point into a single worker task.

        Compilation is deterministic, so each point is exactly one shard;
        the pool parallelises across sweep points instead of shot batches.
        ``compile_cached`` reports whether the mapping artifact is already
        on disk (the worker will publish it otherwise).
        """
        spec = point.spec
        start = time.perf_counter()
        circuit = spec.circuit.build()
        source_cqasm = circuit_to_cqasm(circuit)
        config = spec.compile
        task = CompileShardTask(
            cqasm=source_cqasm,
            placement=config.placement,
            router=config.router,
            topology=config.topology,
            rows=config.rows,
            cols=config.cols,
            schedule_policy=config.schedule_policy,
            lookahead_window=config.lookahead_window,
            decay=config.decay,
            point_index=point.index,
            cache_dir=str(self.cache.directory) if self.cache is not None else None,
        )
        cached = False
        if self.cache is not None:
            # Cheap existence probe (the worker loads the artifact itself),
            # recorded in the cache stats so warm compile runs report hits.
            cached = self.cache.path_for(mapping_cache_key(task)).exists()
            if cached:
                self.cache.hits += 1
            else:
                self.cache.misses += 1
        return PlannedPoint(
            point=point,
            cqasm=source_cqasm,
            num_qubits=circuit.num_qubits,
            gate_count=circuit.gate_count(),
            compile_cached=cached,
            compile_time_s=time.perf_counter() - start,
            tasks=[task],
        )


# ---------------------------------------------------------------------- #
# Execution and folding
# ---------------------------------------------------------------------- #
def run_unit(unit) -> list[ShardResult]:
    """Execute one work unit in this process: a shard task or a batch chunk."""
    if isinstance(unit, (ShardTask, QecShardTask, CompileShardTask)):
        return [run_shard(unit)]
    from repro.runtime.batch import run_batch_chunk  # batch.py imports this module

    return run_batch_chunk(unit)


def execute(units: list, workers: int) -> list[ShardResult]:
    """Run work units inline (one worker or one unit) or across a process pool."""
    if workers == 1 or len(units) <= 1:
        results = [run_unit(unit) for unit in units]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(units))) as pool:
            results = list(pool.map(run_unit, units))
    return [shard for result in results for shard in result]


def fold(planned: PlannedPoint, shards: list[ShardResult], wall_time_s: float) -> PointResult:
    """Merge one point's shard results, in shard order, into its result."""
    shards = sorted(shards, key=lambda shard: shard.shard_index)
    return PointResult(
        index=planned.point.index,
        params=planned.point.params,
        shots=sum(shard.shots for shard in shards),
        num_qubits=planned.num_qubits,
        counts=merge_counts(shard.counts for shard in shards),
        errors_injected=sum(shard.errors_injected for shard in shards),
        metrics=merge_metrics([planned.metrics, *(shard.metrics for shard in shards)]),
        gate_count=planned.gate_count,
        compile_cached=planned.compile_cached,
        compile_time_s=planned.compile_time_s,
        wall_time_s=wall_time_s,
    )


def run_planned(planned: list[PlannedPoint], units: list, workers: int) -> list[PointResult]:
    """Execute a run's units and fold every planned point.

    Points share one execution, so each point's wall time is the execution
    wall of the whole run.
    """
    start = time.perf_counter()
    by_point: dict[int, list[ShardResult]] = {}
    for shard in execute(units, workers):
        by_point.setdefault(shard.point_index, []).append(shard)
    wall = time.perf_counter() - start
    return [fold(each, by_point.get(each.point.index, []), wall) for each in planned]


class Runner:
    """Constructor shared by the blocking front-ends: spec, pool size, cache."""

    def __init__(
        self,
        spec,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool = True,
        strict_verify: bool = False,
    ):
        self.spec = spec
        self.workers = max(1, workers if workers is not None else available_workers())
        if use_cache:
            self.cache: ArtifactCache | None = ArtifactCache(cache_dir or default_cache_dir())
        else:
            self.cache = None
        self.planner = Planner(self.cache, strict_verify)


class ExperimentRunner(Runner):
    """Executes one spec's sweep points and shot shards, possibly in parallel."""

    def plan_point(self, point: SweepPoint) -> PlannedPoint:
        """Plan one sweep point of any kind."""
        return self.planner.plan_point(point)

    def plan(self) -> list[PlannedPoint]:
        return [self.plan_point(point) for point in self.spec.points()]

    def run(self) -> ExperimentResult:
        start = time.perf_counter()
        planned = self.plan()
        tasks = [task for each in planned for task in each.tasks]
        return ExperimentResult(
            name=self.spec.name,
            workers=self.workers,
            points=run_planned(planned, tasks, self.workers),
            total_time_s=time.perf_counter() - start,
            cache_stats=self.cache.stats() if self.cache is not None else {},
        )
