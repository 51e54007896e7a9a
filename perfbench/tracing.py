"""Span recorder for the traced run, and the wrappers that feed it.

Nothing under ``src/`` is instrumented.  Instead :func:`install` replaces the
public functions and methods each layer exposes with wrappers that record a
:class:`Span` per call (name, start, end, parent span, point id), keeping
every span in memory until the run writes them out.  A module-level function
is replaced in every ``repro`` module that imported it by name, so calls
through ``from ... import`` bindings are seen too.

Two rules keep the numbers additive:

- a call into a metric that is already open on the same thread (say
  ``program_for`` calling ``plan_for``, both ``qx.lower``) is not recorded
  again, so each metric's time is the time of its outermost calls;
- hot leaf calls (per-gate noise injection) are *folded*: their count and
  time accumulate on the enclosing span instead of making a span each.

A span's self time is its duration minus the part of it covered by its
child spans and folded calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None = None
    ident: str | None = None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    #: Folded leaf calls made inside this span: name -> [calls, seconds].
    folded: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Folded calls made outside any span.
        self.folded: dict[str, list] = {}
        #: Point-in-time observations: ``(name, time, attrs)``.
        self.events: list[tuple[str, float, dict]] = []
        self._local = threading.local()

    def _thread_state(self) -> tuple[list[Span], set[str]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], set())
        return state

    def event(self, name: str, **attrs) -> None:
        self.events.append((name, time.perf_counter(), attrs))

    def wrap(self, fn, name: str, ident=None, on_result=None, fold=False):
        """A wrapper of ``fn`` that records each outermost call as ``name``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_names = recorder._thread_state()
            if name in open_names:
                return fn(*args, **kwargs)
            open_names.add(name)
            parent = stack[-1] if stack else None
            if fold:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    open_names.discard(name)
                    target = parent.folded if parent is not None else recorder.folded
                    entry = target.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
            span = Span(
                name,
                0.0,
                parent=parent,
                ident=ident(*args) if ident else (parent.ident if parent else None),
            )
            recorder.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                open_names.discard(name)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def total(self, name: str) -> float:
        """Seconds spent in outermost calls recorded as ``name``."""
        seconds = sum(span.duration for span in self.spans if span.name == name)
        return seconds + sum(entry[1] for entry in self._folded(name))

    def calls(self, name: str) -> int:
        count = sum(1 for span in self.spans if span.name == name)
        return count + sum(entry[0] for entry in self._folded(name))

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def _folded(self, name: str) -> list[list]:
        entries = [span.folded[name] for span in self.spans if name in span.folded]
        if name in self.folded:
            entries.append(self.folded[name])
        return entries

    def self_times(self) -> dict[Span, float]:
        """Each span's duration minus the union of its children and folded calls."""
        children: dict[Span, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = sum(entry[1] for entry in span.folded.values())
            covered += covered_time(
                [(child.start, child.end) for child in children.get(span, [])],
                span.start,
                span.end,
            )
            result[span] = span.duration - covered
        return result

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (the module prefix of each span name)."""
        table: dict[str, float] = {}
        for span, seconds in self.self_times().items():
            table[span.layer] = table.get(span.layer, 0.0) + seconds
            for name, (_, folded_seconds) in span.folded.items():
                layer = name.split(".", 1)[0]
                table[layer] = table.get(layer, 0.0) + folded_seconds
        for name, (_, folded_seconds) in self.folded.items():
            layer = name.split(".", 1)[0]
            table[layer] = table.get(layer, 0.0) + folded_seconds
        return dict(sorted(table.items()))

    def to_dict(self) -> dict:
        index = {span: position for position, span in enumerate(self.spans)}
        return {
            "spans": [
                {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(span.parent),
                    "id": span.ident,
                    "folded": span.folded,
                    **{key: value for key, value in span.attrs.items() if _plain(value)},
                }
                for span in self.spans
            ],
            "folded": self.folded,
        }


def _plain(value) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


def covered_time(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def function(self, module, attr: str, make) -> None:
        """Replace a module function in every ``repro`` module bound to it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _shard_ident(task) -> str:
    return f"{task.root_seed}:{task.point_index}"


def _classify_run(span: Span, args, result) -> None:
    from repro.qx.error_models import NoError

    simulator, program = args[0], args[1]
    if result.backend in ("density", "mps"):
        span.attrs["run_class"] = result.backend
    elif isinstance(simulator.error_model, NoError) and not program.needs_trajectories:
        span.attrs["run_class"] = "sampled"
    else:
        span.attrs["run_class"] = "trajectory"


def _shard_task(span: Span, args, result) -> None:
    span.attrs["task_id"] = id(args[0])


def _cache_outcome(span: Span, args, result) -> None:
    span.attrs["hit"] = result is not None


def _batch_plan(span: Span, args, result) -> None:
    span.attrs["circuits"] = result.plan["circuits"]
    span.attrs["stacked_circuits"] = result.plan["stacked_circuits"]


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every layer entry point the per-layer metrics are built from."""
    import repro.analysis.circuit_check as circuit_check
    import repro.cqasm.parser as parser
    import repro.cqasm.writer as writer
    import repro.qx.channels as channels
    import repro.qx.compiled as compiled
    import repro.qx.error_models as error_models
    import repro.qx.keying as keying
    import repro.runtime.aggregate as aggregate
    import repro.runtime.batch as batch
    import repro.runtime.worker as worker
    import repro.service  # noqa: F401 - bind the service's imports before scanning
    from repro.openql.compiler import Compiler
    from repro.openql.passes.decomposition import DecompositionPass
    from repro.openql.passes.mapping_pass import MappingPass
    from repro.openql.passes.optimization import OptimizationPass
    from repro.openql.passes.scheduling_pass import SchedulingPass
    from repro.qx.backends import DispatchPolicy
    from repro.qx.compiled import KernelProgram
    from repro.qx.density import DensityMatrixSimulator
    from repro.qx.simulator import QXSimulator
    from repro.qx.statevector import StateVector
    from repro.runtime.batch import BatchRunner
    from repro.runtime.cache import ArtifactCache
    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.spec import CircuitSpec

    patcher = Patcher()

    def wrapped(name, **options):
        return lambda original: recorder.wrap(original, name, **options)

    methods = [
        (CircuitSpec, "build", "core.build", {}),
        (Compiler, "compile_circuit", "openql.compile", {}),
        (DecompositionPass, "run", "openql.pass.decomposition", {}),
        (OptimizationPass, "run", "openql.pass.optimization", {}),
        (MappingPass, "run", "openql.pass.mapping", {}),
        (SchedulingPass, "run", "openql.pass.scheduling", {}),
        (
            ExperimentRunner,
            "plan_point",
            "runtime.plan",
            {"ident": lambda runner, point: f"{point.spec.seed}:{point.index}"},
        ),
        (ArtifactCache, "get", "runtime.cache.get", {"on_result": _cache_outcome}),
        (ArtifactCache, "put", "runtime.cache.put", {}),
        (DispatchPolicy, "choose", "qx.dispatch", {}),
        (DispatchPolicy, "validate", "qx.dispatch", {}),
        (QXSimulator, "run_program", "qx.run_program", {"on_result": _classify_run}),
        (KernelProgram, "apply_unitaries", "qx.evolve", {}),
        (DensityMatrixSimulator, "run_channels", "qx.evolve", {}),
        (StateVector, "sample_counts", "qx.sample", {}),
        (BatchRunner, "plan", "batch.plan", {}),
        (BatchRunner, "run", "batch.run", {"on_result": _batch_plan}),
    ]
    for cls, attr, name, options in methods:
        patcher.method(cls, attr, wrapped(name, **options))
    for cls in [error_models.ErrorModel, *_subclasses(error_models.ErrorModel)]:
        for attr in ("apply_after_gate", "flip_measurement"):
            if attr in cls.__dict__:
                patcher.method(cls, attr, wrapped("qx.noise", fold=True))

    functions = [
        (writer, "circuit_to_cqasm", "cqasm.write", {}),
        (parser, "cqasm_to_circuit", "cqasm.parse", {}),
        (circuit_check, "report", "analysis.verify", {}),
        (compiled, "lower", "qx.lower", {}),
        (compiled, "program_for", "qx.lower", {}),
        (compiled, "plan_for", "qx.lower", {}),
        (worker, "run_shard", "runtime.shard", {"ident": _shard_ident, "on_result": _shard_task}),
        (keying, "sample_index_counts", "qx.sample", {}),
        (channels, "compile_channels", "qx.channels.compile", {}),
        (aggregate, "merge_counts", "runtime.merge", {}),
        (aggregate, "merge_metrics", "runtime.merge", {}),
        (batch, "run_batch_chunk", "batch.chunk", {}),
    ]
    for module, attr, name, options in functions:
        patcher.function(module, attr, wrapped(name, **options))
    return patcher


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics every workload reports (service ones excluded).

    A point counts as executed when it was planned (``plan_point``) or run as
    a batch circuit.
    """
    gets = recorder.named("runtime.cache.get")
    shards = [span.duration for span in recorder.named("runtime.shard")]
    runs = [span.attrs.get("run_class") for span in recorder.named("qx.run_program")]
    batch_runs = recorder.named("batch.run")
    batch_circuits = sum(span.attrs.get("circuits", 0) for span in batch_runs)
    stacked = sum(span.attrs.get("stacked_circuits", 0) for span in batch_runs)
    self_times = recorder.self_times()
    evolve_calls = recorder.calls("qx.evolve")
    points_executed = recorder.calls("runtime.plan") + batch_circuits
    return {
        "core.build_s": recorder.total("core.build"),
        "openql.compile_s": recorder.total("openql.compile"),
        "openql.pass.decomposition_s": recorder.total("openql.pass.decomposition"),
        "openql.pass.optimization_s": recorder.total("openql.pass.optimization"),
        "openql.pass.mapping_s": recorder.total("openql.pass.mapping"),
        "openql.pass.scheduling_s": recorder.total("openql.pass.scheduling"),
        "cqasm.write_s": recorder.total("cqasm.write"),
        "cqasm.parse_s": recorder.total("cqasm.parse"),
        "analysis.verify_s": recorder.total("analysis.verify"),
        "qx.lower_s": recorder.total("qx.lower"),
        "qx.lower_calls": recorder.calls("qx.lower"),
        "runtime.plan_s": recorder.total("runtime.plan"),
        "runtime.cache.get_s": recorder.total("runtime.cache.get"),
        "runtime.cache.put_s": recorder.total("runtime.cache.put"),
        "runtime.cache.hit_ratio": (
            sum(1 for span in gets if span.attrs.get("hit")) / len(gets) if gets else 0.0
        ),
        "runtime.shards": len(shards),
        "runtime.shard_s": median_or_zero(shards),
        "runtime.shard_max_s": max(shards, default=0.0),
        "qx.dispatch_s": recorder.total("qx.dispatch"),
        "qx.runs.sampled": runs.count("sampled"),
        "qx.runs.trajectory": runs.count("trajectory"),
        "qx.runs.density": runs.count("density"),
        "qx.runs.mps": runs.count("mps"),
        "qx.evolve_s": recorder.total("qx.evolve"),
        "qx.evolve_calls": evolve_calls,
        "qx.evolve_per_point": evolve_calls / points_executed if points_executed else 0.0,
        "qx.sample_s": recorder.total("qx.sample"),
        "qx.run_program_self_s": sum(
            self_times[span] for span in recorder.named("qx.run_program")
        ),
        "qx.noise_calls": recorder.calls("qx.noise"),
        "qx.noise_s": recorder.total("qx.noise"),
        "qx.channels.compile_s": recorder.total("qx.channels.compile"),
        "runtime.merge_s": recorder.total("runtime.merge"),
        "batch.plan_s": recorder.total("batch.plan"),
        "batch.chunk_s": recorder.total("batch.chunk"),
        "batch.chunks": recorder.calls("batch.chunk"),
        "batch.stacked_fraction": stacked / batch_circuits if batch_circuits else 0.0,
    }


def install_service(recorder: SpanRecorder) -> Patcher:
    """:func:`install`, plus the service's enqueue and point-completion events."""
    from repro.service.engine import JobService
    from repro.service.scheduler import FairScheduler

    patcher = install(recorder)

    def enqueue(original):
        def push(self, client, weight, item, cost=1.0):
            recorder.event("service.enqueue", task=item[1])
            return original(self, client, weight, item, cost)

        return push

    def complete(original):
        async def complete_execution(self, execution):
            points = [(job.job_id, point.index) for job, point in execution.subscribers]
            recorder.event("service.complete", points=points)
            return await original(self, execution)

        return complete_execution

    patcher.method(FairScheduler, "push", enqueue)
    patcher.method(JobService, "_complete_execution", complete)
    return patcher


def service_metrics(recorder: SpanRecorder | None, outcome) -> dict[str, float]:
    """Service per-layer metrics of one traced ``service_session``.

    ``outcome`` is its :class:`~perfbench.drive.ServiceOutcome`; without a
    service (``outcome is None``) every service metric is 0.
    """
    names = (
        "service.admit_s", "service.queue_wait_s", "service.execute_s",
        "service.units_per_point", "service.deliver_s", "service.dedup_ratio",
        "service.backlog_max",
    )
    if outcome is None:
        return dict.fromkeys(names, 0.0)
    enqueued = {
        id(attrs["task"]): at for name, at, attrs in recorder.events if name == "service.enqueue"
    }
    shards = recorder.named("runtime.shard")
    waits = [
        span.start - enqueued[span.attrs["task_id"]]
        for span in shards
        if span.attrs.get("task_id") in enqueued
    ]
    completed = {
        key: at
        for name, at, attrs in recorder.events
        if name == "service.complete"
        for key in attrs["points"]
    }
    deliveries = outcome.fleet + outcome.interactive
    seen = {
        (delivery.job_id, index): at
        for delivery in deliveries
        for index, at in delivery.point_seen.items()
    }
    counters = outcome.counters
    executed = counters["points_executed"]
    reused = counters["points_from_cache"] + counters["points_deduped_inflight"]
    return {
        "service.admit_s": median_or_zero(
            [d.planned_s - d.sent_s for d in deliveries if d.planned_s is not None]
        ),
        "service.queue_wait_s": median_or_zero(waits),
        "service.execute_s": sum(span.duration for span in shards),
        "service.units_per_point": len(shards) / executed if executed else 0.0,
        "service.deliver_s": median_or_zero(
            [seen[key] - at for key, at in completed.items() if key in seen]
        ),
        "service.dedup_ratio": reused / (reused + executed) if reused + executed else 0.0,
        "service.backlog_max": outcome.backlog_max,
    }
