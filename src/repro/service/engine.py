"""The asyncio job engine: fair scheduling, dedup, streaming, resume.

:class:`JobService` is the daemon's core, independent of any transport.
Submissions become :class:`~repro.service.jobs.Job` objects; each job's
sweep points (``spec.points()``, the runtime's one enumeration) are
classified exactly once:

- **cache hit** — the point's content-addressed key is already in the
  artifact cache, so its merged result is served immediately without
  planning or execution;
- **in flight** — another tenant is already executing an identical point,
  so this job subscribes to that execution and receives the result when it
  lands (exactly one execution, many subscribers);
- **fresh** — the runtime's :class:`~repro.runtime.runner.Planner` plans
  the point (compile + shard, in the planning executor) and its shard
  tasks enter the weighted-fair scheduler.

A pump coroutine moves shard tasks from the scheduler into a process pool
as slots free up; every blocking runtime entry point — planning, shard
execution, cache and journal I/O — runs in an executor, never on the event
loop (contract rule REPRO008).  A point completes when all its shards have
landed, and the runtime's :func:`~repro.runtime.runner.fold` merges them in
shard order, so a job's histograms are bit-identical to an
:class:`~repro.runtime.runner.ExperimentRunner` or
:class:`~repro.runtime.batch.BatchRunner` run of the same spec.

Durability: accepted jobs and committed point keys are journalled
(flush + fsync) before the daemon acts on them.  On restart with the same
data/cache directories the service resubmits every non-terminal job; the
points whose results already landed in the cache are served from it, so a
killed daemon re-executes only uncached points and still reproduces the
uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.cache import ArtifactCache
from repro.runtime.runner import PlannedPoint, Planner, available_workers, fold
from repro.runtime.spec import SweepPoint
from repro.runtime.worker import run_shard
from repro.service.jobs import Job, parse_job_spec, point_key
from repro.service.journal import JobJournal
from repro.service.scheduler import FairScheduler


@dataclass
class _PointExecution:
    """One in-flight point: shard bookkeeping plus its subscriber jobs.

    Created as a *claim* (``planned is None``) before the owning job's
    first await, so concurrent admissions of an identical point always see
    it in the in-flight table and subscribe instead of planning a second
    execution.  ``planned``/``pending`` are filled in once planning lands.
    """

    key: str
    planned: PlannedPoint | None = None
    pending: set[int] = field(default_factory=set)
    results: dict[int, object] = field(default_factory=dict)
    #: ``(job, point)`` pairs to deliver to; the first entry claimed the
    #: execution, later ones joined via in-flight dedup.
    subscribers: list[tuple[Job, SweepPoint]] = field(default_factory=list)
    started_s: float = field(default_factory=time.monotonic)


class JobService:
    """Transport-agnostic async experiment service over the runtime."""

    def __init__(
        self,
        cache_dir: str | Path,
        data_dir: str | Path,
        workers: int | None = None,
        use_processes: bool = True,
        max_cache_bytes: int | None = None,
        resume: bool = True,
        strict_verify: bool = False,
    ) -> None:
        self.cache = ArtifactCache(cache_dir)
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.data_dir / "journal.ndjson")
        self.workers = max(1, workers if workers is not None else available_workers())
        self.use_processes = use_processes
        self.max_cache_bytes = max_cache_bytes
        self.resume = resume
        self.strict_verify = strict_verify

        self.jobs: dict[str, Job] = {}
        self.counters = {
            "jobs_submitted": 0,
            "jobs_resumed": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "points_executed": 0,
            "points_from_cache": 0,
            "points_deduped_inflight": 0,
        }
        self._inflight: dict[str, _PointExecution] = {}
        self._scheduler = FairScheduler()
        self._job_counter = 0
        self._closing = False
        self._started = False
        #: Why the process pool can run no more shards, once a worker died.
        self._pool_fault: str | None = None
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind loop state, start the pump, and resume journalled jobs."""
        self._loop = asyncio.get_running_loop()
        # Single thread: planning, cache I/O and journal appends stay
        # strictly ordered without blocking the event loop.
        self._io = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svc-io")
        if self.use_processes:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        else:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        self._slots = self.workers
        self._wake = asyncio.Condition()
        self._pump_task = asyncio.create_task(self._pump())
        self._started = True
        # Scan the cache once off-loop; stats() then reports its size in O(1).
        await self._run_io(self.cache.size_bytes)
        if self.resume:
            await self._resume_from_journal()

    async def close(self) -> None:
        """Stop scheduling, cancel in-flight units, release executors."""
        if not self._started:
            return
        self._closing = True
        async with self._wake:
            self._wake.notify_all()
        await self._pump_task
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # End every live stream with a terminal event; the jobs stay
        # non-terminal in the journal, so the next start resumes them.
        for job in self.jobs.values():
            if not job.finished:
                job.state = "failed"
                job.deliver(
                    {
                        "event": "error",
                        "job_id": job.job_id,
                        "message": "service shutting down; job will resume on restart",
                    }
                )
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._io.shutdown(wait=True)
        self.journal.close()
        self._started = False

    async def _resume_from_journal(self) -> None:
        """Resubmit every journalled job that never reached a terminal state."""
        job_records: dict[str, dict] = {}
        terminal: set[str] = set()
        for record in self.journal.replay():
            kind = record.get("type")
            if kind == "job":
                job_records[record["job_id"]] = record
            elif kind in ("job_done", "job_failed"):
                terminal.add(record["job_id"])
        for job_id in job_records:
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._job_counter = max(self._job_counter, int(suffix) + 1)
        for job_id, record in job_records.items():
            if job_id in terminal:
                continue
            self.counters["jobs_resumed"] += 1
            await self.submit(
                client=record["client"],
                kind=record["kind"],
                payload=record["payload"],
                priority=record.get("priority", 1),
                name=record.get("name", ""),
                job_id=job_id,
                journal=False,
            )

    # ------------------------------------------------------------------ #
    # Submission and admission.
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        client: str,
        kind: str,
        payload: dict,
        priority: int = 1,
        name: str = "",
        job_id: str | None = None,
        journal: bool = True,
    ) -> dict:
        """Accept a job; returns the ``accepted`` event once it is durable."""
        if self._closing:
            raise RuntimeError("service is shutting down")
        if not isinstance(priority, int) or priority < 1:
            raise ValueError(f"priority must be an int >= 1, got {priority!r}")
        if job_id is None:
            job_id = f"job-{self._job_counter:06d}"
            self._job_counter += 1
        job = Job(
            job_id=job_id,
            client=client,
            priority=priority,
            kind=kind,
            payload=payload,
            name=name,
        )
        if journal:
            await self._run_io(
                self.journal.append,
                {
                    "type": "job",
                    "job_id": job_id,
                    "client": client,
                    "priority": priority,
                    "kind": kind,
                    "name": name,
                    "payload": payload,
                },
            )
        self.jobs[job_id] = job
        self.counters["jobs_submitted"] += 1
        accepted = {"event": "accepted", "job_id": job_id, "client": client}
        job.deliver(accepted)
        self._spawn(self._admit(job))
        return accepted

    async def _admit(self, job: Job) -> None:
        """Classify a job's points into cached / in-flight / fresh work."""
        try:
            spec = parse_job_spec(job.payload, job.kind)
            points = spec.points()
            job.name = job.name or spec.name
            job.points_total = len(points)
            job.state = "running"
            planner = Planner(self.cache, self.strict_verify)
            from_cache = joined = fresh = 0
            for point in points:
                key = point_key(point)
                execution = self._inflight.get(key)
                if execution is not None:
                    execution.subscribers.append((job, point))
                    self.counters["points_deduped_inflight"] += 1
                    joined += 1
                    continue
                # Claim the key synchronously — no await between the
                # in-flight miss and the insert — so a concurrent identical
                # admission subscribes here instead of executing twice.
                execution = _PointExecution(key=key, subscribers=[(job, point)])
                self._inflight[key] = execution
                cached = await self._run_io(self.cache.get, key)
                if isinstance(cached, dict):
                    self._inflight.pop(key, None)
                    self.counters["points_from_cache"] += 1
                    from_cache += 1
                    for sub_job, sub_point in execution.subscribers:
                        await self._deliver_point(sub_job, sub_point, cached, source="cache")
                    continue
                try:
                    planned = await self._run_io(planner.plan_point, point)
                except Exception:
                    self._inflight.pop(key, None)
                    for sub_job, _ in execution.subscribers:
                        if sub_job is not job:
                            await self._fail_job(sub_job, f"planning failed for point {key}")
                    raise
                execution.planned = planned
                execution.pending = {task.shard_index for task in planned.tasks}
                self.counters["points_executed"] += 1
                fresh += 1
                for task in planned.tasks:
                    cost = getattr(task, "shots", None) or getattr(task, "trials", None) or 1
                    self._scheduler.push(
                        job.client, weight=job.priority, item=(key, task), cost=cost
                    )
                async with self._wake:
                    self._wake.notify_all()
            job.deliver(
                {
                    "event": "planned",
                    "job_id": job.job_id,
                    "points_total": job.points_total,
                    "points_cached": from_cache,
                    "points_inflight": joined,
                    "points_fresh": fresh,
                }
            )
            if job.points_done == job.points_total and not job.finished:
                await self._finish_job(job)
        except Exception as exc:  # noqa: BLE001 - job errors become events
            await self._fail_job(job, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------ #
    # Execution pump.
    # ------------------------------------------------------------------ #
    async def _pump(self) -> None:
        """Move shard units from the fair scheduler into free pool slots."""
        while True:
            async with self._wake:
                await self._wake.wait_for(
                    lambda: self._closing or (self._slots > 0 and len(self._scheduler) > 0)
                )
                if self._closing:
                    return
                unit = self._scheduler.pop()
                self._slots -= 1
            self._spawn(self._run_unit(unit))

    async def _run_unit(self, unit) -> None:
        """Execute one shard in the pool and fold it into its point."""
        key, shard_task = unit.item
        try:
            result = await self._loop.run_in_executor(self._pool, run_shard, shard_task)
        except Exception as exc:  # noqa: BLE001 - worker crashes fail the point
            if isinstance(exc, BrokenProcessPool) and self._pool_fault is None:
                self._pool_fault = f"process pool broken: {exc}"
            execution = self._inflight.pop(key, None)
            if execution is not None:
                for job, _ in execution.subscribers:
                    await self._fail_job(job, f"shard failed: {type(exc).__name__}: {exc}")
        else:
            execution = self._inflight.get(key)
            if execution is not None and result.shard_index in execution.pending:
                execution.results[result.shard_index] = result
                execution.pending.discard(result.shard_index)
                if not execution.pending:
                    await self._complete_execution(execution)
        finally:
            async with self._wake:
                self._slots += 1
                self._wake.notify_all()

    async def _complete_execution(self, execution: _PointExecution) -> None:
        """Fold the point's shards, commit it, and fan out to subscribers."""
        self._inflight.pop(execution.key, None)
        merged = fold(
            execution.planned,
            list(execution.results.values()),
            wall_time_s=time.monotonic() - execution.started_s,
        ).to_dict()
        await self._run_io(self.cache.put, execution.key, merged)
        await self._run_io(self.journal.append, {"type": "point", "key": execution.key})
        if self.max_cache_bytes is not None:
            await self._run_io(self.cache.prune, self.max_cache_bytes)
        for position, (job, point) in enumerate(execution.subscribers):
            source = "executed" if position == 0 else "inflight"
            await self._deliver_point(job, point, merged, source=source)

    async def _deliver_point(
        self, job: Job, point: SweepPoint, merged: dict, source: str
    ) -> None:
        """Emit one point result into a job's stream and check completion."""
        if job.finished:
            return
        metrics = dict(merged.get("metrics", {}))
        for name, value in self.cache.stats().items():
            metrics[f"artifact_cache_{name}"] = value
        metrics["point_source"] = source
        result = {
            "index": point.index,
            "params": dict(point.params),
            "shots": merged["shots"],
            "num_qubits": merged["num_qubits"],
            "counts": dict(merged["counts"]),
            "errors_injected": merged["errors_injected"],
            "gate_count": merged["gate_count"],
            "compile_cached": merged.get("compile_cached", False),
            "compile_time_s": merged.get("compile_time_s", 0.0),
            "wall_time_s": merged.get("wall_time_s", 0.0),
            "metrics": metrics,
        }
        job.point_results.append(result)
        job.points_done += 1
        job.deliver(
            {
                "event": "point",
                "job_id": job.job_id,
                "index": point.index,
                "params": dict(point.params),
                "source": source,
                "result": result,
            }
        )
        if job.points_done == job.points_total and job.state == "running":
            await self._finish_job(job)

    async def _finish_job(self, job: Job) -> None:
        if job.finished:
            return
        job.state = "done"
        points = sorted(job.point_results, key=lambda entry: entry["index"])
        result = {
            "name": job.name,
            "workers": self.workers,
            "total_time_s": round(time.monotonic() - job.submitted_s, 6),
            "total_shots": sum(entry["shots"] for entry in points),
            "cache_stats": self.cache.stats(),
            "points": points,
        }
        await self._run_io(self.journal.append, {"type": "job_done", "job_id": job.job_id})
        self.counters["jobs_completed"] += 1
        job.deliver({"event": "done", "job_id": job.job_id, "result": result})

    async def _fail_job(self, job: Job, message: str) -> None:
        if job.finished:
            return
        await self._run_io(self.journal.append, {"type": "job_failed", "job_id": job.job_id})
        self.counters["jobs_failed"] += 1
        job.fail(message)

    # ------------------------------------------------------------------ #
    # Introspection and streaming.
    # ------------------------------------------------------------------ #
    async def stream(self, job_id: str):
        """Async-iterate a job's events: full replay, then live to terminal."""
        job = self.jobs[job_id]
        queue: asyncio.Queue = asyncio.Queue()
        job.queues.append(queue)
        try:
            # Snapshot after attaching: events recorded before the snapshot
            # replay from the buffer, later ones arrive via the queue — no
            # gap, no duplicate.
            snapshot = len(job.events)
            for event in job.events[:snapshot]:
                yield event
                if event.get("event") in ("done", "error"):
                    return
            while True:
                event = await queue.get()
                yield event
                if event.get("event") in ("done", "error"):
                    return
        finally:
            job.queues.remove(queue)

    def health(self) -> dict:
        """``{"ok": True}``, or ``{"ok": False, "reason": ...}`` once the pool broke.

        A worker that dies abruptly breaks a process pool for good: every
        later shard fails with ``BrokenProcessPool`` until the daemon restarts.
        """
        if self._pool_fault is not None:
            return {"ok": False, "reason": self._pool_fault}
        return {"ok": True}

    def status(self, job_id: str) -> dict:
        return self.jobs[job_id].status()

    def stats(self) -> dict:
        return {
            "counters": dict(self.counters),
            "cache": {**self.cache.stats(), "size_bytes": self.cache.size_bytes()},
            "backlog": self._scheduler.backlog(),
            "inflight_points": len(self._inflight),
            "jobs": len(self.jobs),
            "workers": self.workers,
            "slots_free": self._slots if self._started else self.workers,
        }

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    async def _run_io(self, fn, *args):
        """Run blocking planning/disk work on the ordered I/O thread."""
        return await self._loop.run_in_executor(self._io, lambda: fn(*args))

    def _spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
