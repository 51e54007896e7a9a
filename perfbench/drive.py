"""Drive the workloads through the public entry points and check the results.

``closed_loop`` sends a workload's requests one at a time through
``ExperimentRunner`` or ``BatchRunner``; ``service_session`` runs an
in-process ``JobService`` with the fleet tenant (closed loop of batch jobs)
and the interactive tenant (open loop at a fixed rate).  Both return one
:class:`Delivery` per request; :class:`Judge` checks every delivered
histogram against its reference.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks, workloads
from perfbench.workloads import Request
from repro.runtime import BatchRunner, BatchSpec, ExperimentRunner, ExperimentSpec
from repro.service import JobService

#: Seconds to wait for outstanding service jobs once the window has closed.
DRAIN_TIMEOUT_S = 120.0


@dataclass
class Delivery:
    """What one request got back, and when."""

    request: Request
    #: When the request was due (open loop) or sent (closed loop).
    due_s: float
    sent_s: float = 0.0
    done_s: float | None = None
    #: ``(point index, shots, counts)`` of every delivered point.
    points: list[tuple[int, int, dict]] = field(default_factory=list)
    error: str | None = None
    job_id: str | None = None
    planned_s: float | None = None
    #: Point index -> when the client saw its ``point`` event.
    point_seen: dict[int, float] = field(default_factory=dict)
    #: Indices of points that failed a check, and each point's histogram
    #: digest (both set by :class:`Judge`).
    bad_points: set[int] = field(default_factory=set)
    digests: dict[int, str] = field(default_factory=dict)

    def correct_shots(self) -> int:
        return sum(shots for index, shots, _ in self.points if index not in self.bad_points)

    @property
    def latency(self) -> float:
        """Due time to result; a failed request misses every latency limit."""
        if self.error is not None or self.done_s is None:
            return math.inf
        return self.done_s - self.due_s


# ---------------------------------------------------------------------- #
# ExperimentRunner / BatchRunner, closed loop
# ---------------------------------------------------------------------- #
def make_runner(request: Request, workers: int, cache_dir: Path):
    """The ``ExperimentRunner`` or ``BatchRunner`` for a request's kind."""
    if request.kind == "experiment":
        return ExperimentRunner(
            ExperimentSpec.from_dict(request.spec), workers=workers, cache_dir=cache_dir
        )
    return BatchRunner(BatchSpec.from_dict(request.spec), workers=workers, cache_dir=cache_dir)


def execute(request: Request, workers: int, cache_dir: Path) -> Delivery:
    """Run one request through its runner; time only ``run()``."""
    runner = make_runner(request, workers, cache_dir)
    start = time.perf_counter()
    delivery = Delivery(request, due_s=start, sent_s=start)
    try:
        result = runner.run()
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        delivery.done_s = time.perf_counter()
        delivery.error = f"{type(exc).__name__}: {exc}"
        return delivery
    delivery.done_s = time.perf_counter()
    points = result.points if request.kind == "experiment" else result.circuits
    delivery.points = [(point.index, point.shots, point.counts) for point in points]
    return delivery


def _would_overrun(deliveries: list[Delivery], start: float, seconds: float) -> bool:
    """Whether a request as long as the median so far would end after ``seconds``."""
    typical = statistics.median(d.done_s - d.sent_s for d in deliveries)
    return time.perf_counter() - start + typical > seconds


def closed_loop(
    requests, seconds: float, workers: int, workdir: Path, judge: Judge | None = None
) -> list[Delivery]:
    """Send requests back to back until the next one would overrun ``seconds``.

    At least ``MIN_REQUESTS`` requests are sent, so a run has repeats.  A
    fresh request gets a cold artifact cache of its own; a repeat re-uses its
    original's, now warm, cache.  With a ``judge``, each delivery is judged as
    it lands, outside the timed call, so the process does not hoard histograms.
    """
    deliveries: list[Delivery] = []
    start = time.perf_counter()
    for request in requests:
        if len(deliveries) >= workloads.MIN_REQUESTS and _would_overrun(
            deliveries, start, seconds
        ):
            break
        cache = workdir / f"cache-{request.index if request.fresh else request.repeat_of}"
        deliveries.append(execute(request, workers, cache))
        if judge is not None:
            judge(deliveries[-1])
    return deliveries


# ---------------------------------------------------------------------- #
# JobService: fleet tenant + open-loop interactive tenant
# ---------------------------------------------------------------------- #
@dataclass
class ServiceOutcome:
    fleet: list[Delivery]
    interactive: list[Delivery]
    #: From the first submission until every job has been delivered.
    wall_s: float
    #: ``JobService.stats()["counters"]`` accumulated after the warm-up job.
    counters: dict
    backlog_max: int = 0


async def _submit_and_wait(service: JobService, request: Request, due: float) -> Delivery:
    delivery = Delivery(request, due_s=due, sent_s=time.perf_counter())
    try:
        accepted = await service.submit(
            client=request.tenant, kind=request.kind, payload=request.spec
        )
        delivery.job_id = accepted["job_id"]
        async for event in service.stream(delivery.job_id):
            now = time.perf_counter()
            kind = event["event"]
            if kind == "planned":
                delivery.planned_s = now
            elif kind == "point":
                delivery.point_seen[event["index"]] = now
            elif kind == "done":
                delivery.done_s = now
                delivery.points = [
                    (point["index"], point["shots"], point["counts"])
                    for point in event["result"]["points"]
                ]
            elif kind == "error":
                delivery.error = event["message"]
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        delivery.error = f"{type(exc).__name__}: {exc}"
    if delivery.done_s is None:
        delivery.done_s = time.perf_counter()
    return delivery


async def start_service(workdir: Path, workers: int, use_processes: bool = True):
    """Start a ``JobService`` and run one warm-up job so its pool exists.

    The caller closes the service.
    """
    service = JobService(
        cache_dir=workdir / "cache",
        data_dir=workdir / "data",
        workers=workers,
        use_processes=use_processes,
    )
    await service.start()
    warmup = await _submit_and_wait(
        service, Request(-1, "experiment", workloads.WARMUP_SPEC, "warmup"), time.perf_counter()
    )
    if warmup.error is not None:
        await service.close()
        raise RuntimeError(f"warm-up job failed: {warmup.error}")
    return service


async def service_session(
    seed: int,
    seconds: float,
    workers: int,
    workdir: Path,
    use_processes: bool = True,
    fleet_jobs: int | None = None,
    instrument=None,
) -> ServiceOutcome:
    """One service lifetime: start, warm up, drive both tenants, drain, close.

    The fleet tenant submits fresh batch jobs back to back while the next
    one would still finish inside ``seconds`` (or exactly ``fleet_jobs`` of
    them); the interactive tenant sends jobs at their due times until the
    fleet tenant is done.  ``instrument`` (traced run only) is called after
    the warm-up and returns the patcher to undo before the service closes.
    """
    service = await start_service(workdir, workers, use_processes)
    patcher = None
    try:
        before = dict(service.stats()["counters"])
        if instrument is not None:
            patcher = instrument()
        fleet: list[Delivery] = []
        interactive: list[Delivery] = []
        fleet_done = asyncio.Event()
        backlog = [0]
        start = time.perf_counter()

        async def fleet_tenant() -> None:
            try:
                for request in workloads.service_fleet(seed):
                    if fleet_jobs is not None:
                        if len(fleet) >= fleet_jobs:
                            break
                    elif fleet and _would_overrun(fleet, start, seconds):
                        break
                    fleet.append(await _submit_and_wait(service, request, time.perf_counter()))
            finally:
                fleet_done.set()

        async def interactive_tenant() -> list[tuple[Request, float, asyncio.Task]]:
            sent = []
            for request in workloads.service_interactive(seed):
                due = start + request.due_s
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                if fleet_done.is_set():
                    break
                task = asyncio.create_task(_submit_and_wait(service, request, due))
                sent.append((request, due, task))
            return sent

        async def watch_backlog() -> None:
            while not fleet_done.is_set():
                backlog[0] = max(backlog[0], sum(service.stats()["backlog"].values()))
                await asyncio.sleep(0.02)

        watcher = asyncio.create_task(watch_backlog())
        fleet_task = asyncio.create_task(fleet_tenant())
        sent = await interactive_tenant()
        await fleet_task
        await watcher
        if sent:
            await asyncio.wait([task for _, _, task in sent], timeout=DRAIN_TIMEOUT_S)
        for request, due, task in sent:
            if task.done():
                interactive.append(task.result())
            else:
                task.cancel()
                interactive.append(
                    Delivery(request, due_s=due, error="not delivered before the drain timeout")
                )
        await asyncio.gather(*(task for _, _, task in sent), return_exceptions=True)
        wall = time.perf_counter() - start
        after = service.stats()["counters"]
        counters = {key: after[key] - before.get(key, 0) for key in after}
        return ServiceOutcome(fleet, interactive, wall, counters, backlog[0])
    finally:
        if patcher is not None:
            patcher.undo()
        await service.close()


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def point_specs(request: Request) -> dict[int, tuple[int, object, str]]:
    """Point index -> (requested shots, source CircuitSpec, platform factory)."""
    if request.kind == "experiment":
        spec = ExperimentSpec.from_dict(request.spec)
        return {
            point.index: (point.spec.shots, point.spec.circuit, point.spec.platform.factory)
            for point in spec.points()
        }
    spec = BatchSpec.from_dict(request.spec)
    return {
        index: (spec.resolved_circuit(index)[0], entry.circuit, spec.platform.factory)
        for index, entry in enumerate(spec.circuits)
    }


class StaleReference(Exception):
    """A stored reference no longer describes the circuit the program runs."""


@dataclass
class Pool:
    """The summed histograms of every fresh delivery of one reference."""

    expectation: checks.Expectation
    #: Shots per outcome (an array, not a dict of keys: a fleet holds many pools).
    counts: np.ndarray
    shots: int = 0
    #: ``(delivery, point index)`` of each pooled histogram.
    members: list[tuple[Delivery, int]] = field(default_factory=list)

    def add(self, counts: dict[str, int], shots: int) -> None:
        weights, outcomes = checks.observed(counts, self.expectation.num_bits)
        np.add.at(self.counts, outcomes, weights)
        self.shots += shots


class Judge:
    """Checks deliveries in arrival order and keeps only what later checks need.

    Fresh work is compared with its reference, one histogram at a time and,
    in :meth:`verdict`, pooled per reference: fresh deliveries of one circuit
    are independent samples of one distribution, and the pooled histogram
    resolves deviations a single delivery's shots cannot.  A repeat must be
    bit-identical to the first delivery of the request it re-sends (when that
    one succeeded), compared by per-point histogram digest, so histograms can
    be dropped once judged.  An errored request fails all its points.
    """

    def __init__(self) -> None:
        self._expectations: dict[str, checks.Expectation] = {}
        self._noisy: dict[str, checks.NoisyReference] | None = None
        #: Reference key -> why the reference cannot be used.
        self._stale: dict[str, str] = {}
        self._pools: dict[str, Pool] = {}
        #: (tenant, request index) of each fresh delivery -> its point digests.
        self._firsts: dict[tuple[str, int], dict[int, str]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: Digest of the first fresh delivery's histograms (recorded, not gated).
        self.digest = ""

    def expectation(
        self, request: Request, index: int, circuit_spec, factory: str
    ) -> tuple[str, checks.Expectation]:
        """``(reference key, reference)`` of a request's point ``index``.

        Raises :class:`StaleReference` when a stored noisy reference describes
        another compiled circuit than the program now produces for the point.
        """
        if factory == "perfect":
            key = json.dumps(asdict(circuit_spec), sort_keys=True)
            if key not in self._expectations:
                self._expectations[key] = checks.circuit_expectation(circuit_spec.build())
            return key, self._expectations[key]
        kwargs = circuit_spec.kwargs
        key = checks.noisy_key(kwargs["seed"], kwargs["num_qubits"])
        if key not in self._expectations and key not in self._stale:
            try:
                self._expectations[key] = self._noisy_expectation(request, index, key)
            except StaleReference as exc:
                self._stale[key] = str(exc)
        if key in self._stale:
            raise StaleReference(self._stale[key])
        return key, self._expectations[key]

    def _noisy_expectation(self, request: Request, index: int, key: str) -> checks.Expectation:
        if self._noisy is None:
            self._noisy = checks.load_noisy_reference()
        rerun = "rerun python3 perfbench/make_reference.py"
        if key not in self._noisy:
            raise StaleReference(f"no stored reference for circuit {key}; {rerun}")
        reference = self._noisy[key]
        spec = ExperimentSpec.from_dict(request.spec)
        point = next(point for point in spec.points() if point.index == index)
        planned = ExperimentRunner(spec, workers=1, use_cache=False).plan_point(point)
        if checks.cqasm_digest(planned.cqasm) != reference.compiled_cqasm_sha256:
            raise StaleReference(
                f"reference {key} is stale: the compiler no longer produces the circuit "
                f"it describes; {rerun}"
            )
        return reference.expectation

    def __call__(self, delivery: Delivery) -> None:
        """Check one delivery, set its ``bad_points`` and digests, drop its counts."""
        request = delivery.request
        expected = point_specs(request)
        self.attempted += len(expected)
        delivery.bad_points = self._bad_points(delivery, expected)
        self.failed += len(delivery.bad_points)
        if request.fresh and delivery.digests:
            self._firsts[(request.tenant, request.index)] = delivery.digests
            if not self.digest:
                self.digest = checks.histogram_digest([c for _, _, c in delivery.points])
        delivery.points = [(index, shots, None) for index, shots, _ in delivery.points]

    def _bad_points(self, delivery: Delivery, expected: dict) -> set[int]:
        request = delivery.request
        label = f"{request.tenant} request {request.index}"
        if delivery.error is not None:
            self.failures.append(f"{label}: {delivery.error}")
            return set(expected)
        got = {index: (shots, counts) for index, shots, counts in delivery.points}
        if sorted(got) != sorted(expected):
            self.failures.append(f"{label}: points {sorted(got)} != {sorted(expected)}")
            return set(expected)
        delivery.digests = digests(delivery.points)
        original = None if request.fresh else self._firsts.get((request.tenant, request.repeat_of))
        if original is not None:
            return self.identical(
                f"{label} (repeat of {request.repeat_of})", original, delivery.digests
            )
        bad = set()
        for index, (shots, circuit_spec, factory) in expected.items():
            reported, counts = got[index]
            try:
                key, expectation = self.expectation(request, index, circuit_spec, factory)
            except StaleReference as exc:
                bad.add(index)
                self.failures.append(f"{label} point {index}: {exc}")
                continue
            problems = checks.check_histogram(counts, shots, expectation)
            if reported != shots:
                problems.append(f"point reports {reported} shots, {shots} requested")
            if problems:
                bad.add(index)
                self.failures += [f"{label} point {index}: {problem}" for problem in problems]
                continue
            if key not in self._pools:
                self._pools[key] = Pool(expectation, np.zeros_like(expectation.probabilities, int))
            self._pools[key].add(counts, shots)
            self._pools[key].members.append((delivery, index))
        return bad

    def identical(self, label: str, first: dict[int, str], second: dict[int, str]) -> set[int]:
        """Point indices whose histogram digests differ between two deliveries."""
        indices = first.keys() | second.keys()
        bad = {index for index in indices if first.get(index) != second.get(index)}
        if bad:
            self.failures.append(f"{label}: {len(bad)} histograms differ")
        return bad

    def mark_bad(self, delivery: Delivery, indices: set[int]) -> None:
        """Fail points of an already judged delivery (each point counts once)."""
        new = set(indices) - delivery.bad_points
        delivery.bad_points |= new
        self.failed += len(new)

    def _judge_pools(self) -> None:
        """Check each reference's pooled histogram; a failing pool fails its members."""
        for pool in self._pools.values():
            if len(pool.members) < 2:
                continue  # one histogram, already checked on its own
            outcomes = np.flatnonzero(pool.counts)
            problems = checks.check_outcomes(
                pool.counts[outcomes], outcomes, pool.shots, pool.expectation
            )
            if not problems:
                continue
            delivery, index = pool.members[0]
            label = f"{len(pool.members)} pooled histograms of the point of " + (
                f"{delivery.request.tenant} request {delivery.request.index} point {index}"
            )
            self.failures += [f"{label}: {problem}" for problem in problems]
            for delivery, index in pool.members:
                self.mark_bad(delivery, {index})
        self._pools.clear()

    def verdict(self) -> dict:
        """Judge the pools, then report the counts and failures."""
        self._judge_pools()
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "digest": self.digest,
        }


def digests(points: list[tuple[int, int, dict]]) -> dict[int, str]:
    """Point index -> digest of its histogram (bit identity by comparison)."""
    return {index: checks.histogram_digest([counts]) for index, _, counts in points}
