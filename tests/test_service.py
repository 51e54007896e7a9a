"""Tests for the experiment service layer.

Three levels:

* unit — the weighted-fair scheduler's stride math, the journal's
  torn-line tolerance, and the content-addressed point key;
* engine — an in-process :class:`~repro.service.engine.JobService`
  (thread pool, ``asyncio.run``): streaming order, bit-identity against
  the serial runner, cross-tenant dedup (exactly one execution, every
  subscriber gets the full stream), weighted fairness end-to-end, and
  failure events;
* daemon — a real ``scripts/serve.py`` subprocess over a unix socket:
  the SIGKILL/resume contract (a killed daemon restarted on the same
  data/cache directories re-executes only uncached points and still
  produces histograms bit-identical to an uninterrupted serial run).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.engine as engine
from repro.runtime import (
    BatchCircuit,
    BatchSpec,
    CircuitSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    run_batch,
)
from repro.service import FairScheduler, JobJournal, JobService, ServiceClient, point_key
from repro.service.http import handle_http

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ghz_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="svc-test",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 3}),
        shots=64,
        seed=9,
        sweep={"shots": [32, 64]},
        max_shard_shots=16,
        min_shards=2,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def _service(tmp_path, **overrides) -> JobService:
    settings = dict(
        cache_dir=tmp_path / "cache",
        data_dir=tmp_path / "data",
        workers=2,
        use_processes=False,
    )
    settings.update(overrides)
    return JobService(**settings)


async def _run_job(service: JobService, spec, kind="experiment", client="alice", priority=1):
    accepted = await service.submit(client=client, kind=kind, payload=spec.to_dict(), priority=priority)
    events = []
    async for event in service.stream(accepted["job_id"]):
        events.append(event)
    return accepted, events


def _terminal(events):
    return events[-1]


def _point_events(events):
    return [event for event in events if event["event"] == "point"]


# ---------------------------------------------------------------------- #
# Unit: weighted-fair scheduler
# ---------------------------------------------------------------------- #
class TestFairScheduler:
    def test_weighted_interleaving_is_proportional(self):
        scheduler = FairScheduler()
        for index in range(8):
            scheduler.push("a", weight=1, item=("a", index), cost=10)
            scheduler.push("b", weight=2, item=("b", index), cost=10)
        order = [scheduler.pop().client for _ in range(6)]
        # Stride scheduling: over any window, b receives twice a's service.
        assert order.count("b") == 4
        assert order.count("a") == 2

    def test_tie_break_is_deterministic_by_name(self):
        first = FairScheduler()
        second = FairScheduler()
        for scheduler in (first, second):
            scheduler.push("zeta", weight=1, item="z")
            scheduler.push("alpha", weight=1, item="a")
        assert first.pop().client == "alpha"
        assert second.pop().client == "alpha"

    def test_idle_client_rejoins_at_virtual_clock(self):
        scheduler = FairScheduler()
        for index in range(4):
            scheduler.push("busy", weight=1, item=index, cost=1)
        while len(scheduler):
            scheduler.pop()
        # A newcomer (or a client returning from idle) must not spend its
        # banked idle time as a starvation burst.
        scheduler.push("late", weight=1, item="x", cost=1)
        scheduler.push("busy", weight=1, item="y", cost=1)
        assert scheduler._clients["late"].vtime == scheduler._clients["busy"].vtime

    def test_rejects_non_positive_weight(self):
        scheduler = FairScheduler()
        with pytest.raises(ValueError):
            scheduler.push("a", weight=0, item="x")

    def test_backlog_reports_pending_units(self):
        scheduler = FairScheduler()
        scheduler.push("a", weight=1, item=1)
        scheduler.push("a", weight=1, item=2)
        scheduler.push("b", weight=1, item=3)
        assert scheduler.backlog() == {"a": 2, "b": 1}
        assert len(scheduler) == 3


# ---------------------------------------------------------------------- #
# Unit: journal durability
# ---------------------------------------------------------------------- #
class TestJobJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        records = [{"type": "job", "job_id": "job-000000"}, {"type": "point", "key": "k1"}]
        for record in records:
            journal.append(record)
        journal.close()
        assert JobJournal(tmp_path / "journal.ndjson").replay() == records

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = JobJournal(path)
        journal.append({"type": "job", "job_id": "job-000000"})
        journal.append({"type": "point", "key": "k1"})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "point", "key": "k2"')  # SIGKILL mid-append
        records = JobJournal(path).replay()
        assert [record["type"] for record in records] == ["job", "point"]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert JobJournal(tmp_path / "absent.ndjson").replay() == []


# ---------------------------------------------------------------------- #
# Unit: content-addressed point identity
# ---------------------------------------------------------------------- #
class TestPointKey:
    def test_name_does_not_affect_identity(self):
        left = _ghz_spec(name="alice-run").points()
        right = _ghz_spec(name="bob-run").points()
        assert [point_key(p) for p in left] == [point_key(p) for p in right]

    def test_seed_and_shard_layout_affect_identity(self):
        base = _ghz_spec().points()[0]
        reseeded = _ghz_spec(seed=10).points()[0]
        resharded = _ghz_spec(min_shards=4).points()[0]
        assert point_key(base) != point_key(reseeded)
        assert point_key(base) != point_key(resharded)

    def test_points_of_one_sweep_are_distinct(self):
        keys = [point_key(point) for point in _ghz_spec().points()]
        assert len(set(keys)) == len(keys)

    def test_batch_points_follow_batch_seeding_contract(self):
        spec = BatchSpec.from_dict(
            {
                "name": "fleet",
                "shots": 32,
                "seed": 5,
                "circuits": [
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2}}},
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 3}}, "seed": 11},
                ],
            }
        )
        points = spec.points()
        assert [point.index for point in points] == [0, 1]
        assert points[0].spec.seed == 5
        assert points[1].spec.seed == 11
        assert points[1].params["label"] == "circuit[1]"


# ---------------------------------------------------------------------- #
# Engine: streaming, bit-identity, dedup, fairness, failure
# ---------------------------------------------------------------------- #
class TestJobServiceEngine:
    def test_stream_order_and_bit_identity_vs_serial_runner(self, tmp_path):
        spec = _ghz_spec(
            platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 3}),
            sweep={"platform.error_rate": [1e-3, 2e-2]},
        )
        serial = ExperimentRunner(spec, workers=1, use_cache=False).run()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                return await _run_job(service, spec), service.stats()
            finally:
                await service.close()

        (_, events), stats = asyncio.run(scenario())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert "planned" in kinds
        assert kinds[-1] == "done"
        points = _point_events(events)
        assert len(points) == 2
        done = _terminal(events)["result"]
        assert [p["index"] for p in done["points"]] == [0, 1]
        for serial_point, svc_point in zip(serial.points, done["points"]):
            assert svc_point["counts"] == serial_point.counts
            assert svc_point["shots"] == serial_point.shots
        # Satellite: artifact-cache counters ride along in point metrics.
        metrics = done["points"][0]["metrics"]
        for key in (
            "artifact_cache_hits",
            "artifact_cache_misses",
            "artifact_cache_writes",
            "artifact_cache_evictions",
        ):
            assert key in metrics
        # The cache size is a daemon-level figure, reported by stats().
        assert stats["cache"]["size_bytes"] > 0

    def test_batch_job_matches_batch_runner(self, tmp_path):
        spec = BatchSpec.from_dict(
            {
                "name": "fleet",
                "shots": 48,
                "seed": 3,
                "circuits": [
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 2}}},
                    {"circuit": {"builder": "ghz", "kwargs": {"num_qubits": 3}}, "shots": 96},
                ],
            }
        )
        reference = run_batch(spec, workers=1, use_cache=False)

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                return await _run_job(service, spec, kind="batch")
            finally:
                await service.close()

        _, events = asyncio.run(scenario())
        done = _terminal(events)
        assert done["event"] == "done"
        for reference_point, svc_point in zip(reference.circuits, done["result"]["points"]):
            assert svc_point["counts"] == reference_point.counts

    def test_mixed_batch_job_matches_run_batch_and_joins_inflight_point(
        self, tmp_path, monkeypatch
    ):
        """Stackable circuits, pinned-engine fallbacks and a point another
        tenant's experiment job is already executing: the batch job's
        histograms equal run_batch's, and the shared point executes once."""
        ghz = CircuitSpec(builder="ghz", kwargs={"num_qubits": 4})
        rotations = [
            CircuitSpec(builder="rotations", kwargs={"num_qubits": 4, "depth": 2, "seed": seed})
            for seed in range(4)
        ]
        spec = BatchSpec(
            name="mixed",
            circuits=[BatchCircuit(circuit=circuit) for circuit in rotations]
            + [BatchCircuit(circuit=ghz, backend=backend) for backend in ("stabilizer", "mps")],
            shots=256,
            seed=7,
            max_shard_shots=64,
            min_shards=2,
        )
        reference = run_batch(spec, workers=1, use_cache=False)
        assert reference.plan["stacked_circuits"] == 4
        assert reference.plan["fallback_circuits"] == 2
        shared = spec.points()[0]
        experiment = ExperimentSpec.from_dict({**shared.spec.to_dict(), "name": "bob-run"})
        assert point_key(experiment.points()[0]) == point_key(shared)

        # Hold every shard until both jobs are admitted, so bob's point is
        # still in flight when alice's batch job classifies it.
        gate = threading.Event()
        run_shard = engine.run_shard

        def gated_run_shard(task):
            assert gate.wait(60)
            return run_shard(task)

        monkeypatch.setattr(engine, "run_shard", gated_run_shard)

        async def planned(service, job_id):
            while not any(e["event"] == "planned" for e in service.jobs[job_id].events):
                await asyncio.sleep(0.005)

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                bob = await service.submit(
                    client="bob", kind="experiment", payload=experiment.to_dict()
                )
                await planned(service, bob["job_id"])
                alice = await service.submit(client="alice", kind="batch", payload=spec.to_dict())
                await planned(service, alice["job_id"])
                gate.set()
                streams = []
                for accepted in (bob, alice):
                    streams.append([e async for e in service.stream(accepted["job_id"])])
                return streams, service.stats()["counters"]
            finally:
                gate.set()
                await service.close()

        (bob_events, alice_events), counters = asyncio.run(scenario())
        alice_points = _terminal(alice_events)["result"]["points"]
        assert [p["counts"] for p in alice_points] == [c.counts for c in reference.circuits]
        assert _terminal(bob_events)["result"]["points"][0]["counts"] == alice_points[0]["counts"]
        assert [e["source"] for e in _point_events(alice_events)].count("inflight") == 1
        assert counters["points_deduped_inflight"] == 1
        assert counters["points_executed"] == 1 + 5

    def test_identical_submissions_execute_once_with_two_subscribers(self, tmp_path):
        spec = _ghz_spec(sweep={}, shots=20_000, max_shard_shots=4096, min_shards=8)

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            try:
                first, second = await asyncio.gather(
                    _run_job(service, spec, client="alice"),
                    _run_job(service, spec, client="bob"),
                )
                return first, second, service.stats()
            finally:
                await service.close()

        (_, alice_events), (_, bob_events), stats = asyncio.run(scenario())
        assert _terminal(alice_events)["event"] == "done"
        assert _terminal(bob_events)["event"] == "done"
        alice_points = _point_events(alice_events)
        bob_points = _point_events(bob_events)
        assert len(alice_points) == len(bob_points) == 1
        assert alice_points[0]["result"]["counts"] == bob_points[0]["result"]["counts"]
        counters = stats["counters"]
        # The acceptance criterion: one execution, both streams served.
        assert counters["points_executed"] == 1
        assert counters["points_from_cache"] + counters["points_deduped_inflight"] == 1

    def test_completed_points_serve_from_cache(self, tmp_path):
        spec = _ghz_spec()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                _, first = await _run_job(service, spec, client="alice")
                _, second = await _run_job(service, spec, client="bob")
                return first, second, service.stats()
            finally:
                await service.close()

        first, second, stats = asyncio.run(scenario())
        assert [e["source"] for e in _point_events(first)] == ["executed", "executed"]
        assert [e["source"] for e in _point_events(second)] == ["cache", "cache"]
        for left, right in zip(_point_events(first), _point_events(second)):
            assert left["result"]["counts"] == right["result"]["counts"]
        assert stats["counters"]["points_from_cache"] == 2

    def test_late_subscriber_replays_full_stream(self, tmp_path):
        spec = _ghz_spec()

        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted, live = await _run_job(service, spec)
                replayed = []
                async for event in service.stream(accepted["job_id"]):
                    replayed.append(event)
                return live, replayed
            finally:
                await service.close()

        live, replayed = asyncio.run(scenario())
        assert replayed == live

    def test_weighted_fairness_end_to_end(self, tmp_path):
        """With one slot, a priority-2 tenant finishes ahead of a priority-1
        tenant that submitted first and has the same amount of work."""
        heavy = _ghz_spec(seed=1, shots=256, max_shard_shots=16, min_shards=16, sweep={})
        light = _ghz_spec(seed=2, shots=256, max_shard_shots=16, min_shards=16, sweep={})

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            finish_order = []

            async def run(label, spec, priority):
                _, events = await _run_job(service, spec, client=label, priority=priority)
                assert _terminal(events)["event"] == "done"
                finish_order.append(label)

            try:
                first = asyncio.ensure_future(run("first-low", heavy, 1))
                await asyncio.sleep(0)  # let the low-priority job submit first
                second = asyncio.ensure_future(run("second-high", light, 2))
                await asyncio.gather(first, second)
                return finish_order
            finally:
                await service.close()

        assert asyncio.run(scenario())[0] == "second-high"

    def test_invalid_spec_fails_with_error_event(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted = await service.submit(
                    client="alice", kind="experiment", payload={"no": "such-spec"}
                )
                events = []
                async for event in service.stream(accepted["job_id"]):
                    events.append(event)
                return events, service.stats()
            finally:
                await service.close()

        events, stats = asyncio.run(scenario())
        terminal = _terminal(events)
        assert terminal["event"] == "error"
        assert stats["counters"]["jobs_failed"] == 1

    def test_unknown_kind_is_rejected(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                accepted = await service.submit(
                    client="alice", kind="mystery", payload=_ghz_spec().to_dict()
                )
                events = []
                async for event in service.stream(accepted["job_id"]):
                    events.append(event)
                return events
            finally:
                await service.close()

        assert _terminal(asyncio.run(scenario()))["event"] == "error"

    def test_priority_must_be_positive_int(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            try:
                with pytest.raises(ValueError):
                    await service.submit(
                        client="alice",
                        kind="experiment",
                        payload=_ghz_spec().to_dict(),
                        priority=0,
                    )
            finally:
                await service.close()

        asyncio.run(scenario())


def _exit_shard(task):
    """A shard whose worker dies abruptly, as under an OOM kill or a segfault."""
    os._exit(3)


class _Sink:
    """The writer half of one HTTP exchange, kept in memory."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def _http_get(service: JobService, path: str) -> tuple[str, dict]:
    reader = asyncio.StreamReader()
    reader.feed_data(f"GET {path} HTTP/1.1\r\n\r\n".encode("ascii"))
    reader.feed_eof()
    sink = _Sink()
    await handle_http(service, reader, sink)
    head, _, body = sink.data.partition(b"\r\n\r\n")
    status = head.split(b"\r\n")[0].decode("ascii").split(" ", 1)[1]
    return status, json.loads(body)


class TestHealth:
    def test_healthz_reports_a_broken_process_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "run_shard", _exit_shard)

        async def scenario():
            service = _service(tmp_path, workers=1, use_processes=True)
            await service.start()
            try:
                before = await _http_get(service, "/healthz")
                _, events = await _run_job(service, _ghz_spec())
                after = await _http_get(service, "/healthz")
                return before, events, after
            finally:
                await service.close()

        before, events, (status, body) = asyncio.run(scenario())
        assert before == ("200 OK", {"ok": True})
        assert _terminal(events)["event"] == "error"
        assert status == "503 Service Unavailable"
        assert body["ok"] is False
        assert body["reason"].startswith("process pool broken")


# ---------------------------------------------------------------------- #
# Daemon: kill -9, restart, resume — the crash-consistency contract
# ---------------------------------------------------------------------- #
def _spawn_daemon(tmp_path: Path, socket_path: Path) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "serve.py"),
            "--socket",
            str(socket_path),
            "--data-dir",
            str(tmp_path / "data"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            "2",
            "--threads",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline()
    assert ready, process.stderr.read()
    assert json.loads(ready)["ready"] is True
    deadline = time.monotonic() + 30
    while not socket_path.exists():
        assert time.monotonic() < deadline, "daemon socket never appeared"
        time.sleep(0.05)
    return process


@pytest.mark.slow
def test_sigkill_resume_is_bit_identical_and_serves_cached_points(tmp_path):
    """Kill -9 a daemon mid-job; a restart on the same directories resumes
    the job, serves every journalled point from the cache, and produces
    histograms bit-identical to an uninterrupted serial run."""
    spec = _ghz_spec(
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 3}),
        sweep={"shots": [400, 3000, 6000, 9000]},
        max_shard_shots=512,
        min_shards=4,
    )
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    socket_path = tmp_path / "svc.sock"

    first = _spawn_daemon(tmp_path, socket_path)
    try:
        client = ServiceClient(socket_path=str(socket_path))
        accepted = client.submit(spec.to_dict(), client="alice")
        job_id = accepted["job_id"]
        seen_before_kill = 0
        for event in client.events():
            if event["event"] == "point":
                seen_before_kill += 1
                break  # at least one point committed; kill mid-job
    finally:
        first.kill()
        first.wait(timeout=30)
    try:
        client.close()
    except OSError:
        pass
    assert seen_before_kill >= 1

    second = _spawn_daemon(tmp_path, socket_path)
    try:
        with ServiceClient(socket_path=str(socket_path)) as resumed:
            events = list(resumed.stream(job_id))
            terminal = events[-1]
            assert terminal["event"] == "done", terminal
            points = terminal["result"]["points"]
            assert [p["index"] for p in points] == [0, 1, 2, 3]
            for serial_point, svc_point in zip(serial.points, points):
                assert svc_point["counts"] == serial_point.counts
            stats = resumed.stats()
            counters = stats["counters"]
            assert counters["jobs_resumed"] == 1
            # Only uncached points re-executed: everything committed before
            # the kill came back as a cache hit.
            assert counters["points_from_cache"] >= seen_before_kill
            assert counters["points_executed"] + counters["points_from_cache"] == 4
            resumed.shutdown()
    finally:
        if second.poll() is None:
            second.terminate()
        second.wait(timeout=30)


@pytest.mark.slow
def test_daemon_tcp_listener_and_graceful_shutdown(tmp_path):
    process = subprocess.Popen(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "serve.py"),
            "--tcp-port",
            "0",
            "--data-dir",
            str(tmp_path / "data"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            "1",
            "--threads",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = json.loads(process.stdout.readline())
        assert ready["ready"] is True
        port = ready["tcp_port"]
        with ServiceClient(host="127.0.0.1", port=port) as client:
            assert client.ping()["event"] == "pong"
            client.submit(_ghz_spec().to_dict(), client="alice")
            terminal, _ = client.wait()
            assert terminal["event"] == "done"
            assert client.shutdown()["event"] == "bye"
        process.wait(timeout=30)
        assert process.returncode == 0
        stderr = process.stderr.read()
        assert "Traceback" not in stderr, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


def test_client_requires_an_address():
    with pytest.raises(ValueError):
        ServiceClient()


def test_client_connection_error_on_dead_socket(tmp_path):
    path = tmp_path / "nobody-home.sock"
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(str(path))
    server.listen(1)
    server.close()  # accepted nothing; connections now fail
    with pytest.raises((ConnectionError, OSError)):
        client = ServiceClient(socket_path=str(path))
        client.ping()


def test_daemon_sigterm_resume_counter(tmp_path):
    """SIGTERM (graceful) also leaves a journal a fresh start can resume."""
    socket_path = tmp_path / "svc.sock"
    process = _spawn_daemon(tmp_path, socket_path)
    try:
        with ServiceClient(socket_path=str(socket_path)) as client:
            client.submit(_ghz_spec().to_dict(), client="alice")
            terminal, _ = client.wait()
            assert terminal["event"] == "done"
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    assert process.returncode == 0
    journal = JobJournal(tmp_path / "data" / "journal.ndjson")
    types = [record["type"] for record in journal.replay()]
    assert "job" in types
    assert "job_done" in types
    assert types.count("point") == 2
