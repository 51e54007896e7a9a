"""Determinism suite for the parallel experiment runtime.

The runtime's contract: the merged histogram of an
:class:`~repro.runtime.spec.ExperimentSpec` depends only on the spec
(including its seed) — not on the worker count, not on shard scheduling,
and not on whether compiled artifacts were served from a cold or warm
cache.  These tests pin that contract, plus the shard-layout and seeding
invariants it rests on.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.accelerator.host import HostCPU
from repro.core.circuit import Circuit
from repro.cqasm.writer import circuit_to_cqasm
from repro.runtime import (
    ArtifactCache,
    CircuitSpec,
    CompilerSpec,
    ExperimentRunner,
    ExperimentSpec,
    PlatformSpec,
    QecSpec,
    shard_seed,
    shard_sizes,
)
from repro.runtime import worker
from repro.runtime.runner import Planner
from repro.runtime.worker import ShardTask, run_shard


def _noisy_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="determinism-noisy",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 4}),
        platform=PlatformSpec(factory="realistic", kwargs={"num_qubits": 4}),
        shots=64,
        seed=3,
        sweep={"platform.error_rate": [1e-3, 2e-2]},
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def _histograms(result):
    return [point.counts for point in result.points]


# ---------------------------------------------------------------------- #
# Shard layout and seeding invariants
# ---------------------------------------------------------------------- #
def test_shard_sizes_partition_shots_independently_of_workers():
    for shots in (1, 7, 8, 63, 64, 4096, 10_000, 100_001):
        sizes = shard_sizes(shots)
        assert sum(sizes) == shots
        assert min(sizes) >= 1
        # Balanced split: sizes differ by at most one shot.
        assert max(sizes) - min(sizes) <= 1
        # Layout is a pure function of the shot count: recomputing anywhere
        # (parent, worker, another host) gives the same partition.
        assert sizes == shard_sizes(shots)


def test_shard_sizes_respect_min_and_max_knobs():
    assert len(shard_sizes(4, min_shards=8)) == 4  # capped by shots
    assert len(shard_sizes(100, min_shards=8)) == 8
    assert len(shard_sizes(10_000, max_shard_shots=1000, min_shards=2)) == 10
    with pytest.raises(ValueError):
        shard_sizes(0)


def test_shard_seeds_are_distinct_and_reconstructible():
    seen = set()
    for point in range(3):
        for shard in range(5):
            sequence = shard_seed(42, point, shard)
            state = tuple(sequence.generate_state(4))
            assert state not in seen
            seen.add(state)
    # Reconstructing the same coordinates yields the same stream.
    a = np.random.default_rng(shard_seed(42, 1, 2)).random(8)
    b = np.random.default_rng(shard_seed(42, 1, 2)).random(8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------- #
# Merged histograms: 1 worker vs N workers
# ---------------------------------------------------------------------- #
def test_noisy_sweep_identical_for_one_and_many_workers(tmp_path):
    spec = _noisy_spec()
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=4, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)
    assert [p.errors_injected for p in serial.points] == [
        p.errors_injected for p in parallel.points
    ]
    assert all(point.shots == 64 for point in serial.points)
    assert [p.params for p in serial.points] == [p.params for p in parallel.points]


def test_perfect_sampled_path_identical_for_one_and_many_workers(tmp_path):
    spec = ExperimentSpec(
        name="determinism-perfect",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": 5}),
        shots=200,
        seed=11,
    )
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=3, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)
    point = serial.points[0]
    assert set(point.counts) <= {"00000", "11111"}
    assert sum(point.counts.values()) == 200


def test_conditional_feedback_circuit_identical_across_workers(tmp_path):
    """Trajectory-forcing circuits (run-time feedback) shard deterministically."""
    circuit = Circuit(3, "teleport")
    circuit.ry(0, 1.1).h(1).cnot(1, 2).cnot(0, 1).h(0)
    circuit.measure(0).measure(1)
    circuit.conditional_gate("x", 1, 2)
    circuit.conditional_gate("z", 0, 2)
    circuit.measure(2)
    spec = ExperimentSpec(
        name="determinism-feedback",
        circuit=CircuitSpec(cqasm=circuit_to_cqasm(circuit), measure="asis"),
        compiler=CompilerSpec(enabled=False),
        shots=96,
        seed=9,
    )
    serial = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    parallel = ExperimentRunner(spec, workers=2, cache_dir=tmp_path / "cache").run()
    assert _histograms(serial) == _histograms(parallel)


# ---------------------------------------------------------------------- #
# Cold cache vs warm cache
# ---------------------------------------------------------------------- #
def test_cold_and_warm_cache_runs_are_identical(tmp_path):
    spec = _noisy_spec()
    cold = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    warm_runner = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache")
    warm = warm_runner.run()
    assert _histograms(cold) == _histograms(warm)
    # The warm run must actually have been served from the cache.
    assert warm.cache_stats["hits"] > 0
    assert warm.cache_stats["writes"] == 0
    assert any(point.compile_cached for point in warm.points)


def test_disabled_cache_matches_cached_run(tmp_path):
    spec = _noisy_spec()
    cached = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    uncached = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert _histograms(cached) == _histograms(uncached)
    assert uncached.cache_stats == {}


def test_corrupt_cache_entry_is_recompiled_identically(tmp_path):
    spec = _noisy_spec()
    cache_dir = tmp_path / "cache"
    reference = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    # Truncate every cached artifact; the next run must fall back to
    # recompiling and still produce the same histograms.
    corrupted = list(cache_dir.glob("*/*.pkl"))
    assert corrupted
    for path in corrupted:
        path.write_bytes(b"not a pickle")
    again = ExperimentRunner(spec, workers=1, cache_dir=cache_dir).run()
    assert _histograms(reference) == _histograms(again)


# ---------------------------------------------------------------------- #
# Runner plumbing
# ---------------------------------------------------------------------- #
def test_shard_task_executes_standalone(tmp_path):
    """A worker needs nothing but the picklable task record."""
    spec = _noisy_spec(sweep={})
    planned = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").plan()
    assert len(planned) == 1
    task = planned[0].tasks[0]
    assert isinstance(task, ShardTask)
    first = run_shard(task)
    second = run_shard(task)
    assert first.counts == second.counts
    assert first.shots == task.shots


def test_noisy_point_builds_one_trajectory_plan_per_process(monkeypatch):
    """The shards of a noisy point share the process's memoised plan."""
    built = []

    class CountingPlan(worker.TrajectoryPlan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    spec = _noisy_spec(shots=256, sweep={})
    planned = Planner(None).plan_point(next(iter(spec.points())))
    assert len(planned.tasks) == 8
    monkeypatch.setattr(worker, "TrajectoryPlan", CountingPlan)
    monkeypatch.setattr(worker, "_PLANS", OrderedDict())
    memoised = [worker.run_shard(task).counts for task in planned.tasks]
    assert len(built) == 1
    fresh = []
    for task in planned.tasks:
        worker._PLANS.clear()
        fresh.append(worker.run_shard(task).counts)
    assert len(built) == 1 + len(planned.tasks)
    assert memoised == fresh


def test_host_cpu_delegates_to_runner(tmp_path):
    spec = _noisy_spec()
    direct = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    host = HostCPU(runtime_workers=1)
    offloaded = host.run_experiment(spec, cache_dir=tmp_path / "cache")
    assert _histograms(direct) == _histograms(offloaded)


def test_artifact_cache_roundtrips_kernel_programs(tmp_path):
    from repro.core.circuit import ghz_circuit
    from repro.qx.compiled import lower

    circuit = ghz_circuit(3)
    circuit.measure_all()
    program = lower(circuit, fuse=False)
    cache = ArtifactCache(tmp_path / "cache")
    key = cache.key_for("program", cqasm="test", fuse=False)
    cache.put(key, program)
    loaded = cache.get(key)
    assert loaded.num_qubits == program.num_qubits
    assert len(loaded.ops) == len(program.ops)
    for original, restored in zip(program.ops, loaded.ops, strict=True):
        assert original.kind == restored.kind
        assert original.qubits == restored.qubits
        if original.matrix is None:
            assert restored.matrix is None
        else:
            assert np.array_equal(original.matrix, restored.matrix)


# ---------------------------------------------------------------------- #
# Cache eviction, atomic writes, concurrent writers (service satellites)
# ---------------------------------------------------------------------- #
def test_cache_prune_evicts_oldest_entries_first(tmp_path):
    import os
    import time as time_module

    cache = ArtifactCache(tmp_path / "cache")
    keys = [cache.key_for("blob", index=i) for i in range(4)]
    for index, key in enumerate(keys):
        cache.put(key, "x" * 1024)
        # Pin distinct mtimes so LRU order is unambiguous on coarse clocks.
        stamp = time_module.time() - (100 - index)
        os.utime(cache.path_for(key), (stamp, stamp))
    entry_size = cache.path_for(keys[0]).stat().st_size
    report = cache.prune(max_bytes=2 * entry_size)
    assert report["evicted"] == 2
    assert report["size_bytes"] <= 2 * entry_size
    assert cache.evictions == 2
    # Oldest mtimes (lowest index) went first; newest survive.
    assert cache.get(keys[0]) is None
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) == "x" * 1024
    assert cache.get(keys[3]) == "x" * 1024
    assert "evictions" in cache.stats()


def test_cache_size_tracks_own_writes_and_evictions(tmp_path):
    """size_bytes() scans once, then follows puts, overwrites and prunes."""

    def scanned():
        return ArtifactCache(tmp_path / "cache").size_bytes()

    cache = ArtifactCache(tmp_path / "cache")
    assert cache.size_bytes() == 0
    keys = [cache.key_for("blob", index=i) for i in range(3)]
    for key in keys:
        cache.put(key, "x" * 1024)
    assert cache.size_bytes() == scanned() > 0
    cache.put(keys[0], "y" * 4096)  # overwrite with a larger entry
    assert cache.size_bytes() == scanned()
    cache.prune(max_bytes=cache.size_bytes() // 2)
    assert cache.size_bytes() == scanned()


def test_cache_prune_rejects_negative_budget(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.prune(max_bytes=-1)


def test_experiment_result_save_is_atomic(tmp_path):
    spec = _noisy_spec()
    result = ExperimentRunner(spec, workers=1, use_cache=False).run()
    target = tmp_path / "nested" / "result.json"
    target.parent.mkdir()
    result.save(target)
    import json

    loaded = json.loads(target.read_text())
    assert loaded["name"] == spec.name
    # The tmp+rename pattern leaves no temporary siblings behind.
    assert [entry.name for entry in target.parent.iterdir()] == ["result.json"]


def test_concurrent_cache_writers_race_safely(tmp_path):
    """Satellite: two processes hammering the same cache key never produce
    a torn read or leave temp files behind (the atomic tmp+rename, plus
    get()'s corrupt-entry purge, make last-writer-wins safe)."""
    import subprocess
    import sys

    cache_dir = tmp_path / "cache"
    writer = (
        "import sys\n"
        "from repro.runtime import ArtifactCache\n"
        "cache = ArtifactCache(sys.argv[1])\n"
        "key = cache.key_for('contended', name='shared')\n"
        "payload = sys.argv[2] * 20000\n"
        "for _ in range(200):\n"
        "    cache.put(key, payload)\n"
        "    value = cache.get(key)\n"
        "    assert value is None or (len(value) == 20000 and set(value) in ({'a'}, {'b'}))\n"
    )
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", writer, str(cache_dir), tag],
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in ("a", "b")
    ]
    for process in processes:
        process.wait(timeout=120)
    for process in processes:
        assert process.returncode == 0, process.stderr.read()
    cache = ArtifactCache(cache_dir)
    value = cache.get(cache.key_for("contended", name="shared"))
    assert value is not None and len(value) == 20000 and set(value) in ({"a"}, {"b"})
    leftovers = [path for path in cache_dir.rglob("*") if path.is_file() and path.suffix != ".pkl"]
    assert leftovers == []


# ---------------------------------------------------------------------- #
# QEC experiment kind: surface-code sweeps on the same contract
# ---------------------------------------------------------------------- #
def _qec_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        name="determinism-qec",
        kind="qec",
        qec=QecSpec(distance=3, physical_error_rate=0.02),
        shots=60,  # trials
        seed=13,
        sweep={"qec.distance": [3, 5], "qec.physical_error_rate": [0.01, 0.05]},
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def test_qec_sweep_identical_for_one_and_many_workers():
    spec = _qec_spec()
    serial = ExperimentRunner(spec, workers=1, use_cache=False).run()
    parallel = ExperimentRunner(spec, workers=4, use_cache=False).run()
    assert _histograms(serial) == _histograms(parallel)
    # Defect totals (errors_injected) merge deterministically too.
    assert [p.errors_injected for p in serial.points] == [
        p.errors_injected for p in parallel.points
    ]
    assert [p.params for p in serial.points] == [p.params for p in parallel.points]
    assert all(point.shots == 60 for point in serial.points)
    assert len(serial.points) == 4


def test_qec_sweep_independent_of_cache(tmp_path):
    """QEC points bypass the artifact cache; enabling it must not matter."""
    spec = _qec_spec(sweep={"qec.physical_error_rate": [0.01, 0.05]})
    cached = ExperimentRunner(spec, workers=1, cache_dir=tmp_path / "cache").run()
    uncached = ExperimentRunner(spec, workers=1, use_cache=False).run()
    assert _histograms(cached) == _histograms(uncached)


def test_qec_shard_task_executes_standalone():
    spec = _qec_spec(sweep={})
    planned = ExperimentRunner(spec, workers=1, use_cache=False).plan()
    assert len(planned) == 1
    assert len(planned[0].tasks) == len(shard_sizes(60))
    task = planned[0].tasks[0]
    first = run_shard(task)
    second = run_shard(task)
    assert first.counts == second.counts
    assert first.errors_injected == second.errors_injected
    assert first.shots == task.trials


def test_qec_point_failure_rate_matches_direct_run():
    """Merged shard failures equal a direct sharded-by-hand computation."""
    from repro.qec.surface_code import PlanarSurfaceCode

    spec = _qec_spec(sweep={}, shots=40)
    result = ExperimentRunner(spec, workers=2, use_cache=False).run()
    point = result.points[0]
    code = PlanarSurfaceCode(3)
    failures = 0
    defects = 0
    for shard_index, size in enumerate(shard_sizes(40)):
        shard = code.run_memory_experiment(
            0.02, trials=size, seed=shard_seed(13, 0, shard_index)
        )
        failures += shard.logical_failures
        defects += shard.total_defects
    assert point.counts.get("1", 0) == failures
    assert point.errors_injected == defects
    assert point.shots == 40
