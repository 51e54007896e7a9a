"""Tests of the benchmark itself: statistics, tracing, the correctness gate,
and a reduced-size pass of every workload.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, drive, stats, tracing, workloads  # noqa: E402
from perfbench.tracing import Span, SpanRecorder  # noqa: E402
from perfbench.workloads import Request  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


# ---------------------------------------------------------------------- #
# Tail percentile rule and failure counting
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("count", [20, 21, 37, 100, 1000])
def test_tail_has_ten_samples_beyond(count):
    values = [float(v) for v in range(count, 0, -1)]  # distinct, unsorted
    value, percentile = stats.tail(values)
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (count - 10) / count)
    assert value >= sorted(values)[count // 2 - 1]  # never below the median


def test_tail_of_hundred_is_p90():
    value, percentile = stats.tail(list(range(1, 101)))
    assert (value, percentile) == (90, 90.0)


@pytest.mark.parametrize("count", [1, 5, 19])
def test_tail_of_small_population_is_its_maximum(count):
    values = [3.0 * v for v in range(count)]
    assert stats.tail(values) == (max(values), None)


def test_summary_reports_count_mean_and_median():
    summary = stats.Summary.of([4.0, 1.0, 3.0, 1.0])
    assert (summary.mean, summary.median, summary.tail, summary.count) == (2.25, 2.0, 4.0, 4)


def test_failed_fraction():
    assert stats.failed_fraction(0, 12) == 0.0
    assert stats.failed_fraction(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_fraction(1, 0)
    with pytest.raises(ValueError):
        stats.failed_fraction(13, 12)


def test_shots_per_second_sums_correct_shots_over_busy_time():
    from perfbench.run import shots_per_second

    request = Request(0, "experiment", {}, "t")
    fast = drive.Delivery(request, due_s=0.0, sent_s=0.0, done_s=1.0, points=[(0, 100, None)])
    slow = drive.Delivery(
        request, due_s=5.0, sent_s=5.0, done_s=8.0, points=[(0, 100, None), (1, 200, None)]
    )
    slow.bad_points = {1}  # a failed point delivers no correct shots
    assert shots_per_second([fast, slow]) == pytest.approx(200 / 4.0)


# ---------------------------------------------------------------------- #
# Span recorder
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_union_of_children_and_folded_calls():
    recorder = SpanRecorder()
    parent = Span("runtime.shard", 0.0, end=10.0)
    first = Span("qx.evolve", 1.0, parent=parent, end=3.0)
    overlapping = Span("qx.sample", 2.0, parent=parent, end=5.0)
    outside = Span("qx.lower", 9.0, parent=parent, end=12.0)  # clipped to the parent
    parent.folded["qx.noise"] = [4, 1.5]
    recorder.spans += [parent, first, overlapping, outside]
    self_times = recorder.self_times()
    assert self_times[parent] == pytest.approx(10.0 - 4.0 - 1.0 - 1.5)
    assert self_times[first] == pytest.approx(2.0)
    layers = recorder.layer_self_times()
    assert layers["runtime"] == pytest.approx(3.5)
    assert layers["qx"] == pytest.approx(2.0 + 3.0 + 3.0 + 1.5)
    assert recorder.total("qx.noise") == pytest.approx(1.5)
    assert recorder.calls("qx.noise") == 4


def test_covered_time_merges_intervals():
    assert tracing.covered_time([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert tracing.covered_time([], 0, 10) == 0.0


def test_wrap_records_outermost_calls_and_folds_leaves():
    recorder = SpanRecorder()

    def leaf(value):
        return value

    leaf = recorder.wrap(leaf, "qx.noise", fold=True)

    def inner(value):
        return leaf(value) + 1

    inner = recorder.wrap(inner, "qx.lower")

    def outer(value):
        return inner(value) + inner(value)

    outer = recorder.wrap(outer, "qx.lower", ident=lambda value: f"id{value}")
    assert outer(1) == 4
    assert [span.name for span in recorder.spans] == ["qx.lower"]  # nested same name collapses
    assert recorder.spans[0].ident == "id1"
    assert recorder.calls("qx.noise") == 2
    assert recorder.spans[0].folded["qx.noise"][0] == 2


def test_patcher_restores_every_binding():
    import repro.cqasm.writer as writer
    import repro.runtime.runner as runner

    original = writer.circuit_to_cqasm
    recorder = SpanRecorder()
    patcher = tracing.install(recorder)
    try:
        assert runner.circuit_to_cqasm is not original  # the imported name is wrapped too
    finally:
        patcher.undo()
    assert writer.circuit_to_cqasm is original
    assert runner.circuit_to_cqasm is original


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_result():
    from repro.runtime import CircuitSpec, ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec(
        name="gate",
        circuit=CircuitSpec(builder="rotations", kwargs={"num_qubits": 5, "depth": 3, "seed": 7}),
        shots=4096,
        seed=3,
    )
    point = ExperimentRunner(spec, workers=1, use_cache=False).run().points[0]
    expectation = checks.circuit_expectation(spec.points()[0].spec.circuit.build())
    return point, expectation


def test_reference_accepts_the_program_output(small_result):
    point, expectation = small_result
    assert checks.check_histogram(point.counts, point.shots, expectation) == []


def test_reference_matches_a_known_state():
    from repro.core.circuit import ghz_circuit

    circuit = ghz_circuit(3)
    circuit.x(0)
    circuit.measure_all()
    expectation = checks.circuit_expectation(circuit)
    assert expectation.marginals == pytest.approx([0.5, 0.5, 0.5])
    # |001> + |110>: bits 0 and 1 always differ, bits 1 and 2 always agree.
    assert dict(expectation.parities)[(0, 1)] == pytest.approx(1.0)
    assert dict(expectation.parities)[(1, 2)] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda counts: {key[::-1]: n for key, n in counts.items()},  # bit order reversed
        lambda counts: {key[:-1] + "1": n for key, n in counts.items()},  # bit 0 stuck at 1
        lambda counts: dict(list(counts.items())[1:]),  # shots lost
        lambda counts: {**counts, "0" * 6: 1},  # malformed key
    ],
)
def test_gate_trips_on_a_corrupted_histogram(small_result, corrupt):
    point, expectation = small_result
    assert checks.check_histogram(corrupt(dict(point.counts)), point.shots, expectation)


def test_noisy_reference_covers_every_stored_circuit():
    reference = checks.load_noisy_reference()
    for seed in workloads.NOISY_CIRCUIT_SEEDS:
        for num_qubits in workloads.NOISY_QUBITS:
            expectation = reference[checks.noisy_key(seed, num_qubits)].expectation
            assert expectation.num_bits == num_qubits
            assert expectation.probabilities.min() > 0.0
            assert expectation.probabilities.sum() == pytest.approx(1.0)


def test_noisy_reference_describes_the_compiled_circuits():
    """Each stored reference's circuit is what the compiler produces today."""
    judge = drive.Judge()
    for index, seed in enumerate(workloads.NOISY_CIRCUIT_SEEDS):
        request = next(workloads.sweep_noisy(index))
        for point, (_, circuit_spec, factory) in drive.point_specs(request).items():
            key, _ = judge.expectation(request, point, circuit_spec, factory)
            assert key.startswith(f"{seed}:")


def _histogram(probabilities, shots, seed):
    """A histogram of ``shots`` draws from a distribution over outcomes."""
    counts = np.random.default_rng(seed).multinomial(shots, probabilities / probabilities.sum())
    width = int(probabilities.size).bit_length() - 1
    return {format(int(k), f"0{width}b"): int(counts[k]) for k in np.flatnonzero(counts)}


def _uniform(expectation):
    return np.full(expectation.probabilities.size, 1.0 / expectation.probabilities.size)


def _separation(expectation, alternative, shots):
    """Worst-case z of the cross-entropy when ``alternative`` is sampled instead.

    ``(|mean shift| - 3 * its spread) / reference spread``: above ``Z_BOUND``,
    99.9% of the alternative's histograms fail the cross-entropy check.
    """
    logs = expectation.log_probabilities
    reference_mean, reference_variance = expectation.cross_entropy
    mean = float(alternative @ logs)
    spread = math.sqrt(max(float(alternative @ (logs - mean) ** 2), 0.0) / shots)
    return (abs(mean - reference_mean) - 3 * spread) / math.sqrt(reference_variance / shots)


#: Fresh sweep_noisy histograms a run pools per point, at the least.
FRESH_PER_RUN = workloads.MIN_REQUESTS - workloads.MIN_REQUESTS // workloads.REPEAT_EVERY
POOLED_NOISY_SHOTS = FRESH_PER_RUN * workloads.NOISY_SHOTS


@pytest.mark.parametrize("seed", workloads.NOISY_CIRCUIT_SEEDS)
def test_noisy_gate_rejects_uniform_and_noise_free_bits(seed):
    """On every stored point, uniform bits and noise-free bits fail the pooled check."""
    from repro.runtime import CircuitSpec

    reference = checks.load_noisy_reference()
    for num_qubits in workloads.NOISY_QUBITS:
        expectation = reference[checks.noisy_key(seed, num_qubits)].expectation
        circuit = CircuitSpec(
            builder="rotations",
            kwargs={"num_qubits": num_qubits, "depth": workloads.NOISY_DEPTH, "seed": seed},
        ).build()
        alternatives = {
            "uniform": _uniform(expectation),
            "noise-free": checks.circuit_expectation(circuit).probabilities,
        }
        for name, alternative in alternatives.items():
            assert _separation(expectation, alternative, POOLED_NOISY_SHOTS) > checks.Z_BOUND, name
            counts = _histogram(alternative, POOLED_NOISY_SHOTS, seed)
            assert checks.check_histogram(counts, POOLED_NOISY_SHOTS, expectation), name
        # ... while the reference's own samples pass.
        counts = _histogram(expectation.probabilities, POOLED_NOISY_SHOTS, seed)
        assert checks.check_histogram(counts, POOLED_NOISY_SHOTS, expectation) == []


@pytest.mark.parametrize("workload", ["fleet_batch", "service_mixed"])
def test_noise_free_gate_rejects_uniform_bits_in_one_delivery(workload):
    """Noise-free points: uniform bits fail every point's own check."""
    if workload == "service_mixed":
        stream = workloads.service_interactive(1)
        requests = [next(stream) for _ in range(4)] + [next(workloads.service_fleet(1))]
    else:
        requests = [next(workloads.CLOSED_LOOP[workload](seed)) for seed in (1, 2)]
    judge = drive.Judge()
    checked = 0
    for request in requests:
        for index, (shots, circuit_spec, factory) in drive.point_specs(request).items():
            if checked >= 12:
                return
            checked += 1
            _, expectation = judge.expectation(request, index, circuit_spec, factory)
            uniform = _uniform(expectation)
            impossible = expectation.probabilities < checks.IMPOSSIBLE
            if not impossible.any():  # otherwise one impossible outcome already fails
                assert _separation(expectation, uniform, shots) > checks.Z_BOUND
            assert checks.check_histogram(_histogram(uniform, shots, index), shots, expectation)


def test_judge_pools_fresh_deliveries_and_fails_each_member_once():
    """Histograms too small to fail alone fail pooled; each point counts once."""
    request = next(workloads.sweep_noisy(0))
    expected = drive.point_specs(request)
    judge = drive.Judge()
    references = {
        index: judge.expectation(request, index, circuit_spec, factory)[1]
        for index, (_, circuit_spec, factory) in expected.items()
    }
    deliveries = []
    for k in range(8):
        fresh = Request(k, request.kind, request.spec, request.tenant)
        points = []
        for index, (shots, _, _) in expected.items():
            uniform = _uniform(references[index])
            points.append((index, shots, _histogram(uniform, shots, 100 * k + index)))
        deliveries.append(_delivery(fresh, points))
    for delivery in deliveries:
        judge(delivery)
    alone = judge.failed
    verdict = judge.verdict()
    assert verdict["attempted"] == 8 * len(expected)
    assert alone < verdict["failed"] <= verdict["attempted"]
    assert verdict["failed"] == sum(len(d.bad_points) for d in deliveries)  # each point once
    assert any("pooled" in failure for failure in verdict["failures"])


def test_judge_refuses_a_stale_noisy_reference(monkeypatch):
    stored = checks.load_noisy_reference()
    stale = {
        key: checks.NoisyReference(reference.expectation, "0" * 64)
        for key, reference in stored.items()
    }
    monkeypatch.setattr(checks, "load_noisy_reference", lambda: stale)
    request = next(workloads.sweep_noisy(0))
    points = [(index, shots, {}) for index, (shots, _, _) in drive.point_specs(request).items()]
    judge = drive.Judge()
    judge(_delivery(request, points))
    verdict = judge.verdict()
    assert verdict["failed"] == verdict["attempted"] == len(points)
    assert all("make_reference.py" in failure for failure in verdict["failures"])


def _delivery(request, points, error=None):
    delivery = drive.Delivery(request, due_s=0.0, done_s=1.0, points=points, error=error)
    return delivery


def test_judge_counts_every_failed_point(small_result):
    point, _ = small_result
    spec = workloads.ExperimentSpec(
        name="gate",
        circuit=workloads.CircuitSpec(
            builder="rotations", kwargs={"num_qubits": 5, "depth": 3, "seed": 7}
        ),
        shots=4096,
        seed=3,
    ).to_dict()
    good = (0, point.shots, dict(point.counts))
    corrupted = (0, point.shots, {key[::-1]: n for key, n in point.counts.items()})
    deliveries = [
        _delivery(Request(0, "experiment", spec, "t"), [good]),
        _delivery(Request(1, "experiment", spec, "t"), [corrupted]),
        _delivery(Request(2, "experiment", spec, "t"), [], error="boom"),
        _delivery(Request(3, "experiment", spec, "t", repeat_of=0), [corrupted]),
        _delivery(Request(4, "experiment", spec, "t", repeat_of=0), [good]),
    ]
    judge = drive.Judge()
    for delivery in deliveries:
        judge(delivery)
    verdict = judge.verdict()
    assert (verdict["attempted"], verdict["failed"]) == (5, 3)
    assert [d.correct_shots() for d in deliveries] == [4096, 0, 0, 0, 4096]
    assert all(counts is None for d in deliveries for _, _, counts in d.points)
    assert stats.failed_fraction(verdict["failed"], verdict["attempted"]) == 0.6


# ---------------------------------------------------------------------- #
# Reduced-size passes of every workload
# ---------------------------------------------------------------------- #
@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "NOISY_SHOTS", 32)
    monkeypatch.setattr(workloads, "FLEET_CIRCUITS", 6)
    monkeypatch.setattr(workloads, "SERVICE_FLEET_CIRCUITS", 4)
    monkeypatch.setattr(workloads, "FLEET_QUBITS", 5)
    monkeypatch.setattr(workloads, "INTERACTIVE_RATE", 20.0)


@pytest.mark.parametrize("workload", sorted(workloads.CLOSED_LOOP))
def test_closed_loop_smoke(small_sizes, tmp_path, workload):
    judge = drive.Judge()
    deliveries = drive.closed_loop(workloads.CLOSED_LOOP[workload](5), 0.0, 1, tmp_path, judge)
    assert len(deliveries) == workloads.MIN_REQUESTS
    assert sum(d.request.fresh for d in deliveries) == FRESH_PER_RUN
    assert [d.request.fresh for d in deliveries[:3]] == [True, True, False]
    verdict = judge.verdict()
    assert verdict["failed"] == 0, verdict["failures"]
    assert verdict["attempted"] > 0 and verdict["digest"]


def test_service_smoke(small_sizes, tmp_path):
    outcome = asyncio.run(drive.service_session(5, math.inf, 1, tmp_path, False, fleet_jobs=1))
    assert len(outcome.fleet) == 1 and outcome.interactive
    judge = drive.Judge()
    for delivery in outcome.fleet + outcome.interactive:
        judge(delivery)
    assert judge.failed == 0, judge.failures
    batch = drive.execute(outcome.fleet[0].request, 1, tmp_path / "identity")
    assert not judge.identical("fleet", outcome.fleet[0].digests, drive.digests(batch.points))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reports_every_per_layer_metric(small_sizes, tmp_path, workload):
    from perfbench import child

    result = child.inline_pass(workload, 5, tmp_path, traced=True)
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert set(PER_LAYER) - {"bench.trace_overhead"} == set(metrics)
    runs = sum(metrics[f"qx.runs.{kind}"] for kind in ("sampled", "trajectory", "density", "mps"))
    assert runs == sum(1 for span in result["trace"]["spans"] if span["name"] == "qx.run_program")
    assert metrics["runtime.shards"] > 0 or metrics["batch.chunks"] > 0
    if workload == "service_mixed":
        assert metrics["service.units_per_point"] > 0
    else:
        assert metrics["service.units_per_point"] == 0
