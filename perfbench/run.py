"""Run one workload of the full-stack benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_batch --seed 1 --seconds 35 --trace 0

Without tracing (``--trace 0``) the workload runs through its process pool
for ``--seconds`` and the end-to-end metrics of ``BENCHMARK.json`` are
printed; set-up time is the median of several fresh processes started
afterwards.
With ``--trace 1`` the workload instead runs inline in child processes, once
untraced and once traced, for at least ``--seconds``, and the per-layer
metrics of the first traced pass are printed with a self-time table per
layer.  Every delivered histogram is checked; the last line of the output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is non-zero when any check failed.  Run records (and the spans of
traced runs) are written under ``.perfbench/out/``, with a host-speed probe
taken before and after the run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process: the pool already gives each core a process, and
# a second BLAS thread per process would measure the scheduler.  Set before
# numpy is first imported; pool workers and child processes inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Longest a child process may take before the run gives up on it.
CHILD_TIMEOUT_S = 150


def _require_source() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_probe_ms(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: the host's speed just now.

    Recorded beside the metrics (never one of them) so that runs made while
    the host ran slow can be told apart from slow code.
    """
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


def child_command(mode: str, workload: str, seed: int, workdir: Path, *extra: str) -> list[str]:
    command = [sys.executable, str(CHILD), mode, "--workload", workload]
    return command + ["--seed", str(seed), "--workdir", str(workdir), *extra]


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Seconds from process start to ``ready`` for ``SETUP_REPEATS`` fresh probes."""
    timings = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.Popen(
            child_command("setup", workload, seed, workdir / f"setup-{attempt}"),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = probe.stdout.readline()
            timings.append(time.perf_counter() - start)
            probe.stdout.read()
            probe.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return timings


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Drive the workload for ``seconds`` through its pool; returns the run record."""
    from perfbench import drive, workloads
    from perfbench.stats import Summary, failed_fraction

    record: dict = {"mode": "end_to_end"}
    if workload == "service_mixed":
        record["workers"] = workloads.SERVICE_WORKERS
        outcome = asyncio.run(
            drive.service_session(seed, seconds, workloads.SERVICE_WORKERS, workdir / "service")
        )
        rss = peak_rss_mb()
        judge = drive.Judge()
        for delivery in outcome.fleet + outcome.interactive:
            judge(delivery)
        # The service rewrites a batch job into single-circuit points; the
        # result must be bit-identical to BatchRunner on the same spec.
        first = outcome.fleet[0]
        batch = drive.execute(first.request, 1, workdir / "identity")
        differ = judge.identical(
            "service fleet vs BatchRunner", first.digests, drive.digests(batch.points)
        )
        judge.mark_bad(first, differ)
        throughput = outcome.fleet
        fresh = [d for d in outcome.interactive if d.request.fresh]
        repeats = [d for d in outcome.interactive if not d.request.fresh]
        record["generator_late_max_s"] = max(
            (d.sent_s - d.due_s for d in outcome.interactive), default=0.0
        )
        record["dedup"] = outcome.counters
    else:
        record["workers"] = workloads.WORKERS
        judge = drive.Judge()
        deliveries = drive.closed_loop(
            workloads.CLOSED_LOOP[workload](seed), seconds, workloads.WORKERS, workdir, judge
        )
        rss = peak_rss_mb()
        throughput = fresh = [d for d in deliveries if d.request.fresh]
        repeats = [d for d in deliveries if not d.request.fresh]
    setup = measure_setup(workload, seed, workdir)  # after peak_rss_mb: not counted
    verdict = judge.verdict()  # before the rates: a failing pool fails its shots
    summaries = {
        "latency": Summary.of([d.latency for d in fresh]),
        "cached_latency": Summary.of([d.latency for d in repeats]),
        "setup": Summary.of(setup),
    }
    record.update(verdict)
    record["populations"] = {name: vars(summary) for name, summary in summaries.items()}
    record["samples"] = {
        "busy": [[d.sent_s, d.done_s, d.correct_shots()] for d in throughput],
        "latency": [[d.due_s, d.latency] for d in fresh],
        "cached_latency": [[d.due_s, d.latency] for d in repeats],
        "setup": setup,
    }
    record["metrics"] = {
        "setup_s": summaries["setup"].median,
        "shots_per_s": shots_per_second(throughput),
        "latency_mean_s": summaries["latency"].mean,
        "latency_tail_s": summaries["latency"].tail,
        "cached_latency_mean_s": summaries["cached_latency"].mean,
        "peak_rss_mb": rss,
    }
    record["failed_fraction"] = failed_fraction(verdict["failed"], verdict["attempted"])
    return record


def shots_per_second(deliveries) -> float:
    """Shots in correct results over the host time the requests took, summed."""
    busy = sum(d.done_s - d.sent_s for d in deliveries)
    return sum(d.correct_shots() for d in deliveries) / busy


def run_child_pass(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    out = workdir / f"pass-{time.perf_counter_ns()}.json"
    command = child_command(
        "pass", workload, seed, out.with_suffix(""), "--traced", str(int(traced)), "--out", str(out)
    )
    subprocess.run(command, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text())


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced and traced inline passes, in pairs, until ``seconds`` have passed."""
    start = time.perf_counter()
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        plain = run_child_pass(workload, seed, workdir, traced=False)
        pairs.append((plain, run_child_pass(workload, seed, workdir, traced=True)))
    first = pairs[0][1]
    metrics = dict(first["metrics"])
    metrics["bench.trace_overhead"] = statistics.median(
        traced_pass["wall_s"] / plain["wall_s"] for plain, traced_pass in pairs
    )
    passes = [p for pair in pairs for p in pair]
    return {
        "mode": "traced",
        "workers": 1,
        "pairs": len(pairs),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "digest": first["digest"],
        "layers": first["layers"],
        "metrics": metrics,
        "trace": first["trace"],
    }


def _finite(value: float) -> float:
    """JSON has no infinity; a failed request's latency is reported as 1e9 s."""
    return value if math.isfinite(value) else 1e9


def report(workload: str, seed: int, record: dict, declared: list[dict]) -> dict:
    """Print the human-readable report; return the final JSON object."""
    print(f"workload {workload}  seed {seed}  mode {record['mode']}  workers {record['workers']}")
    populations = record.get("populations", {})
    notes = {
        "setup_s": populations.get("setup"),
        "latency_mean_s": populations.get("latency"),
        "latency_tail_s": populations.get("latency"),
        "cached_latency_mean_s": populations.get("cached_latency"),
    }
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        value = _finite(float(record["metrics"][name]))
        metrics[name] = {"value": value, "unit": unit}
        detail = ""
        population = notes.get(name)
        if population is not None:
            percentile = population["tail_percentile"]
            tail = "max" if percentile is None else f"p{percentile:.1f}"
            detail = (
                f"  (n={population['count']}, mean {population['mean']:.6g}, "
                f"median {population['median']:.6g}, {tail} {population['tail']:.6g})"
            )
        elif name == "shots_per_s" and "samples" in record:
            detail = f"  (n={len(record['samples']['busy'])} requests, summed)"
        print(f"  {name:<28} {value:.6g} {unit}{detail}")
    if record["mode"] == "end_to_end":
        print(
            f"  {'failed_fraction':<28} {record['failed_fraction']:.6g} ratio  "
            f"({record['failed']} of {record['attempted']} points)"
        )
        if "generator_late_max_s" in record:
            print(f"  {'generator_late_max_s':<28} {record['generator_late_max_s']:.6g} s")
    else:
        print("  self time per layer (first traced pass):")
        for layer, seconds in record["layers"].items():
            print(f"    {layer:<10} {seconds:.6f} s")
    before, after = record["host_probe_ms"]
    print(f"  host probe {before:.2f} ms before, {after:.2f} ms after (host speed, not a metric)")
    print(f"  histogram digest {record['digest']} (recorded, not gated)")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _require_source()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe_before = host_probe_ms()
    try:
        if args.trace:
            record = traced(args.workload, args.seed, args.seconds, workdir)
        else:
            record = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["host_probe_ms"] = [probe_before, host_probe_ms()]
    out = ROOT / ".perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record) + "\n")
    final = report(args.workload, args.seed, record, declared)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
