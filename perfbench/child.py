"""Child processes of the benchmark, each starting from a fresh interpreter.

``setup`` is one set-up probe: it imports the stack, builds the workload's
first spec and its runner (or starts a ``JobService`` and runs one warm-up
job), prints ``ready`` and exits; the parent times process start to
``ready``.  ``pass`` runs a workload inline (one worker, no processes) on a
fixed prefix of its stream, traced or not, and writes what it saw to
``--out``; the traced run compares the two.  Run by ``run.py``::

    python3 perfbench/child.py setup --workload fleet_batch --seed 1 --workdir DIR
    python3 perfbench/child.py pass --workload fleet_batch --seed 1 --workdir DIR \\
        --traced 1 --out FILE
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import drive, tracing, workloads  # noqa: E402
from perfbench.workloads import Request  # noqa: E402


def setup(workload: str, seed: int, workdir: Path) -> None:
    if workload == "service_mixed":

        async def ready() -> None:
            service = await drive.start_service(workdir, workloads.SERVICE_WORKERS)
            try:
                print("ready", flush=True)
            finally:
                await service.close()

        asyncio.run(ready())
        return
    request = next(workloads.CLOSED_LOOP[workload](seed))
    drive.make_runner(request, workloads.WORKERS, workdir / "cache")
    print("ready", flush=True)


def inline_pass(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    """One fresh request and its exact repeat (the service: one fleet job with
    interactive traffic beside it), inline, traced or not."""
    recorder = tracing.SpanRecorder() if traced else None
    judge = drive.Judge()
    outcome = None
    lateness = [0.0]
    if workload == "service_mixed":
        instrument = (lambda: tracing.install_service(recorder)) if traced else None
        session = drive.service_session(
            seed,
            math.inf,
            1,
            workdir,
            use_processes=False,
            fleet_jobs=1,
            instrument=instrument,
        )
        outcome = asyncio.run(session)
        for delivery in outcome.fleet + outcome.interactive:
            judge(delivery)
        wall = outcome.wall_s
        lateness += [d.sent_s - d.due_s for d in outcome.interactive]
    else:
        first = next(workloads.CLOSED_LOOP[workload](seed))
        repeat = Request(first.index + 1, first.kind, first.spec, first.tenant, first.index)
        patcher = tracing.install(recorder) if traced else None
        try:
            deliveries = drive.closed_loop([first, repeat], math.inf, 1, workdir)
        finally:
            if patcher is not None:
                patcher.undo()
        for delivery in deliveries:  # judged untraced: the checks plan and build too
            judge(delivery)
        wall = sum(d.done_s - d.sent_s for d in deliveries)
    result = {"wall_s": wall, **judge.verdict()}
    if recorder is not None:
        metrics = tracing.layer_metrics(recorder)
        metrics.update(tracing.service_metrics(recorder, outcome))
        metrics["bench.gen_late_max_s"] = max(lateness)
        result["metrics"] = metrics
        result["layers"] = recorder.layer_self_times()
        result["trace"] = recorder.to_dict()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.workload, args.seed, args.workdir)
        return 0
    start = time.perf_counter()
    result = inline_pass(args.workload, args.seed, args.workdir, bool(args.traced))
    result["process_s"] = time.perf_counter() - start
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
