"""Run workloads on several seeds and record how steady each metric is.

    python3 perfbench/proof.py --label proof-a --seeds 401-410
    python3 perfbench/proof.py --label tune --seeds 1-5 --workloads fleet_batch

For each workload, runs ``run.py`` once per seed (untraced, at the
``run_seconds`` of ``BENCHMARK.json``) and reports, per end-to-end metric,
the median of the runs and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, which must stay within the metric's bound.  Every run's values, its
host-speed probe and its wall time are written to
``perfbench/proofs/<label>.json`` so that bounds can be audited later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROOFS = Path(__file__).resolve().parent / "proofs"


def seeds(text: str) -> list[int]:
    """``"401-410"`` or ``"1,5,9"``."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    final = json.loads(done.stdout.strip().splitlines()[-1])
    record_file = ROOT / ".perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_file.read_text())
    return {
        "workload": workload,
        "seed": seed,
        "exit_code": done.returncode,
        "wall_s": wall,
        "host_probe_ms": record["host_probe_ms"],
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: entry["value"] for name, entry in final["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workloads", nargs="*", default=workloads)
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    runs, summary = [], {}
    for workload in args.workloads:
        mine = [run_once(workload, seed, benchmark["run_seconds"]) for seed in args.seeds]
        runs += mine
        summary[workload] = {}
        print(f"{workload}  walls {[round(run['wall_s'], 1) for run in mine]}")
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in mine]
            summary[workload][name] = stats = spread(values) if len(values) >= 2 else {}
            if stats:
                flag = "" if name == "setup_s" or stats["spread"] <= bound else "  OVER BOUND"
                print(
                    f"  {name:<22} median {stats['median']:.5g}  spread {stats['spread']:.3f}"
                    f" (bound {bound}){flag}"
                )
        failed = [run["seed"] for run in mine if run["exit_code"] or not run["correct"]]
        if failed:
            print(f"  FAILED seeds {failed}")
    PROOFS.mkdir(exist_ok=True)
    out = PROOFS / f"{args.label}.json"
    proof = {"seeds": args.seeds, "summary": summary, "runs": runs}
    out.write_text(json.dumps(proof, indent=1) + "\n")
    print(f"written {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
