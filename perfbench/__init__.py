"""Full-stack benchmark of the accelerator runtime.

Three workloads drive the public entry points (``ExperimentRunner``,
``BatchRunner`` and an in-process ``JobService``) and report end-to-end
throughput, latency, set-up time and memory; a separate traced run times the
calls into each layer.  Run one workload with::

    python3 perfbench/run.py --workload fleet_batch --seed 1 --seconds 35 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and metrics;
``perfbench/design.json`` records which layer each workload loads or
bypasses and which end-to-end metric each per-layer metric should move.
"""
