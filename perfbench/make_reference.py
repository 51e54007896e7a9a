"""Regenerate ``data/noisy_reference.json``: exact sweep_noisy distributions.

For every stored circuit seed and qubit count, the point is planned exactly
as ``ExperimentRunner`` plans it (compiled for the realistic platform and
canonicalised through cQASM), lowered without fusion, compiled to channels
with the platform's error model and evolved once on the density-matrix
engine.  Read-out error is applied to the exact outcome distribution with
the simulator's own confusion step, and the distribution over the classical
bits is stored with the digest of the compiled cQASM it describes (the
benchmark refuses to judge against a reference whose circuit the compiler no
longer produces).  Run from the repository root; it takes a few minutes::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402
from repro.cqasm.parser import cqasm_to_circuit  # noqa: E402
from repro.qx.channels import compile_channels  # noqa: E402
from repro.qx.compiled import lower  # noqa: E402
from repro.qx.density import DensityMatrixSimulator  # noqa: E402
from repro.qx.error_models import error_model_for  # noqa: E402
from repro.qx.simulator import _confuse  # noqa: E402
from repro.runtime import ExperimentRunner, ExperimentSpec  # noqa: E402


def point_reference(point, runner: ExperimentRunner) -> dict:
    planned = runner.plan_point(point)
    task = planned.tasks[0]
    program = lower(cqasm_to_circuit(planned.cqasm), fuse=False)
    channels = compile_channels(
        program, error_model_for(task.qubit_model), num_qubits=planned.num_qubits
    )
    engine = DensityMatrixSimulator(planned.num_qubits)
    engine.run_channels(channels)
    _, sources = program.sample_sources()
    probabilities = engine.probabilities().copy()
    if channels.confusion is not None:
        probabilities = _confuse(probabilities, channels.confusion, sources)
    expectation = checks.expectation_from_probabilities(probabilities, list(sources))
    return {
        "compiled_cqasm_sha256": checks.cqasm_digest(planned.cqasm),
        "probabilities": [float(f"{p:.8g}") for p in expectation.probabilities],
    }


def main() -> None:
    points = {}
    for index, circuit_seed in enumerate(workloads.NOISY_CIRCUIT_SEEDS):
        request = next(workloads.sweep_noisy(index))
        spec = ExperimentSpec.from_dict(request.spec)
        if spec.circuit.kwargs["seed"] != circuit_seed:
            raise RuntimeError("sweep_noisy no longer picks circuit seeds by workload seed")
        runner = ExperimentRunner(spec, workers=1, use_cache=False)
        for point in spec.points():
            num_qubits = point.params["circuit.num_qubits"]
            start = time.perf_counter()
            points[checks.noisy_key(circuit_seed, num_qubits)] = point_reference(point, runner)
            print(f"seed {circuit_seed} {num_qubits}q: {time.perf_counter() - start:.1f} s")
    description = (
        "Exact sweep_noisy outcome distributions over the classical bits, outcome k "
        "holding bit b at bit b (density-matrix engine, read-out error applied); "
        "regenerate with perfbench/make_reference.py"
    )
    # One line per point keeps the file small and its diffs readable.
    lines = [f" {json.dumps(key)}: {json.dumps(entry)}" for key, entry in points.items()]
    checks.NOISY_REFERENCE.write_text(
        '{"description": ' + json.dumps(description) + ',\n"points": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )


if __name__ == "__main__":
    main()
