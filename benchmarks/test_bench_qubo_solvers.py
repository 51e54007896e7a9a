"""E12 (Sections 3.3 and 4.2): gate-model vs annealing on QUBO problems.

The paper argues "the choice of the quantum accelerator is dependent on the
specific energy landscape of the application, as well as the characteristics
of the quantum systems (e.g. annealers can process larger problem sizes,
whereas gate models allow longer coherence times)".  The benchmark compares
the two accelerator classes plus the classical baseline on the same QUBO
instances: solution quality versus problem size, and the problem-size range
each path can handle at all.
"""

import numpy as np
import pytest

from bench_utils import print_table, run_once
from repro.algorithms.qaoa import QAOA
from repro.annealing.digital_annealer import DigitalAnnealer
from repro.annealing.quantum_annealer import SimulatedQuantumAnnealer
from repro.annealing.qubo import maxcut_qubo, random_qubo
from repro.annealing.simulated_annealing import SimulatedAnnealer


def _ring_maxcut(size):
    edges = [(i, (i + 1) % size) for i in range(size)]
    return maxcut_qubo(edges, size)


@pytest.mark.bench_smoke
def test_solution_quality_small_instances(benchmark):
    def sweep():
        rows = []
        for size in (6, 10, 14):
            qubo = _ring_maxcut(size)
            _, optimum = qubo.brute_force()
            sa = SimulatedAnnealer(num_sweeps=200, num_reads=5, seed=1).solve_qubo(qubo).energy
            sqa = SimulatedQuantumAnnealer(
                num_sweeps=100, num_reads=2, num_replicas=8, seed=2
            ).solve_qubo(qubo).energy
            digital = DigitalAnnealer(num_sweeps=600, num_reads=2, seed=3).solve_qubo(qubo).energy
            if size <= 14:
                qaoa = QAOA(depth=2, seed=4, max_iterations=40).solve_qubo(qubo).best_energy
            else:
                qaoa = float("nan")
            rows.append((size, optimum, sa, sqa, digital, qaoa))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E12a MaxCut-ring energy by solver (lower is better)",
        ["size", "exact", "sim_annealing", "sim_quantum_annealing", "digital_annealer", "qaoa_p2"],
        [tuple(round(v, 2) if isinstance(v, float) else v for v in row) for row in rows],
    )
    for _size, optimum, sa, sqa, digital, qaoa in rows:
        assert sa == pytest.approx(optimum, abs=1e-9)
        assert digital == pytest.approx(optimum, abs=1e-9)
        assert sqa <= optimum + 1.0
        assert qaoa <= optimum + 2.0 + 1e-9


def test_problem_size_reach_of_each_accelerator(benchmark):
    """Annealers reach far larger problems than the simulable gate model."""

    def sweep():
        rows = []
        for size in (16, 64, 256):
            qubo = random_qubo(size, density=0.1, seed=size)
            sa_energy = SimulatedAnnealer(num_sweeps=150, num_reads=2, seed=5).solve_qubo(qubo).energy
            gate_model_possible = size <= 20
            rows.append((size, round(sa_energy, 2), gate_model_possible))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E12b problem-size reach: annealing path vs gate-model (statevector) path",
        ["variables", "annealer_energy", "gate_model_simulable"],
        rows,
    )
    assert rows[-1][2] is False
    assert rows[0][2] is True


def test_annealing_schedule_ablation(benchmark):
    """Ablation: geometric vs linear temperature schedule."""

    def sweep():
        qubo = random_qubo(20, density=0.4, seed=99)
        results = {}
        for schedule in ("geometric", "linear"):
            energies = [
                SimulatedAnnealer(
                    num_sweeps=100, num_reads=1, schedule=schedule, seed=seed
                ).solve_qubo(qubo).energy
                for seed in range(5)
            ]
            results[schedule] = float(np.mean(energies))
        return results

    results = run_once(benchmark, sweep)
    print_table(
        "E12c annealing-schedule ablation (mean energy over 5 seeds, lower is better)",
        ["schedule", "mean_energy"],
        [(name, round(value, 3)) for name, value in results.items()],
    )
    assert set(results) == {"geometric", "linear"}
