"""E11 (Section 2.6): mapping overhead under the nearest-neighbour constraint.

Reproduces the mapping discussion as a measured table: for representative
circuits (QFT, random, GHZ) placed on 2-D grid topologies, report the SWAPs
inserted, the gate-count overhead and the depth/latency increase, for both
the trivial and the interaction-aware initial placement (the ablation of the
placement design choice).
"""

import time

import networkx as nx
import pytest

from bench_utils import print_table, run_once
from repro.core.circuit import ghz_circuit, qft_circuit, random_circuit
from repro.mapping.placement import greedy_placement, interaction_graph, trivial_placement
from repro.mapping.routing import Router
from repro.mapping.scheduling import Scheduler
from repro.mapping.topology import Topology, grid_topology


CIRCUITS = {
    "qft_8": lambda: qft_circuit(8),
    "ghz_9": lambda: ghz_circuit(9),
    "random_9x15": lambda: random_circuit(9, 15, seed=77),
}


def _route(circuit, topology, placement_strategy):
    placement = (
        greedy_placement(circuit, topology)
        if placement_strategy == "greedy"
        else trivial_placement(circuit, topology)
    )
    result = Router(topology).route(circuit, placement)
    makespan = Scheduler("asap").schedule(result.circuit).makespan
    return result, makespan


@pytest.mark.bench_smoke
def test_routing_overhead_per_circuit(benchmark):
    topology = grid_topology(3, 3)

    def sweep():
        rows = []
        for name, build in CIRCUITS.items():
            circuit = build()
            baseline_makespan = Scheduler("asap").schedule(circuit).makespan
            result, makespan = _route(circuit, topology, "greedy")
            rows.append(
                (
                    name,
                    circuit.gate_count(),
                    result.circuit.gate_count(),
                    result.swaps_inserted,
                    f"{result.overhead * 100:.0f}%",
                    baseline_makespan,
                    makespan,
                )
            )
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E11a routing overhead on a 3x3 nearest-neighbour grid (Section 2.6)",
        ["circuit", "gates_before", "gates_after", "swaps", "overhead", "latency_ns_before", "latency_ns_after"],
        rows,
    )
    for row in rows:
        assert row[2] >= row[1]
        assert row[6] >= row[5]


def test_placement_ablation_greedy_vs_trivial(benchmark):
    topology = grid_topology(3, 3)

    def sweep():
        rows = []
        for name, build in CIRCUITS.items():
            circuit = build()
            trivial_result, _ = _route(circuit, topology, "trivial")
            greedy_result, _ = _route(circuit, topology, "greedy")
            rows.append((name, trivial_result.swaps_inserted, greedy_result.swaps_inserted))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E11b ablation: SWAPs inserted with trivial vs interaction-aware placement",
        ["circuit", "swaps_trivial_placement", "swaps_greedy_placement"],
        rows,
    )
    total_trivial = sum(row[1] for row in rows)
    total_greedy = sum(row[2] for row in rows)
    assert total_greedy <= total_trivial


def test_grid_size_sweep(benchmark):
    """Larger (sparser relative to circuit width) grids cost more routing."""

    def sweep():
        circuit = random_circuit(9, 15, seed=78)
        rows = []
        for rows_, cols in ((3, 3), (2, 5), (1, 9)):
            topology = grid_topology(rows_, cols)
            result, _ = _route(circuit, topology, "greedy")
            rows.append((f"{rows_}x{cols}", result.swaps_inserted))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E11c topology shape vs SWAP count (same 9-qubit random circuit)",
        ["grid", "swaps"],
        rows,
    )
    swaps = dict(rows)
    assert swaps["1x9"] >= swaps["3x3"]


class _DictDistanceTopology(Topology):
    """The pre-optimisation baseline: O(V^2) dict-of-dicts distances.

    Reproduces the seed implementation exactly — ``distance`` lazily builds
    ``nx.all_pairs_shortest_path_length`` and ``shortest_path`` runs a
    per-query networkx BFS — with the closed-form grid fast paths disabled.
    """

    def __init__(self, source: Topology):
        super().__init__(source.graph, name=f"{source.name}_dict", grid_shape=None)
        self._dict_distances = None

    def distance(self, site_a, site_b):
        if self._dict_distances is None:
            self._dict_distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        return self._dict_distances[site_a][site_b]

    def shortest_path(self, site_a, site_b):
        return nx.shortest_path(self.graph, site_a, site_b)

    def are_adjacent(self, site_a, site_b):
        return self.graph.has_edge(site_a, site_b)


def _scalar_greedy_placement(circuit, topology):
    """The seed's pure-Python greedy placement (pre-vectorisation baseline)."""
    interactions = interaction_graph(circuit)
    order = sorted(
        interactions.nodes,
        key=lambda n: -sum(d.get("weight", 1) for _, _, d in interactions.edges(n, data=True)),
    )
    placement = {}
    free_sites = set(range(topology.num_qubits))
    for logical in order:
        placed = [
            (other, interactions[logical][other]["weight"])
            for other in interactions.neighbors(logical)
            if other in placement
        ]
        if not placed:
            site = max(
                sorted(free_sites),
                key=lambda s: len(set(topology.neighbours(s)) & free_sites),
            )
        else:
            site = min(
                sorted(free_sites),
                key=lambda c: sum(w * topology.distance(c, placement[o]) for o, w in placed),
            )
        placement[logical] = site
        free_sites.discard(site)
    return placement


@pytest.mark.bench_smoke
def test_large_grid_routing_speedup(benchmark):
    """Place + route a 64-qubit depth-50 circuit on a 32x32 (1024-site) lattice.

    The rewritten pipeline (vectorized placement over the numpy distance
    matrix, closed-form grid distances/paths in the router) must beat the
    dict-distance baseline >= 5x while inserting the identical SWAP
    sequence (the SABRE scorer only consumes distances, so both backends
    route identically).
    """
    circuit = random_circuit(64, 50, seed=99)

    def time_pipeline(make_topology, place):
        # Best of two: a fresh topology per round (no cached distances), the
        # min filters out scheduler noise that one-shot timing is prone to.
        best_s, result = None, None
        for _ in range(2):
            topology = make_topology()
            start = time.perf_counter()
            result = Router(topology, mode="sabre").route(circuit, place(circuit, topology))
            elapsed = time.perf_counter() - start
            best_s = elapsed if best_s is None else min(best_s, elapsed)
        return result, best_s

    def compare():
        fast, fast_s = time_pipeline(lambda: grid_topology(32, 32), greedy_placement)
        slow, slow_s = time_pipeline(
            lambda: _DictDistanceTopology(grid_topology(32, 32)), _scalar_greedy_placement
        )
        return fast, slow, fast_s, slow_s

    fast, slow, fast_s, slow_s = run_once(benchmark, compare)
    print_table(
        "E11d 32x32-lattice mapping: closed-form/vectorized vs dict-distance baseline",
        ["pipeline", "wall_s", "swaps", "overhead"],
        [
            ("closed-form + vectorized", round(fast_s, 3), fast.swaps_inserted,
             f"{fast.overhead * 100:.0f}%"),
            ("dict-of-dicts baseline", round(slow_s, 3), slow.swaps_inserted,
             f"{slow.overhead * 100:.0f}%"),
            ("speedup", round(slow_s / fast_s, 1), "-", "-"),
        ],
    )
    assert fast.swaps_inserted == slow.swaps_inserted
    assert slow_s / fast_s >= 5.0


@pytest.mark.bench_smoke
def test_compile_runtime_sweep_bit_identical_across_workers(benchmark):
    """Placement x router compile sweeps merge bit-identically for 1 vs 4 workers."""
    from repro.runtime import CircuitSpec, ExperimentRunner, ExperimentSpec

    def spec():
        return ExperimentSpec(
            name="bench-compile-sweep",
            kind="compile",
            circuit=CircuitSpec(
                builder="random", kwargs={"num_qubits": 16, "depth": 20, "seed": 5}
            ),
            sweep={
                "compile.placement": ["trivial", "greedy"],
                "compile.router": ["path", "sabre"],
            },
        )

    def run_both(tmp_root):
        serial = ExperimentRunner(spec(), workers=1, cache_dir=f"{tmp_root}/serial").run()
        parallel = ExperimentRunner(spec(), workers=4, cache_dir=f"{tmp_root}/parallel").run()
        return serial, parallel

    import tempfile

    with tempfile.TemporaryDirectory() as tmp_root:
        serial, parallel = run_once(benchmark, run_both, tmp_root)
    rows = [
        (
            ", ".join(f"{k.split('.')[-1]}={v}" for k, v in point.params.items()),
            point.metrics["swaps"],
            point.metrics["makespan_ns"],
            point.metrics["locality"],
        )
        for point in serial.points
    ]
    print_table(
        "E11e compile-kind sweep on the parallel runtime (metrics per point)",
        ["point", "swaps", "makespan_ns", "locality"],
        rows,
    )
    for left, right in zip(serial.points, parallel.points, strict=True):
        assert left.metrics == right.metrics
        assert left.params == right.params
