"""Trajectory stream v2: the shot-stacked engine's randomness contract.

* a run's draws are shot-major rows of one uniform block, so an N-shot run
  equals N consecutive 1-shot runs (a batch of one is the serial case) and
  row chunking changes nothing;
* every error location and measurement consumes a fixed number of
  uniforms, so the generator's state after a run does not depend on the
  error rates or the outcomes;
* the stacked engine (fused single-qubit runs, single-qubit layers as
  block gemms, SWAPs as axis relabelings, masked conditional rows, the
  one-pass terminal tail) equals the obvious per-shot, per-gate loop on the
  same rows, and the MPS engine's per-shot loop reads the same rows, so it
  reproduces the dense engine's shots;
* masked conditional rows are exact: a noisy mid-circuit measure-and-reset
  circuit matches the exact branch ensemble.
"""

import numpy as np
import pytest

from repro.core.circuit import Circuit, rotation_ladder_circuit
from repro.core.qubits import REALISTIC
from repro.openql.compiler import Compiler
from repro.openql.platform import realistic_platform
from repro.qx import kernels
from repro.qx.compiled import COND_GATE, GATE, MEASURE, program_for
from repro.qx.density import DensityMatrixSimulator
from repro.qx.error_models import (
    AsymmetricPauliError,
    CompositeError,
    CrosstalkError,
    DecoherenceError,
    DepolarizingError,
    MeasurementError,
    apply_events,
    error_model_for,
)
from repro.qx.simulator import QXSimulator
from repro.qx.statevector import StateVector
from repro.qx.trajectories import _GATE, _LAYER, _TAIL, TrajectoryPlan

NEIGHBOURS = {0: (1,), 1: (0, 2), 2: (1, 3), 3: (2,)}


def _every_kind(rate: float) -> CompositeError:
    """Every error-model kind at one rate; ``rate == 0`` keeps the layout."""
    t1, t2 = (200.0 / rate, 150.0 / rate) if rate else (float("inf"), float("inf"))
    return CompositeError(
        DepolarizingError(rate, two_qubit_error_rate=rate),
        AsymmetricPauliError(rate / 3, rate / 6, rate / 2),
        DecoherenceError(t1_ns=t1, t2_ns=t2),
        CrosstalkError(rate, neighbours=NEIGHBOURS),
        MeasurementError(rate),
    )


def _feedback_circuit(num_qubits: int = 4) -> Circuit:
    """Entangle, measure mid-circuit, reset by feedback, entangle again."""
    circuit = Circuit(num_qubits, num_bits=num_qubits + 1)
    circuit.h(0).cnot(0, 1).ry(2, 0.9)
    circuit.measure(0, num_qubits)
    circuit.conditional_gate("x", num_qubits, 0)
    circuit.conditional_gate("x", num_qubits, 1)
    for qubit in range(num_qubits - 1):
        circuit.cnot(qubit + 1, qubit).rx(qubit, 0.3 * (qubit + 1))
    circuit.measure_all()
    return circuit


def _wide_circuit(num_qubits: int) -> Circuit:
    circuit = Circuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.ry(qubit, 0.4 + 0.1 * qubit)
    for qubit in range(num_qubits - 1):
        circuit.cnot(qubit, qubit + 1)
    circuit.measure_all()
    return circuit


def _run_heavy_circuit() -> Circuit:
    """Long single-qubit runs (fused by the plan) around feedback."""
    circuit = Circuit(3, num_bits=4)
    for qubit in range(3):
        circuit.h(qubit).rz(qubit, 0.3 + qubit).ry(qubit, 0.7).rx(qubit, 0.1 + 0.2 * qubit)
    circuit.cnot(0, 1)
    circuit.measure(1, 3)
    circuit.conditional_gate("x", 3, 1)
    for qubit in range(3):
        circuit.rz(qubit, 0.5).h(qubit).s(qubit).ry(qubit, 0.4)
    circuit.cnot(1, 2).t(2).h(2)
    circuit.measure_all()
    return circuit


def _routed_circuit() -> Circuit:
    """A rotation ladder routed onto a realistic 2x4 grid (six SWAPs)."""
    circuit = rotation_ladder_circuit(8, depth=3, seed=5)
    circuit.measure_all()
    return Compiler().compile_circuit(circuit, realistic_platform(8))


def _wide_layer_circuit(num_qubits: int = 7) -> Circuit:
    """Full single-qubit layers across more than one block of axes.

    The tail measures one qubit twice and cross-maps bits, so the one-pass
    tail must repeat an outcome and keep program order of bit writes.
    """
    circuit = Circuit(num_qubits, num_bits=num_qubits + 1)
    for qubit in range(num_qubits):
        circuit.h(qubit).rz(qubit, 0.2 + 0.3 * qubit).ry(qubit, 0.9 - 0.1 * qubit)
    for qubit in range(num_qubits - 1):
        circuit.cnot(qubit, qubit + 1)
    for qubit in reversed(range(num_qubits)):
        circuit.rx(qubit, 0.4 + 0.05 * qubit).s(qubit)
    circuit.z(3).x(5)  # lone diagonal / anti-diagonal gates, applied in place
    circuit.swap(0, 6).swap(2, 4).cnot(6, 1)
    for qubit in range(num_qubits):
        circuit.measure(qubit, num_qubits - 1 - qubit)
    circuit.measure(4, num_qubits)
    return circuit


def _draws_per_shot(circuit: Circuit, model) -> int:
    program = program_for(circuit, fuse=False)
    return TrajectoryPlan(program, model, circuit.num_qubits).draws


def _per_gate_loop(circuit: Circuit, model, rows: np.ndarray):
    """Stream v2 the obvious way: one state per shot, every gate then its events.

    Independent of the engine's plan (no fusion, no stacking): the draw
    columns advance op by op exactly as the stream defines them.
    """
    program = program_for(circuit, fuse=False)
    confusion = model.confusion()
    bits = np.zeros((len(rows), max(program.num_bits, circuit.num_qubits)), dtype=np.int64)
    errors = 0
    for shot, row in enumerate(rows):
        state = StateVector(circuit.num_qubits)
        column = 0
        for op in program.ops:
            if op.kind == MEASURE:
                qubit = op.qubits[0]
                outcome = int(row[column] < state.probability_of_one(qubit))
                state.collapse(qubit, outcome)
                if confusion is not None:
                    outcome ^= int(row[column + 1] < confusion[outcome, 1 - outcome])
                bits[shot, op.bit] = outcome
                column += 1 if confusion is None else 2
                continue
            events = model.gate_events(op.qubits, op.duration, circuit.num_qubits)
            if op.kind == GATE or bits[shot, op.condition_bit]:
                state.apply_gate(op.matrix, op.qubits)
                errors += apply_events(state, events, row[column:])
            column += sum(event.draws for event in events)
        assert column == rows.shape[1]
    return bits, errors, state.amplitudes


class TestShotMajorRows:
    @pytest.mark.parametrize(
        "circuit, model, shots",
        [
            (_feedback_circuit(), _every_kind(0.05), 40),
            (_feedback_circuit(), None, 25),
            (_feedback_circuit(), DepolarizingError(0.0), 25),
            # 13 qubits: 2**16 >> 13 = 8 rows per chunk, so 20 shots span 3 chunks.
            (_wide_circuit(13), _every_kind(0.02), 20),
            (_wide_circuit(13), CompositeError(), 20),
        ],
        ids=[
            "feedback-noisy",
            "feedback-noise-free",
            "feedback-zero-rate",
            "chunked-noisy",
            "chunked-measure-only",
        ],
    )
    def test_n_shot_run_equals_consecutive_one_shot_runs(self, circuit, model, shots):
        batched = QXSimulator(error_model=model, seed=17)
        serial = QXSimulator(error_model=model, seed=17)
        result = batched.run(circuit, shots=shots, backend="statevector")
        singles = [serial.run(circuit, shots=1, backend="statevector") for _ in range(shots)]
        assert result.classical_bits == [single.classical_bits[0] for single in singles]
        assert result.errors_injected == sum(single.errors_injected for single in singles)
        assert batched.rng.bit_generator.state == serial.rng.bit_generator.state

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_stacked_rows_equal_the_per_gate_loop(self, seed):
        """Fused runs and masked conditional rows against the obvious serial loop."""
        circuit = _run_heavy_circuit()
        model = _every_kind(0.25)
        shots = 40
        result = QXSimulator(error_model=model, seed=seed).run(
            circuit, shots=shots, backend="statevector", keep_final_state=True
        )
        rows = np.random.default_rng(seed).random((shots, _draws_per_shot(circuit, model)))
        bits, errors, final_state = _per_gate_loop(circuit, model, rows)
        assert result.classical_bits == bits.tolist()
        assert result.errors_injected == errors > shots
        np.testing.assert_allclose(result.final_state, final_state, atol=1e-12)

    @pytest.mark.parametrize(
        "circuit, model, seed",
        [
            (_routed_circuit(), _every_kind(0.2), 3),
            (_routed_circuit(), error_model_for(REALISTIC.with_error_rate(0.05)), 4),
            (_wide_layer_circuit(), _every_kind(0.25), 5),
            (_wide_layer_circuit(), MeasurementError(0.2), 6),
            (_wide_layer_circuit(), DecoherenceError(t1_ns=300.0, t2_ns=200.0), 7),
            (_wide_layer_circuit(9), CompositeError(DecoherenceError(400.0, 300.0)), 8),
        ],
        ids=[
            "routed-every-kind",
            "routed-realistic",
            "wide-layer-every-kind",
            "wide-layer-readout-tail",
            "wide-layer-decoherence",
            "wide-layer-9q-decoherence",
        ],
    )
    def test_plan_rewrites_equal_the_per_gate_loop(self, circuit, model, seed):
        """Relabeled SWAPs, block-gemm layers and the one-pass tail, shot for shot."""
        shots = 48
        result = QXSimulator(error_model=model, seed=seed).run(
            circuit, shots=shots, backend="statevector", keep_final_state=True
        )
        rows = np.random.default_rng(seed).random((shots, _draws_per_shot(circuit, model)))
        bits, errors, final_state = _per_gate_loop(circuit, model, rows)
        assert result.classical_bits == bits.tolist()
        assert result.errors_injected == errors
        assert errors > shots or model.confusion() is not None
        np.testing.assert_allclose(result.final_state, final_state, atol=1e-12)

    def test_routed_program_swaps_are_relabelings(self):
        circuit = _routed_circuit()
        program = program_for(circuit, fuse=False)
        plan = TrajectoryPlan(program, _every_kind(0.1), circuit.num_qubits)
        swaps = sum(op.structure == kernels.SWAP_2Q for op in program.ops)
        two_qubit = sum(len(op.qubits) == 2 for op in program.ops)
        gates = [payload for kind, payload, _ in plan.steps if kind == _GATE]
        assert swaps == 6
        assert len(gates) == two_qubit - swaps
        assert all(gate.structure != kernels.SWAP_2Q for gate in gates)
        assert plan.axes != tuple(range(circuit.num_qubits))

    def test_plan_blocks_layers_and_merges_the_tail(self):
        program = program_for(_wide_layer_circuit(), fuse=False)
        plan = TrajectoryPlan(program, DepolarizingError(0.01), num_qubits=7)
        # The first layer (h rz ry on 7 qubits) is two gemm blocks: axes 0-3, 4-6.
        kind, blocks, events = plan.steps[0]
        assert kind == _LAYER and [block[:2] for block in blocks] == [(4, 0), (3, 4)]
        assert len(events) == 3 * 7
        # The trailing measurements are one step.
        kind, tail, _ = plan.steps[-1]
        assert kind == _TAIL and len(tail) == 8

    def test_fidelity_undoes_swap_relabelings(self):
        circuit = Circuit(3).h(0).cnot(0, 1).swap(1, 2).ry(2, 0.7).swap(0, 2)
        simulator = QXSimulator(error_model=DepolarizingError(0.0), seed=1)
        assert simulator.fidelity_with_ideal(circuit, shots=4) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "circuit", [_feedback_circuit(), _routed_circuit()], ids=["feedback", "routed"]
    )
    def test_mps_engine_reads_the_same_rows(self, circuit):
        model = _every_kind(0.05)
        dense = QXSimulator(error_model=model, seed=5).run(
            circuit, shots=60, backend="statevector"
        )
        mps = QXSimulator(error_model=model, seed=5).run(circuit, shots=60, backend="mps")
        assert mps.classical_bits == dense.classical_bits
        assert mps.errors_injected == dense.errors_injected > 0


class TestFixedDraws:
    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    def test_generator_state_ignores_rates_and_outcomes(self, backend):
        circuit = _feedback_circuit()
        quiet = QXSimulator(error_model=_every_kind(0.0), seed=23)
        noisy = QXSimulator(error_model=_every_kind(0.3), seed=23)
        quiet_result = quiet.run(circuit, shots=30, backend=backend)
        noisy_result = noisy.run(circuit, shots=30, backend=backend)
        assert quiet_result.errors_injected == 0
        assert noisy_result.errors_injected > 30
        assert quiet_result.counts != noisy_result.counts
        assert quiet.rng.bit_generator.state == noisy.rng.bit_generator.state

    def test_every_location_and_measurement_has_a_fixed_draw_count(self):
        program = program_for(_feedback_circuit(), fuse=False)
        plan = TrajectoryPlan(program, _every_kind(0.1), num_qubits=4)
        # Measurements: one outcome + one read-out uniform each.
        expected = 2 * program.num_measurements
        for op in program.ops:
            if op.kind == MEASURE:
                continue
            spectators = {n for q in op.qubits for n in NEIGHBOURS[q]} - set(op.qubits)
            # Depolarizing, asymmetric Pauli and decoherence (2 draws) per
            # operand, one crosstalk draw per spectator of a 2q gate.
            expected += 4 * len(op.qubits) + (len(spectators) if len(op.qubits) == 2 else 0)
        assert plan.draws == expected


def _exact_outcomes(circuit: Circuit, model) -> dict[tuple, float]:
    """Exact distribution of the reported classical bits, by branch enumeration.

    Each branch carries an unnormalised density matrix and the reported
    bits so far: a measurement splits every branch by projector and by the
    read-out confusion, and a conditional gate (with its noise) acts only
    on branches whose reported bit is 1.
    """
    program = program_for(circuit, fuse=False)
    n = circuit.num_qubits
    confusion = model.confusion()
    engine = DensityMatrixSimulator(n)
    branches = [(engine.rho, (0,) * program.num_bits)]

    def evolve(rho, op):
        engine.rho = rho
        engine.apply_unitary(op.matrix, op.qubits)
        for placement, channel in model.noise_channels(op.qubits, op.duration):
            engine.apply_channel(channel, placement)
        return engine.rho

    indices = np.arange(2**n)
    for op in program.ops:
        if op.kind == GATE:
            branches = [(evolve(rho, op), bits) for rho, bits in branches]
        elif op.kind == COND_GATE:
            branches = [
                (evolve(rho, op) if bits[op.condition_bit] else rho, bits)
                for rho, bits in branches
            ]
        else:
            split = []
            for rho, bits in branches:
                for outcome in (0, 1):
                    keep = ((indices >> op.qubits[0]) & 1) == outcome
                    projected = rho * np.outer(keep, keep)
                    for reported in (0, 1):
                        weight = 1.0 if confusion is None else confusion[outcome, reported]
                        if confusion is None and reported != outcome:
                            continue
                        marked = bits[: op.bit] + (reported,) + bits[op.bit + 1 :]
                        split.append((weight * projected, marked))
            branches = split
    distribution: dict[tuple, float] = {}
    for rho, bits in branches:
        distribution[bits] = distribution.get(bits, 0.0) + float(np.trace(rho).real)
    return distribution


class TestMaskedConditionalRows:
    @pytest.mark.parametrize(
        "model",
        [
            CompositeError(
                DepolarizingError(0.05, two_qubit_error_rate=0.1),
                DecoherenceError(t1_ns=400.0, t2_ns=300.0),
                MeasurementError(0.05),
            ),
            CrosstalkError(0.2, neighbours=NEIGHBOURS),
        ],
        ids=["composite", "crosstalk"],
    )
    def test_noisy_measure_and_reset_matches_exact_branches(self, model):
        circuit = _feedback_circuit()
        exact = _exact_outcomes(circuit, model)
        assert sum(exact.values()) == pytest.approx(1.0)
        shots = 4000
        result = QXSimulator(error_model=model, seed=41).run(
            circuit, shots=shots, backend="statevector"
        )
        observed: dict[tuple, float] = {}
        for bits in result.classical_bits:
            key = tuple(bits)
            observed[key] = observed.get(key, 0.0) + 1.0 / shots
        tvd = 0.5 * sum(
            abs(observed.get(key, 0.0) - exact.get(key, 0.0)) for key in set(observed) | set(exact)
        )
        # Sampling noise alone is ~0.02 at 4000 shots over this support; the
        # seed is pinned, so the bound is a deterministic regression gate.
        assert tvd < 0.05, tvd
