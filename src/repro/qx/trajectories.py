"""Shot-stacked trajectory execution on trajectory stream v2.

Circuits with noise or mid-circuit feedback cannot share one evolution
across shots: every shot is its own trajectory.  This engine still avoids a
per-shot loop.  It evolves a shard's shots as one C-contiguous
``(rows, 2**n)`` stack, so every gate is one kernel call over all rows, and
injects noise as masked per-row updates: rows whose draw fired an error
get a Pauli or a reset, the others are untouched.

Trajectory stream v2 is the randomness contract that makes this exact:

* a lowered program's error locations (:class:`TrajectoryPlan`, built from the
  error model's :meth:`~repro.qx.error_models.ErrorModel.gate_events`) and
  its measurements each consume a fixed number of uniforms whatever the
  outcome, so every shot draws the same ``D`` uniforms;
* shot ``r`` of a run owns row ``r`` of ``rng.random((shots, D))``, drawn
  row chunk by row chunk in shot order.  A batch of one is the serial
  case, and neither the chunk size nor the shard's row count changes any
  shot's draws.

A measurement draws one uniform (outcome 1 iff ``u < P(1)``) plus one more
when the model has read-out error, so noise-free feedback circuits keep
their one-uniform-per-measurement stream.  Rows are chunked at about
``2**16`` amplitudes, which bounds the stack however many shots a shard
carries.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.qx import kernels
from repro.qx.compiled import COND_GATE, GATE, MEASURE, KernelOp, KernelProgram
from repro.qx.error_models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ErrorModel,
    apply_events,
    flip_readouts,
    select_branches,
)

#: Amplitudes per row chunk: ``max(1, 2**16 >> n)`` rows of ``2**n``.
_CHUNK_AMPLITUDES = 1 << 16


class TrajectoryPlan:
    """A lowered program prepared for trajectories under one error model.

    Holds the stream-v2 layout (every error event and its draw column) and
    the steps that execute it.  A run of consecutive single-qubit gates on
    one qubit fuses into one gate without moving any error location: an
    event raised inside the run is applied after the fused gate,
    conjugated by the rest of the run (``B N B†`` for an event ``N``
    between gates ``A`` and ``B``).  Rows where it fires get ``B†``, the
    error, then ``B``, which is the state injecting it between the gates
    gives.  No other operation lies between the run's gates, so every shot
    sees the same events in the same order as a gate-by-gate loop, and
    only the rare fired rows pay for the fusion.

    Built once per run, so the model's per-gate values (decay
    probabilities, rates, spectator sets) are computed once per distinct
    ``(qubits, duration)``, not per shot.
    """

    __slots__ = ("steps", "events", "columns", "thresholds", "confusion", "draws")

    def __init__(self, program: KernelProgram, error_model: ErrorModel, num_qubits: int):
        confusion = error_model.confusion()
        self.confusion = None if confusion is None else np.asarray(confusion, dtype=float)
        readout_draws = 0 if confusion is None else 1
        #: ``(op, gemm operand, measurement draw column, events)`` per step:
        #: the operand is set for dense 1q gates only, and ``events`` holds
        #: ``(event index, correction, its adjoint)``, ``None`` when the
        #: event needs no correction.
        self.steps: list[tuple] = []
        self.events = []
        columns: list[int] = []
        located: dict[tuple, list] = {}
        run: list[tuple] = []  # consecutive fusable gates: (op, event indices)
        column = 0
        for op in program.ops:
            events = ()
            if op.kind != MEASURE:
                key = (op.qubits, op.duration)
                events = located.get(key)
                if events is None:
                    events = error_model.gate_events(op.qubits, op.duration, num_qubits)
                    located[key] = events
            fusable = (
                op.kind == GATE
                and len(op.qubits) == 1
                and all(event.qubit == op.qubits[0] for event in events)
            )
            if run and not (fusable and op.qubits == run[0][0].qubits):
                self._fuse(run)
                run = []
            if op.kind == MEASURE:
                self.steps.append((op, None, column, ()))
                column += 1 + readout_draws
                continue
            first = len(self.events)
            for event in events:
                self.events.append(event)
                columns.append(column)
                column += event.draws
            indices = range(first, len(self.events))
            if fusable:
                run.append((op, indices))
            else:
                self.steps.append((op, None, -1, tuple((i, None, None) for i in indices)))
        if run:
            self._fuse(run)
        #: Draw column of each event's selection uniform.
        self.columns = np.array(columns, dtype=np.intp)
        self.thresholds = np.array([event.thresholds for event in self.events]).reshape(-1, 4)
        #: Uniforms every shot consumes.
        self.draws = column

    def _fuse(self, run: list[tuple]) -> None:
        """Emit a run of single-qubit gates on one qubit as one step."""
        qubit = run[0][0].qubits[0]
        suffix = None  # product of the run's gates after the current one
        corrected: list[tuple] = []
        for op, indices in reversed(run):
            adjoint = None if suffix is None else suffix.conj().T
            corrected[:0] = [(index, suffix, adjoint) for index in indices]
            suffix = op.matrix if suffix is None else suffix @ op.matrix
        gate = run[0][0] if len(run) == 1 else KernelOp(GATE, suffix, (qubit,))
        operand = kernels.dense_1q_operand(gate.matrix, qubit)
        self.steps.append((gate, operand, -1, tuple(corrected)))


def evolve_stacked(
    plan: TrajectoryPlan,
    num_qubits: int,
    rng: np.random.Generator,
    bits: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, int]]:
    """Evolve ``len(bits)`` shots chunk by chunk; yields ``(stack, errors)``.

    ``bits`` is the ``(shots, num_bits)`` classical register, filled in
    place; each yielded stack holds the final states of the chunk's rows
    and is only valid until the next chunk starts.
    """
    shots = bits.shape[0]
    dim = 1 << num_qubits
    if initial_state is None:
        start_state = np.zeros(dim, dtype=complex)
        start_state[0] = 1.0
    else:
        start_state = np.asarray(initial_state, dtype=complex)
        start_state = start_state / np.linalg.norm(start_state)
    chunk = max(1, _CHUNK_AMPLITUDES >> num_qubits)
    for start in range(0, shots, chunk):
        rows = min(chunk, shots - start)
        stack = np.empty((rows, dim), dtype=complex)
        stack[...] = start_state
        draws = rng.random((rows, plan.draws))
        yield _evolve_chunk(stack, plan, draws, bits[start : start + rows])


def _evolve_chunk(stack, plan, draws, bits):
    spare = None
    errors = 0
    if plan.events:
        # Whether each event fires in each row is fixed by the draws alone;
        # events that fire in no row of the chunk cost one list lookup.
        uniforms = draws[:, plan.columns]
        fired = uniforms < plan.thresholds[:, 3]
        hot = fired.any(axis=0).tolist()
    for op, operand, column, events in plan.steps:
        if op.kind == MEASURE:
            outcomes = _measure(stack, op.qubits[0], draws[:, column])
            if plan.confusion is not None:
                outcomes = flip_readouts(outcomes, plan.confusion, draws[:, column + 1])
            bits[:, op.bit] = outcomes
            continue
        active = None
        if op.kind == COND_GATE:
            active = bits[:, op.condition_bit] == 1
            if not active.any():
                continue
            if active.all():
                active = None
        if operand is not None:
            # Dense unconditional 1q gate: one gemm into the spare buffer.
            if spare is None:
                spare = np.empty_like(stack)
            stack, spare = kernels.apply_1q_gemm(stack, operand, op.qubits[0], spare), stack
        elif active is None:
            _apply_gate(stack, op.matrix, op.qubits, op.structure)
        else:
            rows = np.flatnonzero(active)
            selected = stack[rows]
            _apply_gate(selected, op.matrix, op.qubits, op.structure)
            stack[rows] = selected
        for index, correction, adjoint in events:
            if not hot[index]:
                continue
            mask = fired[:, index] if active is None else fired[:, index] & active
            rows = np.flatnonzero(mask)
            if rows.size:
                errors += rows.size
                event = plan.events[index]
                selected = stack[rows]
                if correction is not None:
                    kernels.apply_1q(selected.reshape(-1), adjoint, event.qubit)
                _inject(selected, event, uniforms[rows, index], draws[rows, plan.columns[index] :])
                if correction is not None:
                    kernels.apply_1q(selected.reshape(-1), correction, event.qubit)
                stack[rows] = selected
    return stack, errors


def _apply_gate(stack: np.ndarray, matrix, qubits, structure) -> None:
    """Apply a gate to every row of ``stack`` in place."""
    if len(qubits) == 1:
        kernels.apply_1q(stack.reshape(-1), matrix, qubits[0])
    elif len(qubits) == 2:
        kernels.apply_2q(stack.reshape(-1), matrix, qubits[0], qubits[1], structure)
    else:
        # Rare k >= 3 gates: the axis-permutation contraction with the row
        # axis kept in front (qubit q lives on axis n - q).
        rows, dim = stack.shape
        n = dim.bit_length() - 1
        k = len(qubits)
        axes = [n - qubit for qubit in qubits]
        moved = np.moveaxis(stack.reshape((rows,) + (2,) * n), axes, range(1, k + 1))
        shape = moved.shape
        moved = np.matmul(matrix, moved.reshape(rows, 1 << k, -1)).reshape(shape)
        stack[...] = np.moveaxis(moved, range(1, k + 1), axes).reshape(rows, dim)


def _half_weights(stack: np.ndarray, qubit: int) -> np.ndarray:
    """``(rows, 2)``: each row's probability of ``qubit`` reading 0 and 1."""
    # Real and imaginary parts side by side: the same qubit halves, twice as
    # wide, squared and summed without a full-size temporary.
    parts = stack.view(np.float64).reshape(stack.shape[0], -1, 2, 2 << qubit)
    return np.einsum("rhbl,rhbl->rhb", parts, parts).sum(axis=1)


def _measure(stack: np.ndarray, qubit: int, uniforms: np.ndarray) -> np.ndarray:
    """Measure ``qubit`` in every row (outcome 1 iff ``u < P(1)``) and collapse."""
    rows = stack.shape[0]
    weights = _half_weights(stack, qubit)
    outcomes = (uniforms < weights[:, 1]).astype(np.int64)
    every = np.arange(rows)
    scale = np.zeros((rows, 1, 2, 1))
    scale[every, 0, outcomes, 0] = 1.0 / np.sqrt(weights[every, outcomes])
    stack.view(np.float64).reshape(rows, -1, 2, 2 << qubit)[...] *= scale
    return outcomes


def _inject(selected: np.ndarray, event, uniforms: np.ndarray, draws: np.ndarray) -> None:
    """Apply ``event``'s fired branches to the gathered rows ``selected``.

    ``uniforms`` are the rows' selection draws and ``draws[:, 1]`` their
    second uniforms (read by the reset branch only).
    """
    qubit = event.qubit
    view = selected.reshape(selected.shape[0], -1, 2, 1 << qubit)
    branches = select_branches(np.asarray(event.thresholds), uniforms)
    for branch in np.unique(branches):
        hit = np.flatnonzero(branches == branch)
        if branch == PAULI_Z:
            view[hit, :, 1, :] *= -1.0
        elif branch == PAULI_X:
            view[hit] = view[hit][:, :, ::-1, :]
        elif branch == PAULI_Y:
            picked = view[hit]
            view[hit, :, 0, :] = -1j * picked[:, :, 1, :]
            view[hit, :, 1, :] = 1j * picked[:, :, 0, :]
        else:  # RESET: measure with the event's second uniform, land in |0>.
            picked = view[hit]
            weights = _half_weights(selected[hit], qubit)
            ones = draws[hit, 1] < weights[:, 1]
            kept = np.where(ones[:, None, None], picked[:, :, 1, :], picked[:, :, 0, :])
            norms = np.sqrt(np.where(ones, weights[:, 1], weights[:, 0]))
            picked[:, :, 0, :] = kept / norms[:, None, None]
            picked[:, :, 1, :] = 0.0
            view[hit] = picked


def run_shot(state, plan: TrajectoryPlan, uniforms: np.ndarray, bits: np.ndarray) -> int:
    """Run one shot on one state object from its row of ``plan.draws`` uniforms.

    The per-state form of :func:`evolve_stacked` for engines without a
    stacked kernel (the MPS engine): same steps, same draw columns, with
    noise injected by :func:`~repro.qx.error_models.apply_events`.
    Returns the number of errors injected.
    """
    errors = 0
    for op, _, column, events in plan.steps:
        if op.kind == MEASURE:
            qubit = op.qubits[0]
            outcome = int(uniforms[column] < state.probability_of_one(qubit))
            state.collapse(qubit, outcome)
            if plan.confusion is not None:
                outcome = int(flip_readouts(outcome, plan.confusion, uniforms[column + 1]))
            bits[op.bit] = outcome
            continue
        if op.kind == COND_GATE and not bits[op.condition_bit]:
            continue
        state.apply_gate(op.matrix, op.qubits)
        for index, correction, adjoint in events:
            column = plan.columns[index]
            if uniforms[column] >= plan.thresholds[index, 3]:
                continue  # no error: nothing to inject or correct
            event = plan.events[index]
            if correction is not None:
                state.apply_gate(adjoint, (event.qubit,))
            errors += apply_events(state, [event], uniforms[column:])
            if correction is not None:
                state.apply_gate(correction, (event.qubit,))
    return errors
