"""Shot-stacked trajectory execution on trajectory stream v2.

Circuits with noise or mid-circuit feedback cannot share one evolution
across shots: every shot is its own trajectory.  This engine still avoids a
per-shot loop.  It evolves a shard's shots as one C-contiguous
``(rows, 2**n)`` stack, so every step is one kernel call over all rows, and
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

The plan runs that stream in few passes over the stack: SWAPs relabel
stack axes instead of moving amplitudes, a layer of single-qubit gates on
distinct qubits is one gemm per block of axes, and the trailing
measurements read ``|amp|**2`` once.  None of this moves a draw column.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce

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

#: Widest aligned block of stack axes one layer gemm contracts, so the
#: Kronecker operand is at most 16 x 16.  Measured on a 10-gate layer over
#: a 16-row 12-qubit stack (one BLAS thread on a 2-core VM, best of 7):
#: one gemm per gate 3.1 ms, blocks of 2 axes 1.9 ms, 3 axes 1.4 ms,
#: 4 axes 1.0 ms, 5 or 6 axes 1.2-1.4 ms.  Blocks off axis 0 left-multiply,
#: which beat a right-multiplied ``op ⊗ I`` 2-190x at 6-12 qubits.
_LAYER_BLOCK_AXES = 4

#: Step kinds of a :class:`TrajectoryPlan`.
_LAYER, _GATE, _MEASURE, _TAIL = range(4)

_IDENTITY_2 = np.eye(2, dtype=complex)


class TrajectoryPlan:
    """A lowered program prepared for trajectories under one error model.

    Holds the stream-v2 layout (every error event and its draw column) and
    the steps that execute it on the stack.  The steps reorder no draw and
    change no shot's events; they only need fewer passes:

    * **Relabeled SWAPs.**  The plan tracks which stack axis holds each
      physical qubit.  An unconditional SWAP exchanges two entries of that
      map and touches no amplitude; every later gate, event and
      measurement is translated through the map when the plan is built.
    * **Fused runs.**  Consecutive single-qubit gates on one qubit fuse
      into one gate.  An event raised inside the run is applied after the
      fused gate, conjugated by the rest of the run (``B N B†`` for an
      event ``N`` between gates ``A`` and ``B``): rows where it fires get
      ``B†``, the error, then ``B``, which is the state injecting it
      between the gates gives.
    * **Layers.**  Consecutive fused runs on distinct axes form a layer,
      applied as one Kronecker-product gemm per aligned block of
      ``_LAYER_BLOCK_AXES`` axes.  The runs' events all lie on their own
      qubits, so they commute with the layer's other gates and are
      applied after it, in program order.
    * **Terminal tail.**  The trailing measurements draw their outcomes
      from one ``|amp|**2`` pass (:func:`_measure_tail`).

    ``ops`` keeps the program as fused runs and single ops on physical
    qubits, without relabeling or layers, for one-state engines
    (:func:`run_shot`).  Built once per point: the model's
    per-gate values (decay probabilities, rates, spectator sets) are
    computed once per distinct ``(qubits, duration)``.
    """

    __slots__ = ("ops", "steps", "events", "columns", "thresholds", "confusion", "draws", "axes")

    def __init__(self, program: KernelProgram, error_model: ErrorModel, num_qubits: int):
        confusion = error_model.confusion()
        self.confusion = None if confusion is None else np.asarray(confusion, dtype=float)
        readout_draws = 0 if confusion is None else 1
        #: ``(op, measurement draw column, events)`` per fused run or other op
        #: on physical qubits; ``events`` holds ``(event index, correction,
        #: its adjoint)``, the correction ``None`` when the event needs none.
        self.ops: list[tuple] = []
        #: ``(kind, payload, events)`` per stack step; ``events`` holds
        #: ``(event index, axis, correction, its adjoint)``.
        self.steps: list[tuple] = []
        self.events = []
        columns: list[int] = []
        located: dict[tuple, list] = {}
        axes = list(range(num_qubits))  # physical qubit -> stack axis
        layer: dict[int, np.ndarray] = {}  # axis -> fused gate of the open layer
        layer_events: list[tuple] = []
        run: list[tuple] = []  # consecutive fusable gates on one qubit: (op, event indices)
        column = 0

        def close_layer() -> None:
            if layer or layer_events:
                self.steps.append((_LAYER, _layer_blocks(layer), tuple(layer_events)))
                layer.clear()
                layer_events.clear()

        def close_run() -> None:
            qubit = run[0][0].qubits[0]
            axis = axes[qubit]
            if axis in layer:
                close_layer()
            layer[axis], corrected = _fuse(run)
            layer_events.extend((index, axis, *pair) for index, *pair in corrected)
            self.ops.append((KernelOp(GATE, layer[axis], (qubit,)), -1, tuple(corrected)))
            run.clear()

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
                close_run()
            if op.kind == MEASURE:
                close_layer()
                self.ops.append((op, column, ()))
                self.steps.append((_MEASURE, (axes[op.qubits[0]], column, op.bit), ()))
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
                continue
            self.ops.append((op, -1, tuple((i, None, None) for i in indices)))
            if op.kind == GATE and op.structure == kernels.SWAP_2Q:
                # No pass: the two qubits trade axes.  Its events act on the
                # new axes after the open layer, which holds every earlier
                # gate on them.
                first_qubit, second_qubit = op.qubits
                axes[first_qubit], axes[second_qubit] = axes[second_qubit], axes[first_qubit]
                layer_events.extend((i, axes[self.events[i].qubit], None, None) for i in indices)
                close_layer()
                continue
            close_layer()
            gate = KernelOp(
                op.kind,
                op.matrix,
                tuple(axes[qubit] for qubit in op.qubits),
                op.duration,
                op.bit,
                op.condition_bit,
            )
            located_events = tuple((i, axes[self.events[i].qubit], None, None) for i in indices)
            self.steps.append((_GATE, gate, located_events))
        if run:
            close_run()
        close_layer()
        tail: list[tuple] = []
        while self.steps and self.steps[-1][0] == _MEASURE:
            tail.insert(0, self.steps.pop()[1])
        if tail:
            self.steps.append((_TAIL, tuple(tail), ()))
        #: Stack axis of each physical qubit at the end of the program.
        self.axes = tuple(axes)
        #: Draw column of each event's selection uniform.
        self.columns = np.array(columns, dtype=np.intp)
        self.thresholds = np.array([event.thresholds for event in self.events]).reshape(-1, 4)
        #: Uniforms every shot consumes.
        self.draws = column

    def to_physical(self, stack: np.ndarray) -> np.ndarray:
        """``stack``'s rows with every qubit back on its own axis (SWAPs undone)."""
        n = len(self.axes)
        if self.axes == tuple(range(n)):
            return stack
        rows = stack.shape[0]
        # Axis a is tensor dimension n - a after the row dimension.
        order = [0] + [n - self.axes[n - 1 - d] for d in range(n)]
        return stack.reshape((rows,) + (2,) * n).transpose(order).reshape(rows, -1)

    def final_state(self, row: np.ndarray, outcomes: np.ndarray | None) -> np.ndarray:
        """One row's final state: terminal tail collapsed, physical qubit order.

        ``outcomes`` are the row's true tail outcomes (``None`` without a
        tail), which :func:`_measure_tail` draws without collapsing the stack.
        """
        state = row.copy()
        if outcomes is not None:
            for (axis, _, _), outcome in zip(self.steps[-1][1], outcomes):
                state.reshape(-1, 2, 1 << axis)[:, 1 - outcome, :] = 0.0
            state /= np.linalg.norm(state)
        return self.to_physical(state[None])[0]


def _fuse(run: list[tuple]) -> tuple[np.ndarray, list[tuple]]:
    """A run of single-qubit gates on one qubit as one gate.

    Returns the product and ``(event index, correction, adjoint)`` per event
    of the run, the correction being the product of the gates after it.
    """
    suffix = None  # product of the run's gates after the current one
    corrected: list[tuple] = []
    for op, indices in reversed(run):
        adjoint = None if suffix is None else suffix.conj().T
        corrected[:0] = [(index, suffix, adjoint) for index in indices]
        suffix = op.matrix if suffix is None else suffix @ op.matrix
    return suffix, corrected


def _layer_blocks(layer: dict[int, np.ndarray]) -> tuple:
    """A layer's gates as ``(width, low axis, operand)`` blocks.

    Gates group by aligned blocks of ``_LAYER_BLOCK_AXES`` axes.  The block
    holding axis 0 spans ``[0, width)`` and right-multiplies the contiguous
    ``2**width`` panes by its transposed Kronecker product; the others span
    their gates' axes and left-multiply the ``(2**width, 2**low)`` panes.  A
    lone diagonal or anti-diagonal gate has ``width`` ``None`` and its 2x2
    matrix, applied in place.
    """
    grouped: dict[int, list[int]] = {}
    for axis in sorted(layer):
        grouped.setdefault(axis // _LAYER_BLOCK_AXES, []).append(axis)
    blocks = []
    for block, present in grouped.items():
        if len(present) == 1 and not kernels.is_dense_1q(layer[present[0]]):
            blocks.append((None, present[0], layer[present[0]]))
            continue
        low = 0 if block == 0 else present[0]
        width = present[-1] + 1 - low
        factors = [layer.get(axis, _IDENTITY_2) for axis in range(low + width - 1, low - 1, -1)]
        operand = reduce(np.kron, factors)
        if low == 0:
            operand = np.ascontiguousarray(operand.T)
        blocks.append((width, low, operand))
    return tuple(blocks)


def evolve_stacked(
    plan: TrajectoryPlan,
    num_qubits: int,
    rng: np.random.Generator,
    bits: np.ndarray,
    initial_state: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, int, np.ndarray | None]]:
    """Evolve ``len(bits)`` shots chunk by chunk; yields ``(stack, errors, outcomes)``.

    ``bits`` is the ``(shots, num_bits)`` classical register, filled in
    place.  Each yielded stack holds the chunk's rows before the terminal
    measurements collapse them, on the plan's stack axes
    (:meth:`TrajectoryPlan.final_state` gives a row's final state), and is
    only valid until the next chunk starts.  ``outcomes`` are the rows'
    true terminal outcomes, ``None`` when the program has no tail.
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
    outcomes = None
    if plan.events:
        # Whether each event fires in each row is fixed by the draws alone;
        # events that fire in no row of the chunk cost one list lookup.
        uniforms = draws[:, plan.columns]
        fired = uniforms < plan.thresholds[:, 3]
        hot = fired.any(axis=0).tolist()
    for kind, payload, events in plan.steps:
        active = None
        if kind == _LAYER:
            for width, low, operand in payload:
                if width is None:
                    kernels.apply_1q(stack.reshape(-1), operand, low)
                    continue
                # One gemm into the spare buffer, which becomes the stack.
                if spare is None:
                    spare = np.empty_like(stack)
                if low == 0:
                    panes = (-1, 1 << width)
                    np.matmul(stack.reshape(panes), operand, out=spare.reshape(panes))
                else:
                    panes = (-1, 1 << width, 1 << low)
                    np.matmul(operand, stack.reshape(panes), out=spare.reshape(panes))
                stack, spare = spare, stack
        elif kind == _GATE:
            op = payload
            if op.kind == COND_GATE:
                active = bits[:, op.condition_bit] == 1
                if not active.any():
                    continue
                if active.all():
                    active = None
            if active is None:
                _apply_gate(stack, op.matrix, op.qubits, op.structure)
            else:
                rows = np.flatnonzero(active)
                selected = stack[rows]
                _apply_gate(selected, op.matrix, op.qubits, op.structure)
                stack[rows] = selected
        elif kind == _MEASURE:
            axis, column, bit = payload
            found = _measure(stack, axis, draws[:, column])
            if plan.confusion is not None:
                found = flip_readouts(found, plan.confusion, draws[:, column + 1])
            bits[:, bit] = found
            continue
        else:
            outcomes = _measure_tail(stack, payload, draws, bits, plan.confusion)
            continue
        for index, axis, correction, adjoint in events:
            if not hot[index]:
                continue
            mask = fired[:, index] if active is None else fired[:, index] & active
            rows = np.flatnonzero(mask)
            if rows.size:
                errors += rows.size
                selected = stack[rows]
                if correction is not None:
                    kernels.apply_1q(selected.reshape(-1), adjoint, axis)
                _inject(
                    selected,
                    axis,
                    plan.thresholds[index],
                    uniforms[rows, index],
                    draws[rows, plan.columns[index] :],
                )
                if correction is not None:
                    kernels.apply_1q(selected.reshape(-1), correction, axis)
                stack[rows] = selected
    return stack, errors, outcomes


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


def _measure_tail(stack, tail, draws, bits, confusion) -> np.ndarray:
    """Measure the trailing ``(axis, column, bit)`` run from one ``|amp|**2`` pass.

    Outcomes are drawn in program order under the usual rule (1 iff
    ``u < P(1)``) from the marginal over the axes not measured yet, which
    halves with each measurement; the stack is left uncollapsed.  A qubit
    measured twice repeats its outcome, as ``P(1)`` is then 0 or 1.
    Returns the true outcomes, ``(rows, len(tail))``.
    """
    rows, dim = stack.shape
    parts = stack.view(np.float64).reshape(rows, dim, 2)
    marginal = np.einsum("rac,rac->ra", parts, parts)
    remaining = list(range(dim.bit_length() - 1))
    every = np.arange(rows)
    seen: dict[int, np.ndarray] = {}
    outcomes = np.empty((rows, len(tail)), dtype=np.int64)
    for position, (axis, column, bit) in enumerate(tail):
        found = seen.get(axis)
        if found is None:
            halves = marginal.reshape(rows, -1, 2, 1 << remaining.index(axis))
            weights = halves.sum(axis=(1, 3))
            found = (draws[:, column] < weights[:, 1] / weights.sum(axis=1)).astype(np.int64)
            marginal = halves[every, :, found, :].reshape(rows, -1)
            remaining.remove(axis)
            seen[axis] = found
        outcomes[:, position] = found
        if confusion is not None:
            found = flip_readouts(found, confusion, draws[:, column + 1])
        bits[:, bit] = found
    return outcomes


def _inject(selected: np.ndarray, axis: int, thresholds, uniforms, draws) -> None:
    """Apply an event's fired branches on ``axis`` to the gathered rows ``selected``.

    ``uniforms`` are the rows' selection draws and ``draws[:, 1]`` their
    second uniforms (read by the reset branch only).
    """
    view = selected.reshape(selected.shape[0], -1, 2, 1 << axis)
    branches = select_branches(thresholds, uniforms)
    # bincount, not np.unique: branches are small, and np.unique's masked-array
    # check imports numpy.ma, ~70 ms in every fresh pool worker.
    for branch in np.flatnonzero(np.bincount(branches)):
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
            weights = _half_weights(selected[hit], axis)
            ones = draws[hit, 1] < weights[:, 1]
            kept = np.where(ones[:, None, None], picked[:, :, 1, :], picked[:, :, 0, :])
            norms = np.sqrt(np.where(ones, weights[:, 1], weights[:, 0]))
            picked[:, :, 0, :] = kept / norms[:, None, None]
            picked[:, :, 1, :] = 0.0
            view[hit] = picked


def run_shot(state, plan: TrajectoryPlan, uniforms: np.ndarray, bits: np.ndarray) -> int:
    """Run one shot on one state object from its row of ``plan.draws`` uniforms.

    The per-state form of :func:`evolve_stacked` for engines without a
    stacked kernel (the MPS engine): the plan's ``ops`` on their physical
    qubits, so SWAPs stay gates and routing locality is kept, with the same
    events and draw columns.  Noise is injected by
    :func:`~repro.qx.error_models.apply_events`.  Returns the number of
    errors injected.
    """
    errors = 0
    for op, column, events in plan.ops:
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
