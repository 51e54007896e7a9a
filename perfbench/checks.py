"""Correctness gate: histograms against references that share no engine code.

Noise-free points are checked against a plain numpy state-vector evolution
of the *source* circuit (the builder's output, before any compiler pass),
using the gate matrices of :mod:`repro.core.gates` as carried by the
circuit's operations.  Noisy points are checked against exact distributions
computed once with the density-matrix engine and stored in
``perfbench/data/noisy_reference.json`` (see ``make_reference.py``).

A reference is the full outcome distribution over the point's classical
bits.  A histogram must hold exactly the requested shots, no outcome the
reference rules out, and stay within ``Z_BOUND`` standard deviations of the
reference (at the histogram's shot count) on three kinds of statistic:

* per-bit marginals and Z-parities (adjacent bit pairs, all bits), which
  catch bit-order and read-out mistakes;
* the cross-entropy, the mean of ``log p(outcome)`` over the shots, which is
  the most powerful test against a flattened distribution (uniform bits,
  extra noise) and also trips when noise is dropped.

Near-uniform noisy distributions need more shots than one delivery holds
for the cross-entropy to separate them from uniform bits, so :class:`Judge`
in ``drive.py`` also checks the pooled histogram of all fresh deliveries of
one reference.  Deliveries that should agree bit for bit are compared by
``histogram_digest``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.core.operations import Barrier, GateOperation, Measurement

#: Standard deviations a statistic may stray from its reference before it fails.
#: At six sigma a correct histogram fails a check with probability ~2e-9.
Z_BOUND = 6.0
#: Outcomes the reference gives less probability than this are impossible:
#: one of them in a histogram fails it.
IMPOSSIBLE = 1e-12

NOISY_REFERENCE = Path(__file__).resolve().parent / "data" / "noisy_reference.json"


@dataclass
class Expectation:
    """Reference distribution of one point over its classical bits.

    ``probabilities[k]`` is the probability of outcome ``k``, whose bit ``b``
    is classical bit ``b`` (the histogram key ``format(k, "0{m}b")``).
    """

    probabilities: np.ndarray

    @property
    def num_bits(self) -> int:
        return int(self.probabilities.size).bit_length() - 1

    @cached_property
    def marginals(self) -> list[float]:
        outcomes = np.arange(self.probabilities.size)
        return [float(self.probabilities @ ((outcomes >> bit) & 1)) for bit in range(self.num_bits)]

    @cached_property
    def parities(self) -> list[tuple[tuple[int, ...], float]]:
        """``(bits, probability that their XOR is 1)`` for each parity set."""
        outcomes = np.arange(self.probabilities.size)
        return [
            (bits, float(self.probabilities @ odd_parity(outcomes, bits)))
            for bits in parity_sets(self.num_bits)
        ]

    @cached_property
    def log_probabilities(self) -> np.ndarray:
        return np.log(np.maximum(self.probabilities, IMPOSSIBLE))

    @cached_property
    def cross_entropy(self) -> tuple[float, float]:
        """Mean and variance of ``log p(outcome)`` for one shot drawn from the reference."""
        logs = self.log_probabilities
        mean = float(self.probabilities @ logs)
        return mean, max(float(self.probabilities @ (logs - mean) ** 2), 0.0)


def parity_sets(num_bits: int) -> list[tuple[int, ...]]:
    """Adjacent bit pairs plus the all-bits parity."""
    pairs = [(bit, bit + 1) for bit in range(num_bits - 1)]
    return pairs + [tuple(range(num_bits))]


def odd_parity(outcomes: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    """1 where the XOR of ``bits`` of each outcome is 1."""
    odd = np.zeros_like(outcomes)
    for bit in bits:
        odd ^= (outcomes >> bit) & 1
    return odd


def expectation_from_probabilities(probabilities: np.ndarray, sources: list[int]) -> Expectation:
    """The distribution of classical bits read from ``sources[bit]``.

    ``probabilities`` is indexed by basis state with qubit ``q`` at bit ``q``;
    qubits no bit reads are summed out.
    """
    num_qubits = int(probabilities.size).bit_length() - 1
    if len(set(sources)) != len(sources):
        raise ValueError("reference expects each qubit read into at most one bit")
    # Axis ``a`` of the tensor is qubit ``num_qubits - 1 - a``.
    tensor = np.asarray(probabilities, dtype=float).reshape((2,) * num_qubits)
    unread = tuple(a for a in range(num_qubits) if num_qubits - 1 - a not in sources)
    tensor = tensor.sum(axis=unread)
    kept = [a for a in range(num_qubits) if a not in unread]
    # Highest classical bit first, so that the flat index has bit ``b`` at bit ``b``.
    order = [kept.index(num_qubits - 1 - sources[bit]) for bit in reversed(range(len(sources)))]
    return Expectation(np.transpose(tensor, order).reshape(-1))


def evolve(circuit) -> np.ndarray:
    """Outcome probabilities of a gate circuit, by tensor contraction.

    Qubit ``q`` is bit ``q`` of the basis index; operand 0 of a gate is the
    most significant bit of its matrix index.  Measurements must be terminal.
    """
    num_qubits = circuit.num_qubits
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0
    measured: set[int] = set()
    for op in circuit.operations:
        if isinstance(op, Measurement):
            measured.add(op.qubits[0])
            continue
        if isinstance(op, Barrier):
            continue
        if not isinstance(op, GateOperation):
            raise ValueError(f"reference evolution does not support {type(op).__name__}")
        if measured.intersection(op.qubits):
            raise ValueError("reference evolution needs terminal measurements")
        arity = len(op.qubits)
        axes = [num_qubits - 1 - qubit for qubit in op.qubits]
        gate = np.asarray(op.gate.matrix, dtype=complex).reshape((2,) * (2 * arity))
        state = np.tensordot(gate, state, axes=(list(range(arity, 2 * arity)), axes))
        state = np.moveaxis(state, list(range(arity)), axes)
    return np.abs(state.reshape(-1)) ** 2


def circuit_expectation(circuit) -> Expectation:
    """Reference distribution of a noise-free circuit with terminal measurements."""
    sources: dict[int, int] = {}
    for op in circuit.operations:
        if isinstance(op, Measurement):
            if getattr(op, "basis", "z") != "z":
                raise ValueError("reference evolution measures in the Z basis only")
            sources[op.bit] = op.qubits[0]
    if sorted(sources) != list(range(len(sources))):
        raise ValueError("reference expects classical bits 0..m-1")
    return expectation_from_probabilities(evolve(circuit), [sources[b] for b in sorted(sources)])


def observed(counts: dict[str, int], num_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, outcomes)`` of a histogram keyed lowest bit rightmost."""
    keys = list(counts)
    if any(len(key) != num_bits or set(key) - {"0", "1"} for key in keys):
        raise ValueError(f"histogram keys are not {num_bits}-bit strings")
    weights = np.array([counts[key] for key in keys], dtype=np.int64)
    return weights, np.array([int(key, 2) for key in keys], dtype=np.int64)


def within(observed_mean: float, mean: float, variance: float, shots: int) -> bool:
    """Whether a mean over ``shots`` draws lies within ``Z_BOUND`` standard errors."""
    return abs(observed_mean - mean) <= Z_BOUND * math.sqrt(variance / shots) + 1e-9


def binomial_within(observed_fraction: float, probability: float, shots: int) -> bool:
    """Binomial bound; the variance floor of 1/shots admits one stray shot."""
    variance = max(probability * (1.0 - probability), 1.0 / shots)
    return within(observed_fraction, probability, variance, shots)


def check_histogram(counts: dict[str, int], shots: int, expectation: Expectation) -> list[str]:
    """Failures of one histogram against its reference (empty when it passes)."""
    try:
        weights, outcomes = observed(counts, expectation.num_bits)
    except ValueError as exc:
        return [str(exc)]
    return check_outcomes(weights, outcomes, shots, expectation)


def check_outcomes(
    weights: np.ndarray, outcomes: np.ndarray, shots: int, expectation: Expectation
) -> list[str]:
    """:func:`check_histogram` of ``weights[i]`` shots on outcome ``outcomes[i]``."""
    total = int(weights.sum())
    if total != shots:
        return [f"shot conservation: {total} shots delivered, {shots} requested"]
    impossible = int(weights[expectation.probabilities[outcomes] < IMPOSSIBLE].sum())
    if impossible:
        return [f"{impossible} shots on outcomes the reference rules out"]
    failures = []
    for bit, probability in enumerate(expectation.marginals):
        fraction = float(weights @ ((outcomes >> bit) & 1)) / shots
        if not binomial_within(fraction, probability, shots):
            failures.append(f"bit {bit} marginal {fraction:.4f} vs reference {probability:.4f}")
    for subset, probability in expectation.parities:
        fraction = float(weights @ odd_parity(outcomes, subset)) / shots
        if not binomial_within(fraction, probability, shots):
            failures.append(
                f"parity of bits {list(subset)} {fraction:.4f} vs reference {probability:.4f}"
            )
    mean, variance = expectation.cross_entropy
    entropy = float(weights @ expectation.log_probabilities[outcomes]) / shots
    if not within(entropy, mean, variance, shots):
        sigma = math.sqrt(variance / shots)
        failures.append(
            f"cross-entropy {entropy:.4f} vs reference {mean:.4f} "
            f"({(entropy - mean) / sigma if sigma else math.inf:+.1f} sigma)"
        )
    return failures


def histogram_digest(histograms: list[dict[str, int]]) -> str:
    """Order-sensitive digest of a list of histograms (recorded, never gated)."""
    canonical = json.dumps([sorted(h.items()) for h in histograms], separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def cqasm_digest(cqasm: str) -> str:
    return hashlib.sha256(cqasm.encode()).hexdigest()


@dataclass
class NoisyReference:
    """A stored sweep_noisy reference and the compiled circuit it describes."""

    expectation: Expectation
    compiled_cqasm_sha256: str


def load_noisy_reference(path: Path = NOISY_REFERENCE) -> dict[str, NoisyReference]:
    data = json.loads(path.read_text())
    references = {}
    for key, entry in data["points"].items():
        probabilities = np.array(entry["probabilities"], dtype=float)
        references[key] = NoisyReference(
            Expectation(probabilities / probabilities.sum()), entry["compiled_cqasm_sha256"]
        )
    return references


def noisy_key(circuit_seed: int, num_qubits: int) -> str:
    return f"{circuit_seed}:{num_qubits}"
