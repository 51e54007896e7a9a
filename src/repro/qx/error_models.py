"""Error models for realistic qubits.

Section 2.7 of the paper: when simulating *realistic* qubits the QX engine
inserts stochastic errors after gates and around measurements.  The basic
model is the depolarising channel ("every quantum gate is followed by some
error, drawn from a uniform distribution of the different errors that can
follow: Pauli X, Y or Z"); richer models add T1/T2 decoherence proportional
to the elapsed time and classical measurement read-out errors.

Every model has *one* definition of its physics and two execution views of
it:

* the **trajectory view** (:meth:`ErrorModel.gate_events` /
  :meth:`ErrorModel.confusion`) lists the error locations after a gate as
  :class:`NoiseEvent` records, each consuming a fixed number of uniforms
  from the seeded stream whatever its outcome (trajectory stream v2).  The
  stacked trajectory engine (:mod:`repro.qx.trajectories`) injects them
  into many shots at once; :meth:`ErrorModel.apply_after_gate` /
  :meth:`ErrorModel.flip_measurement` inject them into one state (a batch
  of one, used by the MPS engine and direct callers);
* the **channel view** (:meth:`ErrorModel.noise_channels` /
  :meth:`ErrorModel.confusion`) returns the exact
  :class:`~repro.qx.channels.Channel` the trajectory process averages to,
  which the density engine executes deterministically.

Both views read the same model parameters through the same helper methods
(``rate_for``, ``decay_probabilities``, ``pauli_probabilities``,
``spectators_for``), so they can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.qubits import PERFECT, QubitModel
from repro.qx.channels import Channel
from repro.qx.statevector import StateVector

#: The channel view's return type: ``(qubits, channel)`` placements.
ChannelPlacements = "list[tuple[tuple[int, ...], Channel]]"

#: Branches of a :class:`NoiseEvent`, in the order of its thresholds;
#: ``NO_ERROR`` is the branch past the last threshold.
PAULI_X, PAULI_Y, PAULI_Z, RESET, NO_ERROR = range(5)


@dataclass(frozen=True)
class NoiseEvent:
    """One error location on one qubit: the unit of trajectory stream v2.

    The event consumes exactly ``draws`` uniforms whatever happens.  The
    first selects the branch (:func:`select_branches`): ``u < thresholds[0]``
    applies X, ``u < thresholds[1]`` Y, ``u < thresholds[2]`` Z and
    ``u < thresholds[3]`` measures the qubit and resets it to ``|0>``;
    anything else is no error.  A reset-capable event has ``draws == 2``
    and spends its second uniform on that measurement, under the shared
    measurement rule (outcome 1 iff ``u2 < P(1)``).
    """

    qubit: int
    thresholds: tuple[float, float, float, float]
    draws: int = 1

    @classmethod
    def pauli(cls, qubit: int, p_x: float, p_y: float, p_z: float) -> "NoiseEvent":
        return cls(qubit, (p_x, p_x + p_y, p_x + p_y + p_z, p_x + p_y + p_z))

    @classmethod
    def decay(cls, qubit: int, p_decay: float, p_dephase: float) -> "NoiseEvent":
        """Reset with ``p_decay``; otherwise Z with ``p_dephase``."""
        p_z = (1.0 - p_decay) * p_dephase
        return cls(qubit, (0.0, 0.0, p_z, p_z + p_decay), draws=2)


def select_branches(thresholds: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Branch chosen by each selection draw: the number of thresholds ``<= u``.

    ``thresholds`` has shape ``(..., 4)`` and broadcasts against
    ``uniforms``; the one rule both the stacked engine and the one-state
    adapter apply.
    """
    return (np.asarray(uniforms)[..., None] >= thresholds).sum(axis=-1)


def flip_readouts(outcomes, confusion: np.ndarray, uniforms):
    """Reported outcomes: a true outcome ``a`` flips iff ``u < confusion[a, 1 - a]``."""
    return outcomes ^ (uniforms < confusion[outcomes, 1 - outcomes])


def apply_events(state, events: list[NoiseEvent], uniforms: np.ndarray) -> int:
    """Inject ``events`` into one state from their ``uniforms``; returns the count fired.

    ``state`` is a :class:`~repro.qx.statevector.StateVector` or an MPS
    state (anything with ``apply_pauli``, ``probability_of_one`` and
    ``collapse``); ``uniforms`` holds the events' draws in order.
    """
    injected = 0
    column = 0
    for event in events:
        branch = int(select_branches(np.asarray(event.thresholds), uniforms[column]))
        if branch == RESET:
            outcome = int(uniforms[column + 1] < state.probability_of_one(event.qubit))
            state.collapse(event.qubit, outcome)
            if outcome:
                state.apply_pauli("x", event.qubit)
        elif branch != NO_ERROR:
            state.apply_pauli("xyz"[branch], event.qubit)
        injected += branch != NO_ERROR
        column += event.draws
    return injected


class ErrorModel:
    """Interface for stochastic error injection and its exact channel."""

    #: True when the model is exactly representable as quantum channels
    #: (PTMs) plus a classical read-out confusion matrix — the condition
    #: for running on the density engine instead of trajectories.
    channel_exact: bool = False

    def gate_events(
        self, qubits: tuple[int, ...], duration_ns: float, num_qubits: int
    ) -> list[NoiseEvent]:
        """The error locations after a gate on ``qubits``, in draw order.

        The layout (events and their draw counts) depends on the model's
        type and the gate's geometry, never on the rates, so every shot of
        a program consumes the same number of uniforms.
        """
        return []

    def apply_after_gate(
        self,
        state: StateVector,
        qubits: tuple[int, ...],
        duration_ns: float,
        rng: np.random.Generator,
    ) -> int:
        """Inject errors after a gate into one state; returns the number injected.

        Draws the events' uniforms as one block, exactly as one row of the
        stacked engine's draw block.
        """
        events = self.gate_events(tuple(qubits), duration_ns, state.num_qubits)
        return apply_events(state, events, rng.random(sum(event.draws for event in events)))

    def flip_measurement(self, outcome: int, rng: np.random.Generator) -> int:
        """Report a measurement outcome through the read-out confusion.

        One uniform when the model has read-out error, none otherwise.
        """
        confusion = self.confusion()
        if confusion is None:
            return outcome
        return int(flip_readouts(outcome, confusion, rng.random()))

    def noise_channels(
        self, qubits: tuple[int, ...], duration_ns: float
    ):
        """The exact channels this model attaches after a gate on ``qubits``.

        A list of ``(qubit_tuple, Channel)`` placements, or ``None`` when
        the model has no exact channel representation (trajectory only).
        """
        return None

    def confusion(self) -> np.ndarray | None:
        """The classical read-out confusion matrix, or ``None`` if perfect.

        Row-stochastic: ``confusion[a, b]`` is the probability of
        *reporting* ``b`` when the true outcome is ``a``.
        """
        return None

    def describe(self) -> str:
        return self.__class__.__name__


class NoError(ErrorModel):
    """Perfect qubits: no errors at all."""

    channel_exact = True

    def noise_channels(self, qubits, duration_ns):
        return []


@dataclass
class DepolarizingError(ErrorModel):
    """Symmetric depolarising channel applied after every gate.

    With probability ``error_rate`` one of X, Y, Z is applied (uniformly) to
    each qubit the gate touched.  Two-qubit gates may use a separate, larger
    ``two_qubit_error_rate``.
    """

    error_rate: float
    two_qubit_error_rate: float | None = None

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate outside [0, 1]")

    def rate_for(self, qubits: tuple[int, ...]) -> float:
        """Per-qubit error rate after a gate on ``qubits``.

        The single definition of the one-vs-two-qubit rate selection, shared
        by the trajectory path and the density engine's exact channel.
        """
        if len(qubits) >= 2 and self.two_qubit_error_rate is not None:
            return self.two_qubit_error_rate
        return self.error_rate

    def gate_events(self, qubits, duration_ns, num_qubits):
        rate = self.rate_for(qubits)
        return [NoiseEvent(qubit, (rate / 3, 2 * rate / 3, rate, rate)) for qubit in qubits]

    def noise_channels(self, qubits, duration_ns):
        channel = Channel.depolarizing(self.rate_for(qubits))
        return [((qubit,), channel) for qubit in qubits]

    def describe(self) -> str:
        return f"depolarizing(p={self.error_rate:g}) [channel]"


@dataclass
class DecoherenceError(ErrorModel):
    """T1 relaxation and T2 dephasing proportional to elapsed gate time.

    Amplitude damping is approximated in the trajectory picture by a
    probabilistic reset-to-ground of the qubit (projective collapse to
    ``|0>`` with the damping probability); dephasing by a probabilistic Z.
    The exact channel (:meth:`noise_channels`) is the ensemble average of
    that same branch structure — see :meth:`Channel.decoherence`.
    """

    t1_ns: float
    t2_ns: float

    channel_exact = True

    def decay_probabilities(self, duration_ns: float) -> tuple[float, float]:
        """``(p_decay, p_dephase)`` for a gate of the given duration.

        The single definition of the T1/T2 branch probabilities, shared by
        the trajectory draws and the exact channel construction.
        """
        p_decay = 0.0 if np.isinf(self.t1_ns) else 1.0 - np.exp(-duration_ns / self.t1_ns)
        inv_tphi = 0.0
        if not np.isinf(self.t2_ns):
            inv_tphi = max(1.0 / self.t2_ns - 0.5 / max(self.t1_ns, 1e-30), 0.0)
        p_dephase = 1.0 - np.exp(-duration_ns * inv_tphi) if inv_tphi > 0 else 0.0
        return float(p_decay), float(p_dephase)

    def gate_events(self, qubits, duration_ns, num_qubits):
        # Trajectory approximation of amplitude damping: collapse to the
        # measured value and reset to |0> (NoiseEvent.decay's reset branch).
        p_decay, p_dephase = self.decay_probabilities(duration_ns)
        return [NoiseEvent.decay(qubit, p_decay, p_dephase) for qubit in qubits]

    def noise_channels(self, qubits, duration_ns):
        p_decay, p_dephase = self.decay_probabilities(duration_ns)
        channel = Channel.decoherence(p_decay, p_dephase)
        return [((qubit,), channel) for qubit in qubits]

    def describe(self) -> str:
        return f"decoherence(T1={self.t1_ns:g}ns, T2={self.t2_ns:g}ns) [channel]"


@dataclass
class MeasurementError(ErrorModel):
    """Classical read-out error: flip the reported bit with a fixed probability."""

    flip_probability: float

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip_probability outside [0, 1]")

    def noise_channels(self, qubits, duration_ns):
        return []

    def confusion(self) -> np.ndarray:
        p = self.flip_probability
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    def describe(self) -> str:
        return f"measurement(p={self.flip_probability:g}) [channel]"


@dataclass
class AsymmetricPauliError(ErrorModel):
    """Biased Pauli channel with independent X, Y and Z probabilities.

    Real devices are rarely depolarising: dephasing (Z) usually dominates.
    This model lets the realistic-qubit experiments go "beyond simplistic
    error models such as the depolarising model" (Section 2.7) by setting,
    e.g., ``p_z >> p_x``.
    """

    p_x: float
    p_y: float
    p_z: float

    channel_exact = True

    def __post_init__(self) -> None:
        for rate in (self.p_x, self.p_y, self.p_z):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("Pauli probabilities must be in [0, 1]")
        if self.p_x + self.p_y + self.p_z > 1.0:
            raise ValueError("total Pauli error probability exceeds 1")

    def pauli_probabilities(self) -> tuple[float, float, float]:
        """``(p_x, p_y, p_z)`` — shared by the draws and the channel."""
        return self.p_x, self.p_y, self.p_z

    def gate_events(self, qubits, duration_ns, num_qubits):
        p_x, p_y, p_z = self.pauli_probabilities()
        return [NoiseEvent.pauli(qubit, p_x, p_y, p_z) for qubit in qubits]

    def noise_channels(self, qubits, duration_ns):
        channel = Channel.pauli(*self.pauli_probabilities())
        return [((qubit,), channel) for qubit in qubits]

    @property
    def bias(self) -> float:
        """Z-bias ratio p_z / (p_x + p_y); infinity for pure dephasing."""
        transverse = self.p_x + self.p_y
        if transverse == 0.0:
            return float("inf")
        return self.p_z / transverse

    def describe(self) -> str:
        return (
            f"asymmetric_pauli(px={self.p_x:g}, py={self.p_y:g}, pz={self.p_z:g})"
            " [channel]"
        )


@dataclass
class CrosstalkError(ErrorModel):
    """Crosstalk: two-qubit gates disturb spectator qubits adjacent to the pair.

    Whenever a multi-qubit gate fires, each neighbouring (spectator) qubit of
    the gate's operands suffers a Z error with probability
    ``spectator_error_rate`` — the simplified always-on-coupling crosstalk of
    frequency-crowded superconducting devices, one of the scheduling
    constraints Section 2.6 alludes to ("the number of available frequencies
    to control the qubits can also affect the scheduling").
    """

    spectator_error_rate: float
    neighbours: dict[int, tuple[int, ...]] = field(default_factory=dict)

    channel_exact = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.spectator_error_rate <= 1.0:
            raise ValueError("spectator_error_rate outside [0, 1]")

    @classmethod
    def from_topology(cls, topology, spectator_error_rate: float) -> "CrosstalkError":
        """Build the neighbour table from a :class:`~repro.mapping.topology.Topology`."""
        neighbours = {
            site: tuple(topology.neighbours(site)) for site in range(topology.num_qubits)
        }
        return cls(spectator_error_rate=spectator_error_rate, neighbours=neighbours)

    def spectators_for(self, qubits: tuple[int, ...]) -> set[int]:
        """Spectator qubits disturbed by a gate on ``qubits``.

        The single definition of the neighbour geometry, shared by the
        trajectory events and the exact channel placements.  Empty for
        single-qubit gates; independent of the rate, so a zero rate keeps
        the trajectory layout (its events never fire).
        """
        if len(qubits) < 2:
            return set()
        spectators: set[int] = set()
        for qubit in qubits:
            spectators.update(self.neighbours.get(qubit, ()))
        return spectators - set(qubits)

    def gate_events(self, qubits, duration_ns, num_qubits):
        rate = self.spectator_error_rate
        return [
            NoiseEvent.pauli(spectator, 0.0, 0.0, rate)
            for spectator in sorted(self.spectators_for(qubits))
            if spectator < num_qubits
        ]

    def noise_channels(self, qubits, duration_ns):
        spectators = self.spectators_for(qubits)
        if not spectators or self.spectator_error_rate == 0.0:
            return []
        channel = Channel.phase_flip(self.spectator_error_rate)
        return [((spectator,), channel) for spectator in sorted(spectators)]

    def describe(self) -> str:
        return f"crosstalk(p={self.spectator_error_rate:g}) [channel]"


class CompositeError(ErrorModel):
    """Combine several error models; all of them are applied in order."""

    def __init__(self, *models: ErrorModel):
        self.models = [m for m in models if not isinstance(m, NoError)]

    @property
    def channel_exact(self) -> bool:  # type: ignore[override]
        return all(model.channel_exact for model in self.models)

    def gate_events(self, qubits, duration_ns, num_qubits):
        return [
            event
            for model in self.models
            for event in model.gate_events(qubits, duration_ns, num_qubits)
        ]

    def noise_channels(self, qubits, duration_ns):
        """One compiled channel per qubit position, not sequential application.

        Members' placements on the same qubit tuple compose into a single
        PTM (matrix product, in member order), so the density engine pays
        one superoperator per location however many models stack.
        """
        if not self.channel_exact:
            return None
        merged: dict[tuple[int, ...], Channel] = {}
        order: list[tuple[int, ...]] = []
        for model in self.models:
            for placement, channel in model.noise_channels(qubits, duration_ns) or []:
                existing = merged.get(placement)
                if existing is None:
                    merged[placement] = channel
                    order.append(placement)
                else:
                    merged[placement] = channel.compose(existing)
        return [(placement, merged[placement]) for placement in order]

    def confusion(self) -> np.ndarray | None:
        combined: np.ndarray | None = None
        for model in self.models:
            matrix = model.confusion()
            if matrix is None:
                continue
            combined = matrix if combined is None else combined @ matrix
        return combined

    def describe(self) -> str:
        return " + ".join(m.describe() for m in self.models) or "none"


def noise_kind(error_model: ErrorModel) -> str:
    """Classify an error model for backend dispatch.

    ``"none"`` (perfect qubits), ``"channel"`` (exactly representable as
    compiled PTM channels plus read-out confusion, so the density engine
    can run it) or ``"trajectory"`` (stochastic injection only).
    """
    if isinstance(error_model, NoError):
        return "none"
    if error_model.channel_exact:
        return "channel"
    return "trajectory"


def error_model_for(qubit_model: QubitModel) -> ErrorModel:
    """Build the QX error model matching a qubit quality description."""
    if qubit_model.is_perfect or qubit_model == PERFECT:
        return NoError()
    models: list[ErrorModel] = []
    if qubit_model.single_qubit_error_rate > 0 or qubit_model.two_qubit_error_rate > 0:
        models.append(
            DepolarizingError(
                error_rate=qubit_model.single_qubit_error_rate,
                two_qubit_error_rate=qubit_model.two_qubit_error_rate,
            )
        )
    if not np.isinf(qubit_model.t1_ns) or not np.isinf(qubit_model.t2_ns):
        models.append(DecoherenceError(t1_ns=qubit_model.t1_ns, t2_ns=qubit_model.t2_ns))
    if qubit_model.measurement_error_rate > 0:
        models.append(MeasurementError(qubit_model.measurement_error_rate))
    if not models:
        return NoError()
    if len(models) == 1:
        return models[0]
    return CompositeError(*models)
