"""Request streams of the three workloads, generated from the workload seed.

The program under test receives only what these generators yield: spec
dicts in the JSON form ``ExperimentSpec.from_dict`` / ``BatchSpec.from_dict``
accept, which is also what a ``JobService`` client submits.  The same seed
gives the same stream.

Closed-loop streams (one client that waits for each result before sending
the next request) re-send an exact earlier request every third request, so
the artifact cache is read beside fresh work.  The service's interactive
tenant is an open loop: requests are due at a fixed rate whatever the
service does, and nearly half of them repeat an earlier job exactly.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.runtime import BatchSpec, CircuitSpec, ExperimentSpec, PlatformSpec

WORKLOADS = ("sweep_noisy", "fleet_batch", "service_mixed")

#: Pool size of the closed-loop runners (the host has two cores; the sending
#: process only waits while the pool runs).
WORKERS = 2
#: Pool size of the service: its event-loop process plans and delivers while
#: the pool executes, so one pool worker keeps two busy processes on two cores.
SERVICE_WORKERS = 1
#: In a closed-loop stream, request ``i`` with ``i % REPEAT_EVERY == 2`` re-sends
#: an earlier fresh request.
REPEAT_EVERY = 3
#: A closed-loop run sends at least this many requests, six of them fresh, so
#: that the pooled check of each point holds at least six fresh histograms.
MIN_REQUESTS = 8

#: sweep_noisy: realistic qubits on per-shot trajectories.  Exact reference
#: distributions are stored for these circuit seeds only (make_reference.py).
NOISY_CIRCUIT_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)
NOISY_QUBITS = (6, 8, 10)
NOISY_DEPTH = 6
NOISY_SHOTS = 256

#: fleet_batch and the service's fleet tenant: stackable 12-qubit circuits.
#: 32 circuits keep a request near half a second, so a run holds well over 20
#: fresh requests and latency_tail_s is a percentile, not the maximum.
FLEET_QUBITS = 12
FLEET_DEPTH = 4
FLEET_CIRCUITS = 32
FLEET_SHOTS = 1024
SERVICE_FLEET_CIRCUITS = 12

#: service_mixed interactive tenant: GHZ jobs at a fixed rate below saturation.
#: 2.75 fresh jobs/s, the fresh load of 4 jobs/s with 30% repeats; the repeats
#: are raised to 45% so that a run holds about 80 cache reads.
INTERACTIVE_RATE = 5.0
INTERACTIVE_QUBITS = (4, 8)
INTERACTIVE_SHOTS = 1024
INTERACTIVE_REPEAT_FRACTION = 0.45


@dataclass(frozen=True)
class Request:
    """One submission: a spec dict plus how the benchmark accounts for it."""

    index: int
    #: ``"experiment"`` or ``"batch"`` (the ``JobService`` job kinds).
    kind: str
    spec: dict
    tenant: str
    #: Index of the earlier request this one re-sends exactly, if any.
    repeat_of: int | None = None
    #: Open loop only: seconds after the loop starts at which it is due.
    due_s: float = 0.0

    @property
    def fresh(self) -> bool:
        return self.repeat_of is None


def derived_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and a stream position."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _closed_loop(seed: int, kind: str, tenant: str, fresh_spec) -> Iterator[Request]:
    rng = np.random.default_rng([seed, 3])
    fresh: list[Request] = []
    for index in itertools.count():
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            original = fresh[int(rng.integers(len(fresh)))]
            yield Request(index, kind, original.spec, tenant, repeat_of=original.index)
        else:
            request = Request(index, kind, fresh_spec(index), tenant)
            fresh.append(request)
            yield request


def sweep_noisy(seed: int) -> Iterator[Request]:
    circuit_seed = NOISY_CIRCUIT_SEEDS[seed % len(NOISY_CIRCUIT_SEEDS)]

    def fresh_spec(index: int) -> dict:
        return ExperimentSpec(
            name="sweep_noisy",
            circuit=CircuitSpec(
                builder="rotations", kwargs={"depth": NOISY_DEPTH, "seed": circuit_seed}
            ),
            platform=PlatformSpec(factory="realistic"),
            shots=NOISY_SHOTS,
            seed=derived_seed(seed, 2, index),
            sweep={"circuit.num_qubits": list(NOISY_QUBITS)},
        ).to_dict()

    return _closed_loop(seed, "experiment", "physicist", fresh_spec)


def fleet_spec(name: str, circuit_seeds: list[int], root_seed: int) -> dict:
    return BatchSpec.from_product(
        name,
        "rotations",
        {"seed": circuit_seeds},
        base_kwargs={"num_qubits": FLEET_QUBITS, "depth": FLEET_DEPTH},
        shots=FLEET_SHOTS,
        seed=root_seed,
    ).to_dict()


def fleet_batch(seed: int) -> Iterator[Request]:
    circuit_seeds = [derived_seed(seed, 1, k) for k in range(FLEET_CIRCUITS)]

    def fresh_spec(index: int) -> dict:
        return fleet_spec("fleet_batch", circuit_seeds, derived_seed(seed, 2, index))

    return _closed_loop(seed, "batch", "developer", fresh_spec)


def service_fleet(seed: int) -> Iterator[Request]:
    """The service's fleet tenant: back-to-back batch jobs, each one fresh."""
    for index in itertools.count():
        circuit_seeds = [derived_seed(seed, 4, index, k) for k in range(SERVICE_FLEET_CIRCUITS)]
        spec = fleet_spec("service_fleet", circuit_seeds, derived_seed(seed, 5, index))
        yield Request(index, "batch", spec, "fleet")


def ghz_spec(num_qubits: int, root_seed: int) -> dict:
    return ExperimentSpec(
        name="interactive",
        circuit=CircuitSpec(builder="ghz", kwargs={"num_qubits": num_qubits}),
        shots=INTERACTIVE_SHOTS,
        seed=root_seed,
    ).to_dict()


def service_interactive(seed: int) -> Iterator[Request]:
    """The interactive tenant's open loop: GHZ jobs due at a fixed rate."""
    rng = np.random.default_rng([seed, 6])
    fresh: list[Request] = []
    low, high = INTERACTIVE_QUBITS
    for index in itertools.count():
        due = index / INTERACTIVE_RATE
        if fresh and rng.random() < INTERACTIVE_REPEAT_FRACTION:
            original = fresh[int(rng.integers(len(fresh)))]
            yield Request(
                index, "experiment", original.spec, "interactive",
                repeat_of=original.index, due_s=due,
            )
        else:
            spec = ghz_spec(int(rng.integers(low, high + 1)), derived_seed(seed, 7, index))
            request = Request(index, "experiment", spec, "interactive", due_s=due)
            fresh.append(request)
            yield request


#: A job no workload sends (3 qubits), run once at set-up so the pool exists.
WARMUP_SPEC = ghz_spec(3, 0)

CLOSED_LOOP = {
    "sweep_noisy": sweep_noisy,
    "fleet_batch": fleet_batch,
}
