"""Noisy shot-based backend — the Monte-Carlo trajectory sampler.

The paper runs the 4-qubit hidden-shift circuit on the IBM QE chip
(Fig. 6): 3 runs x 1024 shots, recovering the correct shift with
average probability ~0.63.  Real hardware is not available here, so
this module samples noisy statevector trajectories:

* after every gate, each touched qubit suffers a depolarizing error
  (random Pauli) with a per-gate-class probability;
* measurement results are flipped with a readout-error probability.

The error rates come from the shared
:class:`~repro.engines.noise.NoiseModel` (one home for the 2017/2018
IBM QE5 calibration numbers — 1q ~1.5e-3, 2q ~3.5e-2, readout ~4e-2).
Those rates reproduce the *shape* of Fig. 6: the correct outcome
dominates at well under 1.0 probability, with a broad error floor over
the other basis states.

The sampling itself is the one chunked trajectory sampler,
:func:`repro.simulator.statevector.sample_trajectories`, which also
runs :class:`~repro.simulator.statevector.StatevectorSimulator`'s
mid-circuit measurements; the ``monte_carlo`` engine and ProjectQ's
``IBMBackend`` call :meth:`NoisyBackend.run`, so one seed gives one
histogram on every path.  The exact counterpart is the
``density_matrix`` engine (:mod:`repro.engines.density_matrix`), which
evolves the trajectory average of this sampler as a full density
matrix — same depolarizing convention, no sampling error.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.circuit import QuantumCircuit
from ..engines.noise import NoiseModel as _NoiseModel
from .statevector import (
    SimulationResult,
    Statevector,
    _measured_width,
    sample_trajectories,
)


class NoisyBackend:
    """Monte-Carlo statevector simulator with Pauli/readout noise.

    Each shot is one statevector trajectory from |0...0>; after every
    unitary gate each touched qubit is hit by a uniformly random Pauli
    with the model's per-class probability, and measured bits are
    flipped with ``p_meas``.  The RNG is seeded for reproducible
    experiments.
    """

    def __init__(
        self,
        noise_model: Optional[_NoiseModel] = None,
        seed: Optional[int] = None,
    ):
        self.noise_model = noise_model or _NoiseModel.ibm_qe_2018()
        self._seed = seed

    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> SimulationResult:
        """Execute ``circuit`` with noise for ``shots`` repetitions.

        All shots go through the one chunked trajectory sampler,
        :func:`~repro.simulator.statevector.sample_trajectories`: the
        gate sequence runs verbatim (no fusion — the noise model is
        defined per physical gate) on batches of trajectories, with
        Pauli errors scattered onto only the hit columns.
        """
        rng = np.random.default_rng(self._seed)
        initial = Statevector(circuit.num_qubits).data
        counts, _ = sample_trajectories(
            initial, circuit.gates, shots, rng, self.noise_model
        )
        return SimulationResult(counts, None, shots, _measured_width(circuit))

    def run_repeated(
        self, circuit: QuantumCircuit, shots: int, repetitions: int
    ):
        """Repeat a shots-run ``repetitions`` times (paper: 3 x 1024).

        Returns (mean probabilities, std deviations) as arrays indexed
        by outcome, mirroring the error bars of Fig. 6.
        """
        dim = 1 << _measured_width(circuit)
        probs = np.zeros((repetitions, dim))
        for rep in range(repetitions):
            # derive a distinct child seed per repetition
            backend = NoisyBackend(
                self.noise_model,
                None if self._seed is None else self._seed + rep,
            )
            result = backend.run(circuit, shots)
            for outcome, count in result.counts.items():
                probs[rep, outcome] = count / shots
        return probs.mean(axis=0), probs.std(axis=0)

