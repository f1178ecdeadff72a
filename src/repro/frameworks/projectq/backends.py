"""Engine backends: simulator, noisy chip model, resource counter.

The paper's ProjectQ flow targets "the IBM Quantum Experience or a
local simulator"; here the chip is replaced by the calibrated noisy
simulator (see :mod:`repro.simulator.noise`), and a resource counter
rounds out the set, mirroring ProjectQ's backend portfolio (Sec. VI).
"""

from __future__ import annotations

from typing import Dict, Optional

from ...core.circuit import QuantumCircuit
from ...engines.noise import NoiseModel
from ...simulator.noise import NoisyBackend
from ...simulator.resources import ResourceCounter, ResourceEstimate
from ...simulator.statevector import Statevector, StatevectorSimulator


class Backend:
    """Interface: consume a circuit, return one outcome (or None)."""

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        raise NotImplementedError


class Simulator(Backend):
    """Noiseless statevector backend (the 'local simulator').

    Executes through the in-place kernel layer of
    :mod:`repro.simulator.kernels`.  States of at least
    ``kernels.FUSION_MIN_AMPLITUDES`` (``2**14``) amplitudes run the
    gate-fusion pre-pass (single-qubit run folding, diagonal merging,
    matmul blocks); smaller ones apply the gates one by one, since
    below about 14 qubits the pre-pass costs more than it saves
    (13-qubit 8-line permutation: 1414 ms fused, 1054 ms unfused;
    20-qubit hidden shift: 144 ms fused, 748 ms unfused).
    """

    def __init__(self, seed: Optional[int] = None):
        self._engine = StatevectorSimulator(seed=seed)
        self.final_state: Optional[Statevector] = None
        self.last_counts: Dict[int, int] = {}

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        result = self._engine.run(circuit, shots=1)
        self.final_state = result.final_state
        self.last_counts = result.counts
        if result.counts:
            return next(iter(result.counts))
        return None

    def probabilities(self) -> Dict[int, float]:
        """Basis-state probabilities of the last flushed state."""
        if self.final_state is None:
            return {}
        probs = self.final_state.probabilities()
        return {
            basis: float(p) for basis, p in enumerate(probs) if p > 1e-12
        }


class IBMBackend(Backend):
    """Noisy shot-based backend standing in for the IBM QE chip.

    Runs ``shots`` executions under the calibrated noise model and
    reports the modal outcome (what one reads off the chip's
    histogram); the full histogram is kept in ``last_counts``.
    """

    def __init__(
        self,
        shots: int = 1024,
        noise_model: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
    ):
        self.shots = shots
        self._backend = NoisyBackend(
            noise_model or NoiseModel.ibm_qe_2018(), seed=seed
        )
        self.last_counts: Dict[int, int] = {}

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        result = self._backend.run(circuit, shots=self.shots)
        self.last_counts = result.counts
        if not result.counts:
            return None
        return max(result.counts, key=lambda k: result.counts[k])

    def histogram(self) -> Dict[int, float]:
        total = sum(self.last_counts.values()) or 1
        return {k: v / total for k, v in sorted(self.last_counts.items())}


class ResourceCounterBackend(Backend):
    """Counts resources instead of simulating; measurements read as 0."""

    def __init__(self) -> None:
        self.estimate: Optional[ResourceEstimate] = None

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        self.estimate = ResourceCounter().run(circuit)
        return 0


class CircuitCollector(Backend):
    """Backend that just hands back the built circuit (for exporters)."""

    def __init__(self) -> None:
        self.circuit: Optional[QuantumCircuit] = None

    def execute(self, circuit: QuantumCircuit) -> Optional[int]:
        self.circuit = circuit.copy()
        return None
