"""The ``statevector`` builtin engine — the default backend.

A thin adapter over :class:`repro.simulator.statevector.StatevectorSimulator`:
the registry path constructs the same simulator with the same arguments
as direct use, so results are identical shot-for-shot (golden-asserted
in ``tests/engines/test_adapters_golden.py``).

The engine takes no options.  Gate fusion is chosen by state size:
states of at least ``kernels.FUSION_MIN_AMPLITUDES`` (``2**14``)
amplitudes run the fusion pre-pass, smaller ones apply the gates one
by one, because below about 14 qubits the pre-pass costs more than it
saves (7-line permutations at 11 qubits: 1900 ms fused, 1113 ms
unfused; a 20-qubit hidden shift: 144 ms fused, 748 ms unfused).
"""

from __future__ import annotations

from typing import Optional

from ..core.circuit import QuantumCircuit
from ..simulator.statevector import SimulationResult, StatevectorSimulator
from .base import EngineCapabilities, reject_noise, reject_opts
from .noise import NoiseModel


class StatevectorEngine:
    """Pure-state simulation via the bit-sliced kernel layer."""

    name = "statevector"
    description = (
        "pure-state simulation on the bit-sliced kernels "
        "(universal gates, mid-circuit measurement)"
    )
    capabilities = EngineCapabilities(max_qubits=24, noise=False, exact=False)
    aliases = ("sv", "pure")

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Run ``circuit`` on a fresh :class:`StatevectorSimulator`.

        Args:
            circuit: the circuit to execute.
            shots: measurement repetitions.
            noise: must be ``None`` or all-zero (this backend is
                noiseless; the error names the noisy alternatives).
            seed: RNG seed for measurement sampling.
            **opts: none are supported; any raises :class:`EngineError`.

        Returns:
            The run's :class:`SimulationResult` (with final state).
        """
        reject_noise(self, noise)
        reject_opts(self, opts)
        return StatevectorSimulator(seed=seed).run(circuit, shots=shots)


#: the registry's lazy-loading hook (mirrors ``emit``'s ``EMITTER``).
ENGINE = StatevectorEngine()
