"""The ``monte_carlo`` builtin engine — sampled noisy trajectories.

A thin adapter over :class:`repro.simulator.noise.NoisyBackend`: every
shot evolves a fresh statevector with random Pauli errors and readout
flips at the :class:`NoiseModel`'s rates.  The exact counterpart is the
``density_matrix`` engine, which evolves the trajectory *average* of
this sampler (same depolarizing convention), so the two agree within
sampling tolerance — asserted in
``tests/engines/test_differential_density.py``.

Unlike the raw backend (which defaults to the QE5 calibration), the
engine treats ``noise=None`` as noiseless, matching the other engines'
convention that noise is only applied when the caller asks for it.

Since PR 10 trajectory-safe models route through the backend's batched
sweep (:meth:`NoisyBackend.run_batched`) by default: all shots evolve
on one trailing batch axis, which is the same distribution but a
*different RNG stream* than the per-shot loop — pass ``batched=False``
for the historical per-shot stream, ``batched=True`` to force the
batch even past the memory guard.
"""

from __future__ import annotations

from typing import Optional

from ..core.circuit import QuantumCircuit
from ..simulator.statevector import SimulationResult
from .base import EngineCapabilities, EngineError, reject_opts
from .noise import NoiseModel


class MonteCarloEngine:
    """Shot-sampled Pauli/readout noise on statevector trajectories."""

    name = "monte_carlo"
    description = (
        "per-shot statevector trajectories with sampled "
        "Pauli/readout noise (the Fig. 6 device substitute)"
    )
    capabilities = EngineCapabilities(max_qubits=20, noise=True, exact=False)
    aliases = ("mc", "noisy")

    #: auto-batching memory guard: largest ``shots * 2**n`` complex128
    #: batch the engine will allocate unasked (256 MiB).
    max_batch_bytes = 1 << 28

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        shots: int = 1024,
        noise: Optional[NoiseModel] = None,
        seed: Optional[int] = None,
        **opts,
    ) -> SimulationResult:
        """Run ``circuit`` on a fresh :class:`NoisyBackend`.

        Args:
            circuit: the circuit to execute.
            shots: trajectory count.
            noise: the :class:`NoiseModel` to sample from (``None``
                means noiseless — pass ``QE5_NOISE`` explicitly for
                the paper's device rates).  Damping rates are exact-
                tier channels and are rejected here.
            seed: RNG seed for the error/measurement sampling.
            **opts: ``batched`` picks the trajectory sweep — ``None``
                (default) batches all shots on one axis when the model
                is trajectory-safe and the batch fits
                :attr:`max_batch_bytes`, ``False`` forces the
                historical per-shot loop, ``True`` forces the batch.
                The batched sweep samples the same distribution but a
                *different RNG stream* than the loop for the same
                seed.  Any other option raises.

        Returns:
            The run's :class:`SimulationResult` (counts only).
        """
        reject_opts(self, opts, allowed=("batched",))
        model = noise if noise is not None else NoiseModel.noiseless()
        if not model.trajectory_safe:
            raise EngineError(
                "engine 'monte_carlo' samples Pauli/readout errors only; "
                "amplitude/phase damping needs the exact "
                "'density_matrix' engine"
            )
        from ..simulator.noise import NoisyBackend

        sampler = NoisyBackend(model, seed=seed)
        batched = opts.get("batched")
        if batched is None:
            batch_bytes = shots * (1 << circuit.num_qubits) * 16
            batched = batch_bytes <= self.max_batch_bytes
        if batched:
            return sampler.run_batched(circuit, shots=shots)
        return sampler.run(circuit, shots=shots)


#: the registry's lazy-loading hook (mirrors ``emit``'s ``EMITTER``).
ENGINE = MonteCarloEngine()
