"""The seed statevector, kept as the kernels' reference oracle.

Every gate is a dense ``tensordot`` of the gate matrix with the state
tensor followed by a transpose and a contiguous copy; X/CX/MCX and
Z/CZ/MCZ take the seed's ``np.arange`` permutation and sign paths.
``tests/simulator/test_kernels.py`` asserts the in-place kernels agree
with it to 1e-12, and ``benchmarks/bench_simulator_scaling.py``
times the kernels against it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.circuit import QuantumCircuit
from repro.core.gates import Gate


class DenseStatevector:
    """Mutable n-qubit pure state evolved by dense contraction."""

    def __init__(self, num_qubits: int, data=None):
        self.num_qubits = num_qubits
        if data is None:
            self.data = np.zeros(1 << num_qubits, dtype=complex)
            self.data[0] = 1.0
        else:
            self.data = np.array(data, dtype=complex)

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Seed implementation: tensordot + transpose + contiguous copy."""
        k = len(qubits)
        n = self.num_qubits
        tensor = self.data.reshape([2] * n)
        axes = [n - 1 - q for q in qubits]
        local = matrix.reshape([2] * (2 * k))
        tensor = np.tensordot(local, tensor, axes=(list(range(k, 2 * k)), axes))
        # restore axis ordering (same logic as core.unitary)
        remaining = [a for a in range(n) if a not in axes]
        out_index = {axis: i for i, axis in enumerate(axes)}
        rem_index = {axis: k + i for i, axis in enumerate(remaining)}
        perm = [
            out_index[a] if a in out_index else rem_index[a] for a in range(n)
        ]
        self.data = np.ascontiguousarray(np.transpose(tensor, perm)).reshape(-1)

    def apply_gate(self, gate: Gate) -> None:
        """Apply a unitary gate: MCX/MCZ fast paths, else the dense matrix."""
        if gate.name == "barrier" or gate.name == "id":
            return
        if gate.base_name == "x" and not gate.params:
            self._apply_mcx(gate.controls, gate.targets[0])
        elif gate.base_name == "z" and not gate.params:
            self._apply_mcz(gate.controls, gate.targets[0])
        else:
            self.apply_matrix(gate.matrix(), gate.qubits)

    def _apply_mcx(self, controls: Tuple[int, ...], target: int) -> None:
        """Seed permutation path for X/CX/CCX/MCX."""
        indices = np.arange(self.data.size)
        mask = np.ones(self.data.size, dtype=bool)
        for ctl in controls:
            mask &= (indices >> ctl) & 1 == 1
        flipped = indices ^ (1 << target)
        new_data = self.data.copy()
        new_data[flipped[mask]] = self.data[indices[mask]]
        self.data = new_data

    def _apply_mcz(self, controls: Tuple[int, ...], target: int) -> None:
        """Seed diagonal path for Z/CZ/CCZ/MCZ."""
        indices = np.arange(self.data.size)
        mask = (indices >> target) & 1 == 1
        for ctl in controls:
            mask &= (indices >> ctl) & 1 == 1
        self.data[mask] *= -1.0

    def evolve(self, circuit: QuantumCircuit) -> "DenseStatevector":
        """Apply every gate of a unitary circuit in order; returns self."""
        for gate in circuit.gates:
            self.apply_gate(gate)
        return self
