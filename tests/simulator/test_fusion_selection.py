"""The simulator picks gate fusion by state size, not by option.

Every evolution path (``Statevector.evolve``, both measuring branches
of ``StatevectorSimulator.run`` and ``evolve_batch``) must hand
``kernels.compile_circuit`` ``fuse=True`` exactly when the state holds
at least ``kernels.FUSION_MIN_AMPLITUDES`` amplitudes, batch columns
included.
"""

import inspect

import numpy as np
import pytest

from repro.core.circuit import QuantumCircuit
from repro.simulator import kernels
from repro.simulator.statevector import (
    Statevector,
    StatevectorSimulator,
    evolve_batch,
)


@pytest.fixture
def fuse_calls(monkeypatch):
    """Record the ``fuse`` argument of every ``compile_circuit`` call."""
    original = kernels.compile_circuit
    signature = inspect.signature(original)
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["fuse"])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "compile_circuit", spy)
    return calls


def _layer(num_qubits, num_clbits=0):
    circuit = QuantumCircuit(num_qubits, num_clbits)
    for q in range(num_qubits):
        circuit.h(q)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    return circuit


@pytest.mark.parametrize("num_qubits,fused", [(13, False), (14, True)])
def test_evolve_selects_by_state_size(fuse_calls, num_qubits, fused):
    Statevector(num_qubits).evolve(_layer(num_qubits))
    assert fuse_calls == [fused]


@pytest.mark.parametrize("num_qubits,fused", [(13, False), (14, True)])
def test_terminal_measure_run_selects_by_state_size(
    fuse_calls, num_qubits, fused
):
    circuit = _layer(num_qubits, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    StatevectorSimulator(seed=1).run(circuit, shots=8)
    assert fuse_calls == [fused]


@pytest.mark.parametrize("num_qubits,fused", [(13, False), (14, True)])
def test_mid_circuit_run_selects_by_state_size(fuse_calls, num_qubits, fused):
    circuit = _layer(num_qubits, 2)
    circuit.measure(0, 0)
    circuit.x(1)
    circuit.measure(1, 1)
    # only the unitary prefix is compiled; the trajectory suffix runs
    # gate by gate
    StatevectorSimulator(seed=1).run(circuit, shots=2)
    assert fuse_calls == [fused]


@pytest.mark.parametrize("num_qubits,fused", [(13, False), (14, True)])
def test_unmeasured_run_and_statevector_select_by_state_size(
    fuse_calls, num_qubits, fused
):
    simulator = StatevectorSimulator(seed=1)
    simulator.run(_layer(num_qubits), shots=1)
    simulator.statevector(_layer(num_qubits))
    assert fuse_calls == [fused, fused]


@pytest.mark.parametrize("columns,fused", [(8, False), (16, True)])
def test_evolve_batch_counts_batch_columns(fuse_calls, columns, fused):
    states = np.zeros((1 << 10, columns), dtype=complex)
    states[0] = 1.0
    evolve_batch(_layer(10), states)
    assert fuse_calls == [fused]


@pytest.mark.parametrize("num_qubits", [13, 14])
def test_both_sides_of_the_threshold_agree_with_the_other_path(num_qubits):
    circuit = _layer(num_qubits)
    circuit.t(0).ccx(0, 1, 2).rz(0.3, 3)
    selected = Statevector(num_qubits).evolve(circuit).data
    data = np.zeros(1 << num_qubits, dtype=complex)
    data[0] = 1.0
    forced = data.copy()
    fuse = num_qubits < 14  # the path the selector did not take
    kernels.apply_ops(
        forced, kernels.compile_circuit(circuit.gates, fuse), num_qubits
    )
    np.testing.assert_allclose(selected, forced, atol=1e-12)
