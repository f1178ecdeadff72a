"""Differential harness for the kernel execution paths.

Property: however the kernels execute a circuit — fused or unfused,
batched or looped, one trajectory column or a chunk of them — the
amplitudes must agree to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import QuantumCircuit
from repro.engines.noise import NoiseModel
from repro.simulator import kernels
from repro.simulator.noise import NoisyBackend
from repro.simulator.statevector import evolve_batch

ATOL = 1e-12


# ----------------------------------------------------------------------
# strategies: random circuits over the full named-gate vocabulary
# ----------------------------------------------------------------------
@st.composite
def circuits(draw, min_qubits=2, max_qubits=5):
    n = draw(st.integers(min_qubits, max_qubits))
    depth = draw(st.integers(1, 25))
    rng_seed = draw(st.integers(0, 2**31))
    import random

    rng = random.Random(rng_seed)
    circ = QuantumCircuit(n)
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx"]
    for _ in range(depth):
        r = rng.random()
        if r < 0.35:
            getattr(circ, rng.choice(one_q))(rng.randrange(n))
        elif r < 0.55:
            getattr(circ, rng.choice(["rx", "ry", "rz", "p"]))(
                rng.uniform(-3.0, 3.0), rng.randrange(n)
            )
        elif r < 0.80:
            a, b = rng.sample(range(n), 2)
            getattr(circ, rng.choice(["cx", "cz", "ch", "swap"]))(a, b)
        elif r < 0.90 and n >= 3:
            a, b, c = rng.sample(range(n), 3)
            circ.ccx(a, b, c)
        else:
            a, b = rng.sample(range(n), 2)
            circ.crz(rng.uniform(-3.0, 3.0), a, b)
    return circ


def random_state(num_qubits, seed, batch=()):
    gen = np.random.default_rng(seed)
    shape = (1 << num_qubits,) + batch
    data = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    data /= np.linalg.norm(data, axis=0)
    return data


def evolve_on(circ, state, fuse=True):
    out = np.array(state, dtype=complex)
    ops = kernels.compile_circuit(circ.gates, fuse=fuse)
    kernels.apply_ops(out, ops, circ.num_qubits)
    return out


# ----------------------------------------------------------------------
# properties of the one NumPy kernel path
# ----------------------------------------------------------------------
class TestNumpyProperties:
    @given(circuits())
    @settings(max_examples=25)
    def test_fused_matches_unfused(self, circ):
        state = random_state(circ.num_qubits, 7)
        fused = evolve_on(circ, state, fuse=True)
        unfused = evolve_on(circ, state, fuse=False)
        np.testing.assert_allclose(fused, unfused, atol=ATOL)

    @given(circuits())
    @settings(max_examples=15)
    def test_evolve_batch_matches_column_loop(self, circ):
        n = circ.num_qubits
        batch = random_state(n, 13, batch=(4,))
        looped = batch.copy()
        for col in range(4):
            column = np.ascontiguousarray(looped[:, col])
            kernels.apply_ops(
                column, kernels.compile_circuit(circ.gates), n
            )
            looped[:, col] = column
        batched = batch.copy()
        evolve_batch(circ, batched)
        np.testing.assert_allclose(batched, looped, atol=ATOL)

    def test_noisy_run_noiseless_matches_exact_distribution(self):
        bell = QuantumCircuit(2, 2)
        bell.h(0)
        bell.cx(0, 1)
        bell.measure(0, 0)
        bell.measure(1, 1)
        result = NoisyBackend(NoiseModel.noiseless(), seed=5).run(
            bell, shots=4000
        )
        assert set(result.counts) == {0, 3}
        assert sum(result.counts.values()) == 4000
        assert abs(result.counts[0] / 4000 - 0.5) < 0.05

    def test_noisy_run_keeps_bell_dominant(self):
        bell = QuantumCircuit(2, 2)
        bell.h(0)
        bell.cx(0, 1)
        bell.measure(0, 0)
        bell.measure(1, 1)
        result = NoisyBackend(NoiseModel.ibm_qe_2018(), seed=5).run(
            bell, shots=4000
        )
        assert sum(result.counts.values()) == 4000
        dominant = (result.counts.get(0, 0) + result.counts.get(3, 0)) / 4000
        assert dominant > 0.75  # QE5 rates: correct pair dominates

    def test_noisy_run_handles_reset_and_midcircuit_measure(self):
        circ = QuantumCircuit(2, 2)
        circ.h(0)
        circ.measure(0, 0)
        circ.reset(0)
        circ.x(0)
        circ.measure(0, 1)
        result = NoisyBackend(NoiseModel.noiseless(), seed=2).run(
            circ, shots=600
        )
        # bit 1 is always 1 after reset + x; bit 0 is a fair coin
        assert set(result.counts) <= {0b10, 0b11}
        assert sum(result.counts.values()) == 600
