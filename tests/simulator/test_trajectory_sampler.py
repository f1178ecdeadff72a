"""The one chunked trajectory sampler behind every shot-based noisy run.

``sample_trajectories`` evolves shots as the columns of chunked
``(2**n, k)`` arrays.  It serves the Fig. 6 chip substitute
(``IBMBackend``), ``NoisyBackend.run``, the ``monte_carlo`` engine, the
compiler facade's ``simulate`` and ``StatevectorSimulator``'s
mid-circuit runs, so these must agree seed for seed, and the sampled
distributions must match exact references: the ``density_matrix``
engine for noisy runs, branch enumeration over the dense oracle for
noiseless mid-circuit measurement and reset.
"""

import math

import numpy as np
import pytest

from oracles.dense_statevector import DenseStatevector

import repro
from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import NoiseModel
from repro.frameworks.projectq.backends import IBMBackend
from repro.simulator import statevector
from repro.simulator.noise import NoisyBackend
from repro.simulator.statevector import StatevectorSimulator


def _noisy_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.t(1)
    circuit.cx(0, 1)
    circuit.h(2)
    circuit.cx(1, 2)
    circuit.tdg(2)
    circuit.h(1)
    for qubit in range(3):
        circuit.measure(qubit, qubit)
    return circuit


def _midcircuit_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.reset(0)
    circuit.ry(1.1, 0)
    circuit.cx(1, 2)
    circuit.h(1)
    circuit.measure(1, 1)
    circuit.cx(0, 2)
    circuit.measure(2, 2)
    return circuit


def _chunk_width(monkeypatch, circuit: QuantumCircuit, columns: int) -> list:
    """Cap chunks at ``columns`` trajectories; record each chunk's width."""
    monkeypatch.setattr(
        statevector, "_CHUNK_BYTES", columns * 16 << circuit.num_qubits
    )
    widths = []
    measure = statevector._measure_batch

    def spy(state, qubit, rng):
        widths.append(statevector._columns(state))
        return measure(state, qubit, rng)

    monkeypatch.setattr(statevector, "_measure_batch", spy)
    return widths


def _dense_distribution(circuit: QuantumCircuit) -> np.ndarray:
    """Exact register distribution by enumerating measurement branches."""
    dim = 1 << circuit.num_qubits
    index = np.arange(dim)
    start = DenseStatevector(circuit.num_qubits).data
    branches = [(1.0, start, 0)]
    for gate in circuit.gates:
        if not (gate.is_measurement or gate.name == "reset"):
            for _, data, _ in branches:
                dense = DenseStatevector(circuit.num_qubits, data)
                dense.apply_gate(gate)
                data[:] = dense.data
            continue
        qubit = gate.targets[0]
        split = []
        for weight, data, creg in branches:
            for bit in (0, 1):
                kept = np.where((index >> qubit) & 1 == bit, data, 0.0)
                prob = float(np.vdot(kept, kept).real)
                if prob < 1e-12:
                    continue
                kept = kept / math.sqrt(prob)
                if gate.is_measurement:
                    clbit = gate.cbits[0]
                    value = (creg & ~(1 << clbit)) | (bit << clbit)
                    split.append((weight * prob, kept, value))
                else:  # reset: move the |1> branch back onto |0>
                    split.append(
                        (weight * prob, kept[index ^ (bit << qubit)], creg)
                    )
        branches = split
    probs = np.zeros(1 << circuit.num_clbits)
    for weight, _, creg in branches:
        probs[creg] += weight
    return probs


def _assert_within_5_sigma(counts, probs, shots):
    assert sum(counts.values()) == shots
    assert set(counts) <= set(np.nonzero(probs > 0)[0].tolist())
    for outcome, p in enumerate(probs):
        estimate = counts.get(outcome, 0) / shots
        sigma = math.sqrt(max(p * (1 - p), 1e-6) / shots)
        assert abs(estimate - p) < 5 * sigma + 1e-9, outcome


class TestOneSampler:
    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_every_entry_point_gives_identical_counts(self, seed):
        model = NoiseModel.ibm_qe_2018()
        compiled = repro.compile(
            _noisy_circuit(), target="clifford_t", cache=None
        )
        circuit = compiled.circuit
        shots = 512
        chip = IBMBackend(shots=shots, noise_model=model, seed=seed)
        chip.execute(circuit)
        direct = NoisyBackend(model, seed=seed).run(circuit, shots=shots)
        engine = engines.run(
            "monte_carlo", circuit, shots=shots, noise=model, seed=seed
        )
        facade = compiled.simulate(
            engine="monte_carlo", shots=shots, noise=model, seed=seed
        )
        assert chip.last_counts == direct.counts
        assert engine.counts == direct.counts
        assert facade.counts == direct.counts

    @pytest.mark.parametrize(
        "circuit, model, counts",
        [
            (
                _noisy_circuit(),
                NoiseModel.ibm_qe_2018(),
                {0: 7, 1: 9, 2: 13, 3: 5, 4: 10, 5: 7, 6: 8, 7: 5},
            ),
            (
                _midcircuit_circuit(),
                NoiseModel(p1=0.02, p2=0.08, p_meas=0.05),
                {0: 8, 1: 9, 2: 14, 3: 3, 4: 7, 5: 9, 6: 2, 7: 12},
            ),
        ],
    )
    def test_single_chunk_counts_are_pinned(self, circuit, model, counts):
        # a one-chunk run's seeded counts are part of the contract: a
        # change to the draw order shows up here
        result = engines.run(
            "monte_carlo", circuit, shots=64, noise=model, seed=5
        )
        assert result.counts == counts

    def test_chunked_run_matches_density_matrix(self, monkeypatch):
        circuit = _noisy_circuit()
        model = NoiseModel(p1=0.02, p2=0.08, p_meas=0.05)
        shots = 4000  # not a multiple of the 3-column chunk
        widths = _chunk_width(monkeypatch, circuit, 3)
        sampled = engines.run(
            "monte_carlo", circuit, shots=shots, noise=model, seed=11
        )
        # ceil(4000 / 3) chunks, the last one a single column
        assert set(widths) == {3, 1}
        assert len(widths) == 3 * math.ceil(shots / 3)
        exact = engines.run("density_matrix", circuit, noise=model)
        _assert_within_5_sigma(
            sampled.counts, exact.exact_probabilities, shots
        )

    def test_wide_runs_take_one_flat_column_per_chunk(self, monkeypatch):
        circuit = _noisy_circuit()
        widths = _chunk_width(monkeypatch, circuit, 1)
        result = NoisyBackend(NoiseModel.ibm_qe_2018(), seed=3).run(
            circuit, shots=40
        )
        assert sum(result.counts.values()) == 40
        assert set(widths) == {1}

    def test_zero_shots(self):
        counts, last = statevector.sample_trajectories(
            np.array([1.0, 0.0], dtype=complex),
            [],
            0,
            np.random.default_rng(0),
        )
        assert counts == {} and last is None


class TestNoiselessMidCircuit:
    def test_oracle_sees_the_midcircuit_correlations(self):
        probs = _dense_distribution(_midcircuit_circuit())
        assert probs.sum() == pytest.approx(1.0)
        # bit 0 is a fair coin, and every outcome carries weight
        assert probs[0::2].sum() == pytest.approx(0.5)
        assert np.count_nonzero(probs > 1e-9) == 8

    @pytest.mark.parametrize("columns", [None, 5])
    def test_statevector_run_matches_dense_oracle(self, monkeypatch, columns):
        circuit = _midcircuit_circuit()
        if columns is not None:
            widths = _chunk_width(monkeypatch, circuit, columns)
        shots = 3001
        result = StatevectorSimulator(seed=4).run(circuit, shots=shots)
        _assert_within_5_sigma(
            result.counts, _dense_distribution(circuit), shots
        )
        # one trajectory's final state comes back, normalised
        assert result.final_state.norm() == pytest.approx(1.0)
        if columns is not None:
            assert set(widths) == {5, 1}

    def test_noiseless_monte_carlo_matches_dense_oracle(self):
        circuit = _midcircuit_circuit()
        shots = 3000
        result = engines.run("monte_carlo", circuit, shots=shots, seed=9)
        _assert_within_5_sigma(
            result.counts, _dense_distribution(circuit), shots
        )
