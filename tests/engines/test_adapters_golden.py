"""Golden tests: registry adapters are identical to the direct paths.

The statevector/stabilizer/Monte-Carlo engines are adapters over the
pre-existing simulators; for a fixed seed their output must be
*identical* to calling those simulators directly — the registry adds
dispatch, never behavior.
"""

import pytest

from repro import engines
from repro.core.circuit import QuantumCircuit
from repro.engines import NoiseModel
from repro.simulator.noise import NoisyBackend
from repro.simulator.stabilizer import StabilizerError, StabilizerSimulator
from repro.simulator.statevector import StatevectorSimulator


def _universal_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.t(1)
    circuit.cx(0, 1)
    circuit.rx(0.3, 2)
    circuit.ccx(0, 1, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


def _clifford_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.s(2)
    circuit.cz(1, 2)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.measure(2, 2)
    return circuit


class TestStatevectorAdapter:
    def test_counts_identical_to_direct_path(self):
        circuit = _universal_circuit()
        for seed in (0, 7, 12345):
            direct = StatevectorSimulator(seed=seed).run(circuit, shots=256)
            via = engines.run("statevector", circuit, shots=256, seed=seed)
            assert via.counts == direct.counts
            assert via.num_clbits == direct.num_clbits
            assert via.shots == direct.shots

    def test_fusion_option_rejected(self):
        # fusion is chosen by state size: there is no switch to forward
        with pytest.raises(engines.EngineError, match="unknown option 'fusion'"):
            engines.run(
                "statevector", _universal_circuit(), shots=8, fusion=False
            )

    def test_noise_rejected_with_alternatives(self):
        with pytest.raises(engines.EngineError, match="density_matrix"):
            engines.run(
                "statevector", _universal_circuit(), noise="qe5"
            )

    def test_noiseless_model_accepted(self):
        result = engines.run(
            "statevector", _universal_circuit(), shots=8, seed=1,
            noise="none",
        )
        assert sum(result.counts.values()) == 8

    def test_unknown_opt_rejected(self):
        with pytest.raises(engines.EngineError, match="unknown option"):
            engines.run("statevector", _universal_circuit(), frobnicate=1)


class TestStabilizerAdapter:
    def test_counts_identical_to_direct_path(self):
        circuit = _clifford_circuit()
        for seed in (0, 11, 999):
            direct = StabilizerSimulator(seed=seed).run(circuit, shots=128)
            via = engines.run("stabilizer", circuit, shots=128, seed=seed)
            assert via.counts == direct
            assert via.num_clbits == 3

    def test_non_clifford_error_propagates(self):
        circuit = QuantumCircuit(1, 1)
        circuit.t(0)
        circuit.measure(0, 0)
        with pytest.raises(StabilizerError, match="not Clifford"):
            engines.run("stabilizer", circuit, shots=1)

    def test_noise_rejected(self):
        with pytest.raises(engines.EngineError, match="does not support"):
            engines.run("stabilizer", _clifford_circuit(), noise="qe5")


class TestMonteCarloAdapter:
    def test_counts_identical_to_direct_path(self):
        # one trajectory sampler: the engine is NoisyBackend.run
        circuit = _universal_circuit()
        model = NoiseModel.ibm_qe_2018()
        for seed in (0, 42):
            direct = NoisyBackend(model, seed=seed).run(circuit, shots=200)
            via = engines.run(
                "monte_carlo", circuit, shots=200, noise=model, seed=seed
            )
            assert via.counts == direct.counts

    def test_batched_option_rejected(self):
        # every run takes the one trajectory sampler: nothing to pick
        with pytest.raises(engines.EngineError, match="unknown option 'batched'"):
            engines.run(
                "monte_carlo", _universal_circuit(), shots=8, batched=False
            )

    def test_none_noise_means_noiseless(self):
        # unlike raw NoisyBackend (which defaults to QE5), the engine
        # treats noise=None as the all-zero model for cross-engine
        # consistency
        circuit = QuantumCircuit(1, 1)
        circuit.x(0)
        circuit.measure(0, 0)
        result = engines.run("monte_carlo", circuit, shots=128, seed=0)
        assert result.counts == {1: 128}

    def test_damping_rates_need_exact_engine(self):
        model = NoiseModel(amplitude_damping=0.1)
        with pytest.raises(engines.EngineError, match="density_matrix"):
            engines.run("monte_carlo", _universal_circuit(), noise=model)


@pytest.mark.parametrize(
    "engine", ["statevector", "density_matrix", "monte_carlo"]
)
def test_array_backend_option_rejected(engine):
    # the kernels have one NumPy path; 'backend' is no longer an option
    with pytest.raises(engines.EngineError, match="unknown option 'backend'"):
        engines.run(engine, _universal_circuit(), backend="numpy")
