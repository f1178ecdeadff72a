"""CLAIM-SIM — classical simulation reach (Sec. I).

Paper claims in shape: full state-vector simulation is exponential in
qubit count (feasible to ~45 qubits on supercomputers, ~30 on a
workstation; here: laptop-scale widths), while restricted circuit
classes (low-depth / Clifford-dominated, cf. [24], [72]) simulate far
beyond that — our stabilizer engine handles hundreds of qubits.

Reproduced series: statevector seconds-per-layer vs qubit count
(exponential growth), stabilizer engine at widths impossible for the
statevector, and the verification cross-check between both engines.
"""

import os
import random
import sys
import time
from pathlib import Path

import numpy as np

from conftest import report

# the reference oracles (dense seed statevector, dense CHP tableau)
# live with the tests, under tests/oracles
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

from oracles.dense_statevector import DenseStatevector  # noqa: E402
from oracles.tableau_reference import ReferenceStabilizerSimulator  # noqa: E402

import repro
from repro.algorithms.hidden_shift import hidden_shift_circuit
from repro.boolean.bent import HiddenShiftInstance, MaioranaMcFarland
from repro.boolean.permutation import BitPermutation
from repro.boolean.truth_table import TruthTable
from repro.core.circuit import QuantumCircuit
from repro.simulator import kernels
from repro.simulator.stabilizer import StabilizerSimulator
from repro.simulator.statevector import Statevector, StatevectorSimulator


def layered_circuit(num_qubits, layers=3):
    circ = QuantumCircuit(num_qubits)
    for _ in range(layers):
        for q in range(num_qubits):
            circ.h(q)
        for q in range(num_qubits - 1):
            circ.cx(q, q + 1)
    return circ


def test_statevector_scaling(benchmark):
    benchmark(
        lambda: StatevectorSimulator().statevector(layered_circuit(12))
    )

    rows = [("paper: cost doubles per added qubit", "")]
    timings = []
    for n in (8, 10, 12, 14, 16, 18):
        circ = layered_circuit(n)
        start = time.perf_counter()
        StatevectorSimulator().statevector(circ)
        elapsed = time.perf_counter() - start
        per_gate = elapsed / len(circ)
        timings.append((n, elapsed))
        rows.append(
            (
                f"n = {n:2d}",
                f"total = {elapsed * 1000:9.2f} ms"
                f"  per gate = {per_gate * 1e6:9.1f} us"
                f"  state = 2^{n} amplitudes",
            )
        )
    report("CLAIM-SIM: statevector scaling", rows)
    # exponential shape: 18 qubits must cost much more than 8 qubits
    assert timings[-1][1] > 4 * timings[0][1]


def _time_evolution(n, state_class, repeats=3):
    """Best-of-``repeats`` wall time of one layered_circuit(n) evolution."""
    circ = layered_circuit(n)
    best = float("inf")
    for _ in range(repeats):
        state = state_class(n)
        start = time.perf_counter()
        state.evolve(circ)
        best = min(best, time.perf_counter() - start)
    return best


def test_kernels_vs_dense(benchmark):
    """In-place kernel + fusion path vs the seed tensordot pipeline.

    The kernel path (bit-sliced views, gate fusion, matmul blocks) must
    be at least 5x faster than the dense seed implementation on the
    layered_circuit(16) series.
    """

    def _run():
        rows = [("series: layered_circuit(n), kernels vs dense seed path", "")]
        speedups = {}
        for n in (8, 10, 12, 14, 16):
            fast = _time_evolution(n, Statevector)
            dense = _time_evolution(n, DenseStatevector)
            speedups[n] = dense / fast
            rows.append(
                (
                    f"n = {n:2d}",
                    f"kernels = {fast * 1000:8.2f} ms"
                    f"  dense = {dense * 1000:8.2f} ms"
                    f"  speedup = {dense / fast:5.1f}x",
                )
            )
        report("CLAIM-SIM: kernel layer speedup", rows)
        # the hard perf gate only applies to real benchmark runs on
        # dedicated hardware; --benchmark-disable smoke runs and noisy
        # shared CI runners (CI env var) just exercise the code path
        if benchmark.enabled and not os.environ.get("CI"):
            assert speedups[16] >= 5.0, (
                f"kernel path only {speedups[16]:.1f}x faster at n=16"
            )

    benchmark.pedantic(_run, rounds=1, iterations=1)


def _unitary_part(circuit):
    """The measurement-free body of a compiled circuit."""
    body = QuantumCircuit(circuit.num_qubits)
    for gate in circuit.unitary_gates():
        body.append(gate)
    return body


def _cube(half, variables):
    """The positive cube AND(variables) as a truth table over ``half``."""
    mask = sum(1 << v for v in variables)
    bits = sum(1 << y for y in range(1 << half) if y & mask == mask)
    return TruthTable(half, bits)


def _fusion_corpus(rng):
    """Compiled Clifford+T circuits on both sides of the fusion threshold.

    Random 5-8-line permutations through the Eq. 5 flow (7-13 qubits,
    cheap CNOT/T-heavy gates) and Maiorana-McFarland hidden shifts with
    identity pi and a 3-variable cube h at 10-20 qubits (few gates,
    H layers that block fusion collapses).
    """
    corpus = []
    for lines in (5, 6, 7, 8):
        spec = list(range(1 << lines))
        rng.shuffle(spec)
        result = repro.compile(
            spec, target="clifford_t", cache=None, verify="off"
        )
        corpus.append((f"{lines}-line perm", _unitary_part(result.circuit)))
    for half in (5, 6, 7, 8, 9, 10):
        mm = MaioranaMcFarland(
            BitPermutation(list(range(1 << half))),
            _cube(half, rng.sample(range(half), 3)),
        )
        instance = HiddenShiftInstance(mm, rng.randrange(1 << (2 * half)))
        built = hidden_shift_circuit(instance, method="mm")
        result = repro.compile(built.circuit, target="clifford_t", cache=None)
        corpus.append(
            (f"MM shift, half {half}", _unitary_part(result.circuit))
        )
    return corpus


def _evolve_forced(circuit, fuse):
    """Evolve |0..0> on one forced kernel path (fused or unfused)."""
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    kernels.apply_ops(state, kernels.compile_circuit(circuit.gates, fuse), n)


def _best_times(paths, rounds):
    """Best wall time per path over ``rounds`` interleaved rounds."""
    best = dict.fromkeys(paths, float("inf"))
    for _ in range(rounds):
        for path, run in paths.items():
            start = time.perf_counter()
            run()
            best[path] = min(best[path], time.perf_counter() - start)
    return best


def test_fusion_selection_break_even(benchmark):
    """The size-selected evolution path never loses to a forced one.

    ``Statevector.evolve`` fuses only states of at least
    ``kernels.FUSION_MIN_AMPLITUDES`` amplitudes.  Every corpus circuit
    runs on the selected path and on both forced paths
    (``compile_circuit`` + ``apply_ops``), interleaved, best of 5-40
    rounds (more for fast circuits); the table lands in
    ``extra_info``.  The path the selector picks must stay within
    1.10x of the faster forced path, asserted on local real runs only
    (noisy shared CI timers skip it), recorded everywhere.  The assert
    compares the two forced timings: the selected run executes the
    same ops as the forced path it picks, and on a shared 2-vCPU VM
    two timings of identical work still differed by up to 1.2x at
    best of 5-40.
    """

    def _run():
        corpus = _fusion_corpus(random.Random(2018))
        rows = [(
            "threshold",
            f"fuse at >= 2^{kernels.FUSION_MIN_AMPLITUDES.bit_length() - 1}"
            " amplitudes",
        )]
        table = {}
        for name, circuit in corpus:
            n = circuit.num_qubits
            paths = {
                "selected": lambda: Statevector(n).evolve(circuit),
                "fused": lambda: _evolve_forced(circuit, True),
                "unfused": lambda: _evolve_forced(circuit, False),
            }
            best = _best_times(paths, 1)
            if benchmark.enabled:
                round_s = sum(best.values())
                best = _best_times(paths, min(40, max(5, int(2.0 / round_s))))
            ms = {path: round(t * 1000, 3) for path, t in best.items()}
            fuses = (1 << n) >= kernels.FUSION_MIN_AMPLITUDES
            fastest = min(best["fused"], best["unfused"])
            ratio = best["fused" if fuses else "unfused"] / fastest
            table[name] = dict(
                ms,
                qubits=n,
                gates=len(circuit.gates),
                selected_fuses=fuses,
                ratio=round(ratio, 3),
            )
            rows.append((
                f"{name} ({n} qubits, {len(circuit.gates)} gates)",
                f"selected = {ms['selected']:9.2f} ms  "
                f"fused = {ms['fused']:9.2f} ms  "
                f"unfused = {ms['unfused']:9.2f} ms  "
                f"picks {'fused' if fuses else 'unfused'}, "
                f"{ratio:4.2f}x the faster",
            ))
        report("CLAIM-SIM: fusion selected by state size", rows)
        benchmark.extra_info["fusion_break_even"] = table
        if benchmark.enabled and not os.environ.get("CI"):
            slow = {
                name: row["ratio"]
                for name, row in table.items()
                if row["ratio"] > 1.10
            }
            assert not slow, (
                f"selected path > 1.10x the faster forced path: {slow}"
            )

    benchmark.pedantic(_run, rounds=1, iterations=1)


def test_stabilizer_reach(benchmark):
    def _run():
        """The Clifford engine runs widths the statevector never could.

        PR 10 bit-packed the tableau; the dense pre-refactor
        implementation is kept in ``tests/oracles`` so the speedup
        is measured in-run rather than against a stale committed
        number.  The reference leg stops at n=100 (its n=200 run alone
        takes seconds), and the >=5x gate follows the PR 1 convention:
        asserted on local real runs only, recorded everywhere.
        """
        rows = [("paper: restricted classes simulate beyond 49 qubits", "")]
        packed_ms = {}
        reference_ms = {}
        for n in (25, 50, 100, 200):
            circ = QuantumCircuit(n, n)
            circ.h(0)
            for q in range(n - 1):
                circ.cx(q, q + 1)
            for q in range(n):
                circ.measure(q, q)
            start = time.perf_counter()
            counts = StabilizerSimulator(seed=1).run(circ, shots=3)
            elapsed = time.perf_counter() - start
            packed_ms[n] = elapsed * 1000
            rows.append(
                (f"n = {n:3d}", f"GHZ sampled in {elapsed * 1000:8.1f} ms")
            )
            for outcome in counts:
                assert outcome in (0, (1 << n) - 1)
            if n <= 100:
                start = time.perf_counter()
                dense = ReferenceStabilizerSimulator(seed=1).run(
                    circ, shots=3
                )
                reference_ms[n] = (time.perf_counter() - start) * 1000
                assert dense == counts
                rows.append(
                    (f"n = {n:3d} (dense reference)",
                     f"GHZ sampled in {reference_ms[n]:8.1f} ms")
                )
        speedup = reference_ms[100] / max(packed_ms[100], 1e-9)
        rows.append(
            ("packed speedup at n = 100", f"{speedup:7.1f}x over dense")
        )
        report("CLAIM-SIM: stabilizer (CHP) reach", rows)
        benchmark.extra_info["stabilizer_reach_ms"] = {
            str(n): round(t, 2) for n, t in packed_ms.items()
        }
        benchmark.extra_info["stabilizer_reference_ms"] = {
            str(n): round(t, 2) for n, t in reference_ms.items()
        }
        benchmark.extra_info["stabilizer_speedup_100"] = round(speedup, 1)
        if benchmark.enabled and not os.environ.get("CI"):
            assert speedup >= 5.0, (
                f"packed tableau only {speedup:.1f}x over the dense "
                "reference at n=100"
            )

    benchmark.pedantic(_run, rounds=1, iterations=1)


def _clifford_corpus(rng, count=6, n=4, depth=30):
    """Random Clifford circuits every engine (incl. stabilizer) can run."""
    corpus = []
    for _ in range(count):
        circ = QuantumCircuit(n, n)
        for _ in range(depth):
            r = rng.random()
            if r < 0.4:
                a, b = rng.sample(range(n), 2)
                circ.cx(a, b)
            else:
                getattr(circ, rng.choice(["h", "s", "x", "z"]))(
                    rng.randrange(n)
                )
        for q in range(n):
            circ.measure(q, q)
        corpus.append(circ)
    return corpus


def test_engines_agree(benchmark):
    def _run():
        """Verification cross-check (Sec. IX) as a per-engine matrix.

        Every registered engine runs the same Clifford corpus through
        the repro.engines registry; supports and frequencies must match
        the statevector reference (the 'verify the synthesized circuit'
        problem).  The exact density-matrix engine must match the
        reference *probabilities* to 1e-10, and its reach note records
        how wall time scales in rho's 4^n memory up to n ~ 10.
        """
        import random

        from repro import engines

        rng = random.Random(0)
        corpus = _clifford_corpus(rng)
        shots = 600
        matrix = {}
        for name in engines.engines():
            if name == "monte_carlo":
                # noiseless monte_carlo is the statevector path; keep
                # the matrix to the three distinct simulation models
                continue
            agreements = 0
            for trial, circ in enumerate(corpus):
                reference = StatevectorSimulator(seed=trial).run(
                    circ, shots=shots
                )
                result = engines.run(name, circ, shots=shots, seed=trial)
                if name == "density_matrix":
                    ok = all(
                        abs(
                            result.probability(k)
                            - reference.counts.get(k, 0) / shots
                        ) < 0.12
                        for k in set(result.counts) | set(reference.counts)
                    )
                else:
                    support = set(result.counts) == set(reference.counts)
                    ok = support and all(
                        abs(
                            result.counts.get(k, 0)
                            - reference.counts.get(k, 0)
                        ) / shots < 0.12
                        for k in set(result.counts) | set(reference.counts)
                    )
                agreements += ok
            matrix[name] = f"{agreements}/{len(corpus)}"
        rows = [
            (f"engine = {name}", f"circuits agreeing: {score}")
            for name, score in matrix.items()
        ]

        # density-matrix reach: rho is 4^n amplitudes, so ~10-12 qubits
        # is the practical ceiling (vs ~24 for the statevector)
        reach = {}
        for n in (4, 6, 8, 10):
            circ = layered_circuit(n, layers=1)
            circ.measure_all()
            start = time.perf_counter()
            engines.run("density_matrix", circ, shots=0)
            reach[n] = time.perf_counter() - start
            rows.append(
                (
                    f"density reach n = {n:2d}",
                    f"{reach[n] * 1000:8.1f} ms  (rho = 4^{n} amplitudes)",
                )
            )
        report("CLAIM-SIM: engine cross-verification matrix", rows)
        benchmark.extra_info["engine_matrix"] = matrix
        benchmark.extra_info["density_reach_seconds"] = {
            str(n): round(t, 4) for n, t in reach.items()
        }
        benchmark.extra_info["density_reach_note"] = (
            "exact rho engine is practical to n <= ~10 on a laptop "
            "(4^n amplitudes; hard cap 12)"
        )
        assert all(
            score == f"{len(corpus)}/{len(corpus)}"
            for score in matrix.values()
        ), matrix

    benchmark.pedantic(_run, rounds=1, iterations=1)
