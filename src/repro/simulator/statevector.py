"""Full state-vector simulator.

The local simulator backend of the paper's ProjectQ flow (Sec. VII) and
the reference oracle for every synthesis/optimization test in this
repository.  States are numpy complex vectors of length ``2**n`` with
qubit 0 as the least-significant bit of the basis-state index.

Execution model
---------------
Gates are applied by the in-place bit-sliced kernels of
:mod:`repro.simulator.kernels`: the state is viewed as a ``(2,) * n``
tensor (qubit ``q`` on axis ``n - 1 - q``) and each gate updates only
the slices it touches —

* named single-qubit gates are one 2x2 linear combination over two
  half-state views (O(2^n) flops, zero full-state copies);
* diagonal gates (Z/S/T/RZ/P and controlled forms) are elementwise
  multiplies on the |1>-control subspace only;
* X/Y/SWAP families are slice exchanges; an ``mcx`` with ``c``
  controls touches just ``2^(n-c)`` amplitudes;
* anything without a dedicated kernel (an arbitrary matrix passed to
  :meth:`Statevector.apply_matrix`) falls back to a generic in-place
  ``2^k``-slice kernel.

:meth:`Statevector.evolve`, :func:`evolve_batch` and every
:class:`StatevectorSimulator` run share one evolution path that picks
fusion by state size, not by option.  States of at least
:data:`~repro.simulator.kernels.FUSION_MIN_AMPLITUDES` (``2**14``)
amplitudes, batch columns included, first run the gate-fusion
pre-pass (:func:`repro.simulator.kernels.compile_circuit`):
wire-adjacent runs of single-qubit gates collapse into one 2x2 matrix,
consecutive diagonal gates merge into a single local diagonal, and the
remaining ops are grouped into multi-qubit blocks executed as one BLAS
matmul each, so deep Clifford+T circuits execute far fewer full-state
sweeps than they have gates.  Smaller states apply the gates one by
one: there the pre-pass costs more than the sweeps it saves.  On the
repo's compiled circuits (fused/unfused ms, 2-core VM) 7-line
permutations at 11 qubits take 1900/1113, an 8-line one at 13 qubits
1414/1054, a 9-line one at 15 qubits 4822/5610, and a 20-qubit
hidden shift 144/748; break-even sits between 2**13 and 2**14.

Sampling is vectorized: measurement histograms are produced by numpy
bit-gathers over the sampled outcome array plus ``np.unique`` instead
of per-shot Python loops.  Runs with mid-circuit measurements evolve
the deterministic unitary prefix once and hand the rest to the one
chunked trajectory sampler, :func:`sample_trajectories`, which also
drives the noisy backend.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from . import kernels

if TYPE_CHECKING:  # pragma: no cover
    from ..engines.noise import NoiseModel


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations."""


class Statevector:
    """Mutable n-qubit pure state."""

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if data is None:
            self.data = kernels._zeros(num_qubits)
            self.data[0] = 1.0
        else:
            data = kernels._prepare(data)
            if data.shape != (dim,):
                raise ValueError(f"state must have length {dim}")
            self.data = data

    @classmethod
    def from_basis_state(cls, num_qubits: int, basis: int) -> "Statevector":
        """Computational basis state |basis>."""
        if not 0 <= basis < (1 << num_qubits):
            raise ValueError("basis state out of range")
        state = cls(num_qubits)
        state.data[0] = 0.0
        state.data[basis] = 1.0
        return state

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label like ``'01+'``.

        Character i of the label describes qubit ``n-1-i`` (big-endian,
        as states are conventionally written), from {0, 1, +, -}.
        """
        num_qubits = len(label)
        state = cls(0)
        state.data = np.array([1.0], dtype=complex)
        vectors = {
            "0": np.array([1.0, 0.0], dtype=complex),
            "1": np.array([0.0, 1.0], dtype=complex),
            "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
            "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
        }
        for char in label:
            if char not in vectors:
                raise ValueError(f"unknown state label character {char!r}")
            state.data = np.kron(state.data, vectors[char])
        state.num_qubits = num_qubits
        return state

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.data)

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` matrix to the listed qubits.

        ``qubits[0]`` is the most-significant bit of the matrix's local
        index space (matching :meth:`Gate.matrix` ordering).
        """
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError("matrix does not match qubit count")
        kernels.apply_matrix(self.data, matrix, qubits, self.num_qubits)

    def apply_gate(self, gate: Gate) -> None:
        """Apply a unitary gate via its dedicated kernel when one exists."""
        if gate.name == "barrier" or gate.name == "id":
            return
        if not gate.is_unitary:
            raise SimulationError(
                f"apply_gate cannot handle non-unitary {gate.name!r}"
            )
        if not kernels.apply_gate(self.data, gate, self.num_qubits):
            self.apply_matrix(gate.matrix(), gate.qubits)

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Apply all unitary gates of ``circuit`` in place; returns self.

        States of at least ``kernels.FUSION_MIN_AMPLITUDES`` amplitudes
        first run the kernel layer's gate-fusion pre-pass.
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width does not match state")
        _evolve(self.data, circuit.gates, self.num_qubits)
        return self

    # ------------------------------------------------------------------
    # inspection / measurement
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        return np.abs(self.data) ** 2

    def probability_of(self, basis: int) -> float:
        return float(abs(self.data[basis]) ** 2)

    def amplitude(self, basis: int) -> complex:
        return complex(self.data[basis])

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def equiv(self, other: "Statevector", atol: float = 1e-9) -> bool:
        """Equality up to global phase."""
        return self.fidelity(other) > 1.0 - atol

    def measure_qubit(
        self, qubit: int, rng: np.random.Generator
    ) -> int:
        """Projectively measure one qubit, collapsing the state."""
        return int(_measure_batch(self.data, qubit, rng)[0])

    def reset_qubit(self, qubit: int, rng: np.random.Generator) -> None:
        """Measure and, if 1, flip back to |0>."""
        _reset_batch(self.data, qubit, rng)

    def sample_counts(
        self,
        shots: int,
        rng: np.random.Generator,
        qubits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Sample measurement outcomes without collapsing the state.

        Returns a histogram mapping the integer outcome (bit i of the
        key = measured value of ``qubits[i]``) to its frequency.  The
        histogram is produced by a vectorized bit-gather over the
        sampled outcomes rather than a per-shot loop.
        """
        probs = self.probabilities()
        outcomes = rng.choice(probs.size, size=shots, p=probs / probs.sum())
        if qubits is None:
            qubits = range(self.num_qubits)
        return _bit_gather_counts(outcomes, list(enumerate(qubits)))

    def __str__(self) -> str:
        terms = []
        for basis, amp in enumerate(self.data):
            if abs(amp) > 1e-9:
                label = format(basis, f"0{self.num_qubits}b")
                terms.append(f"({amp:.4g})|{label}>")
        return " + ".join(terms) if terms else "0"


def _bit_gather_counts(
    outcomes: np.ndarray, bit_map: Sequence[Tuple[int, int]]
) -> Dict[int, int]:
    """Histogram of remapped outcome bits, fully vectorized.

    ``bit_map`` lists (destination_bit, source_qubit) pairs: bit
    ``source_qubit`` of each sampled outcome lands at ``destination_bit``
    of the histogram key.
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    keys = np.zeros(outcomes.shape, dtype=np.int64)
    for dest, src in bit_map:
        keys |= ((outcomes >> src) & 1) << dest
    values, counts = np.unique(keys, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


#: largest trajectory chunk, in bytes of amplitudes: shots evolve as
#: the columns of one ``(2**n, k)`` array holding at most this much
#: (but always at least one column).
_CHUNK_BYTES = 1 << 20

_PAULIS = ("x", "y", "z")


def sample_trajectories(
    initial: np.ndarray,
    gates: Sequence[Gate],
    shots: int,
    rng: np.random.Generator,
    noise: Optional["NoiseModel"] = None,
) -> Tuple[Dict[int, int], Optional[np.ndarray]]:
    """Sample ``shots`` trajectories of ``gates`` from ``initial``.

    The one shot sampler behind :class:`StatevectorSimulator`'s
    mid-circuit runs and :class:`~repro.simulator.noise.NoisyBackend`.
    Shots evolve in chunks as the columns of a ``(2**n, k)`` array,
    ``k`` set by :data:`_CHUNK_BYTES`; a one-column chunk runs on the
    flat state.  Every gate is one kernel call per chunk, measurements
    and resets collapse all columns at once, and the gate sequence is
    executed verbatim (no fusion: noise is defined per physical gate).

    With a ``noise`` model each qubit a unitary gate touches suffers a
    uniformly random Pauli with the model's per-gate probability,
    scattered onto only the hit columns, and measured bits flip with
    ``p_meas``.  Seeded counts depend on the draw order within a
    chunk: one collapse draw per column, then the readout flips; per
    touched qubit, the hit mask, then (only if anything hit) the Pauli
    choices.

    Args:
        initial: the flat start state, broadcast into every column.
        gates: the gates to run (barriers are skipped).
        shots: trajectory count.
        rng: the random generator for collapses and errors.
        noise: optional Pauli/readout noise model.

    Returns:
        ``(counts, last)``: the classical-register histogram and the
        final state of the last trajectory (``None`` for zero shots).
    """
    num_qubits = initial.shape[0].bit_length() - 1
    gates = [g for g in gates if g.name != "barrier"]
    p_meas = 0.0 if noise is None else noise.p_meas
    error_rates = [
        0.0
        if noise is None or g.is_measurement or g.name == "reset"
        else noise.gate_error(g)
        for g in gates
    ]
    width = max(1, min(shots, _CHUNK_BYTES // initial.nbytes))
    registers = []
    last = None
    for start in range(0, shots, width):
        k = min(width, shots - start)
        state = (
            initial.copy() if k == 1 else np.repeat(initial[:, None], k, 1)
        )
        creg = np.zeros(k, dtype=np.int64)
        for gate, p_err in zip(gates, error_rates):
            if gate.is_measurement:
                bits = _measure_batch(state, gate.targets[0], rng)
                if p_meas > 0.0:
                    bits ^= rng.random(k) < p_meas
                clbit = gate.cbits[0]
                creg = (creg & ~(1 << clbit)) | (
                    bits.astype(np.int64) << clbit
                )
                continue
            if gate.name == "reset":
                _reset_batch(state, gate.targets[0], rng)
                continue
            if not kernels.apply_gate(state, gate, num_qubits):
                kernels.apply_matrix(
                    state, gate.matrix(), gate.qubits, num_qubits
                )
            if p_err > 0.0:
                for qubit in gate.qubits:
                    _pauli_errors(state, qubit, p_err, rng, num_qubits)
        registers.append(creg)
        last = state if k == 1 else state[:, -1]
    if not registers:
        return {}, None
    values, counts = np.unique(np.concatenate(registers), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}, last


def _columns(state: np.ndarray) -> int:
    """Trajectory count of a chunk (a flat state is one column)."""
    return 1 if state.ndim == 1 else state.shape[1]


def _measure_batch(
    state: np.ndarray, qubit: int, rng: np.random.Generator
) -> np.ndarray:
    """Measure ``qubit`` on every chunk column, collapsing in place.

    Returns the boolean outcome per column.  Columns keep unit norm;
    degenerate branches (probability ~0) are never selected, so the
    clipped divisors below only guard against 0/0.
    """
    k = _columns(state)
    half = 1 << qubit
    floats = state.view(np.float64).reshape(-1, 2, half * 2 * k)[:, 1]
    if k == 1:  # a flat state: one BLAS dot over the |1> blocks
        p1 = np.einsum("ab,ab->", floats, floats).reshape(1)
    else:
        floats = floats.reshape(floats.shape[0], half, 2 * k)
        p1 = np.einsum("abk,abk->k", floats, floats)
        p1 = p1.reshape(k, 2).sum(axis=1)
    p1 = np.minimum(p1, 1.0)
    bits = rng.random(k) < p1
    inv0 = np.where(bits, 0.0, 1.0 / np.sqrt(np.maximum(1.0 - p1, 1e-300)))
    inv1 = np.where(bits, 1.0 / np.sqrt(np.maximum(p1, 1e-300)), 0.0)
    # scale rows laid out like one (half, k) block, so each multiply
    # runs over whole contiguous blocks instead of k-wide strips
    view = state.reshape(-1, 2, half * k)
    view[:, 0] *= inv0 if k == 1 else np.tile(inv0, half)
    view[:, 1] *= inv1 if k == 1 else np.tile(inv1, half)
    return bits


def _reset_batch(
    state: np.ndarray, qubit: int, rng: np.random.Generator
) -> None:
    """Reset ``qubit`` to |0> on every chunk column (measure + flip)."""
    bits = _measure_batch(state, qubit, rng)
    cols = np.nonzero(bits)[0]
    if cols.size:
        view = state.reshape(-1, 2, 1 << qubit, _columns(state))
        view[:, 0, :, cols] = view[:, 1, :, cols]
        view[:, 1, :, cols] = 0.0


def _pauli_errors(
    state: np.ndarray,
    qubit: int,
    p_err: float,
    rng: np.random.Generator,
    num_qubits: int,
) -> None:
    """Hit ``qubit`` of each column with a random Pauli at rate ``p_err``."""
    k = _columns(state)
    hit = rng.random(k) < p_err
    if not hit.any():
        return
    choice = rng.integers(0, 3, k)
    if state.ndim == 1:
        kernels.apply_pauli(state, _PAULIS[choice[0]], qubit, num_qubits)
        return
    for pidx, pauli in enumerate(_PAULIS):
        cols = np.nonzero(hit & (choice == pidx))[0]
        if cols.size:
            sub = np.ascontiguousarray(state[:, cols])
            kernels.apply_pauli(sub, pauli, qubit, num_qubits)
            state[:, cols] = sub


class StatevectorSimulator:
    """Shot-based simulator supporting mid-circuit measurement/reset."""

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1,
        initial_state: Optional[Statevector] = None,
    ) -> "SimulationResult":
        """Execute ``circuit`` for ``shots`` repetitions.

        If the circuit's measurements are all terminal, a single state
        evolution is sampled ``shots`` times; otherwise the unitary
        prefix before the first measurement/reset is evolved once and
        shared, and only the remainder is re-simulated per shot.
        """
        rng = np.random.default_rng(self._seed)
        if not circuit.has_measurements():
            state = initial_state.copy() if initial_state else (
                Statevector(circuit.num_qubits)
            )
            state.evolve(circuit)
            return SimulationResult({}, state, shots)

        num_clbits = _measured_width(circuit)

        if _measurements_terminal(circuit):
            state = initial_state.copy() if initial_state else (
                Statevector(circuit.num_qubits)
            )
            measure_map: List[Tuple[int, int]] = []
            prefix: List[Gate] = []
            for gate in circuit.gates:
                if gate.is_measurement:
                    measure_map.append((gate.cbits[0], gate.targets[0]))
                elif gate.name == "reset":
                    raise SimulationError("reset after measurement unsupported")
                else:
                    prefix.append(gate)
            _evolve(state.data, prefix, state.num_qubits)
            probs = state.probabilities()
            outcomes = rng.choice(
                probs.size, size=shots, p=probs / probs.sum()
            )
            counts = _bit_gather_counts(outcomes, measure_map)
            return SimulationResult(counts, state, shots, num_clbits)

        # mid-circuit measurement: evolve the deterministic unitary
        # prefix once and sample only the suffix per shot.
        split = _first_nonunitary_index(circuit)
        base = initial_state.copy() if initial_state else (
            Statevector(circuit.num_qubits)
        )
        _evolve(base.data, circuit.gates[:split], base.num_qubits)
        counts, last = sample_trajectories(
            base.data, circuit.gates[split:], shots, rng
        )
        final = None if last is None else Statevector(circuit.num_qubits, last)
        return SimulationResult(counts, final, shots, num_clbits)

    def statevector(self, circuit: QuantumCircuit) -> Statevector:
        """Evolve |0..0> through a unitary circuit and return the state."""
        return Statevector(circuit.num_qubits).evolve(circuit)


def _evolve(data: np.ndarray, gates: Sequence[Gate], num_qubits: int) -> None:
    """Apply a unitary gate list in place: the one evolution path.

    Fuses when ``data`` holds at least ``kernels.FUSION_MIN_AMPLITUDES``
    amplitudes (``data.size`` counts batch columns too).  The kernels
    are reached through the module so tracers patching
    ``kernels.compile_circuit``/``kernels.apply_ops`` see every call.

    Raises:
        SimulationError: for a measurement or reset among ``gates``.
    """
    for gate in gates:
        if gate.is_measurement or gate.name == "reset":
            raise SimulationError(
                "evolution only handles unitary circuits; "
                "use StatevectorSimulator.run for measurements"
            )
    fuse = data.size >= kernels.FUSION_MIN_AMPLITUDES
    kernels.apply_ops(data, kernels.compile_circuit(gates, fuse), num_qubits)


def evolve_batch(circuit: QuantumCircuit, states: np.ndarray) -> np.ndarray:
    """Evolve a batch of states through a unitary circuit in place.

    The batch is one array of shape ``(2**n, b...)`` — column ``i`` of
    the trailing axes is an independent state — and every gate sweeps
    the whole batch through the kernels' vectorized batch axis,
    which is how multi-shot and noise-trajectory simulation amortize
    gate dispatch across shots.  Fusion is chosen by the size of the
    whole batch, like :meth:`Statevector.evolve`.

    Args:
        circuit: a measurement-free circuit of matching width.
        states: the complex state batch, modified in place.

    Returns:
        The evolved ``states`` array (the same object).

    Raises:
        SimulationError: for width mismatches or non-unitary gates.
    """
    if kernels.infer_num_qubits(states) != circuit.num_qubits:
        raise SimulationError("circuit width does not match state batch")
    _evolve(states, circuit.gates, circuit.num_qubits)
    return states


def _first_nonunitary_index(circuit: QuantumCircuit) -> int:
    """Index of the first measurement/reset gate."""
    for i, gate in enumerate(circuit.gates):
        if gate.is_measurement or gate.name == "reset":
            return i
    return len(circuit.gates)


def _measured_width(circuit: QuantumCircuit) -> int:
    """Histogram bit-width of a circuit's measured classical register.

    The declared classical register width wins (a 3-clbit circuit
    formats 3-character bitstrings even if only clbit 0 is measured);
    circuits that never declared clbits fall back to the highest
    measured bit.
    """
    if circuit.num_clbits:
        return circuit.num_clbits
    bits = [g.cbits[0] for g in circuit.gates if g.is_measurement]
    return (max(bits) + 1) if bits else 1


def _measurements_terminal(circuit: QuantumCircuit) -> bool:
    """True if no unitary gate follows a measurement on any qubit."""
    measured = set()
    for gate in circuit.gates:
        if gate.is_measurement:
            measured.add(gate.targets[0])
        elif gate.name == "barrier":
            continue
        else:
            if any(q in measured for q in gate.qubits):
                return False
    return True


class SimulationResult:
    """Counts + final state from a simulator run."""

    def __init__(
        self,
        counts: Dict[int, int],
        statevector: Optional[Statevector],
        shots: int,
        num_clbits: Optional[int] = None,
    ):
        self.counts = counts
        self.final_state = statevector
        self.shots = shots
        #: width (in bits) of the measured classical register, when the
        #: producing backend knows it; used for bitstring formatting.
        self.num_clbits = num_clbits

    def counts_by_bitstring(self, width: Optional[int] = None) -> Dict[str, int]:
        """Counts keyed by bitstrings (most-significant bit first).

        The width is, in order of preference: the explicit ``width``
        argument, the measured classical register width recorded by the
        backend, or the widest observed outcome / final-state width.
        """
        if width is None:
            width = self.num_clbits
        if width is None:
            width = max(
                (key.bit_length() for key in self.counts), default=1
            )
            if self.final_state is not None:
                width = max(width, self.final_state.num_qubits)
        return {
            format(key, f"0{width}b"): value
            for key, value in sorted(self.counts.items())
        }

    def most_frequent(self) -> int:
        if not self.counts:
            raise SimulationError("no measurement results recorded")
        return max(self.counts, key=lambda k: self.counts[k])

    def probability(self, outcome: int) -> float:
        return self.counts.get(outcome, 0) / self.shots
