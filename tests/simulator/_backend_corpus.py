"""Deterministic circuit corpus shared by the kernel golden tests.

The golden arrays in ``tests/simulator/golden/kernel_states.npz`` were
captured from the historical kernel layer.  The corpus here regenerates the
exact same circuits, so the kernels can be asserted *identical* — not
merely close — to the historical kernels after any refactor.

Do not change this module without regenerating the goldens.
"""

import random

import numpy as np

from repro.core.circuit import QuantumCircuit

#: (name, num_qubits, seed, gates, fuse) — one golden entry per row.
CASES = (
    ("clifford_t_fused", 5, 11, 60, True),
    ("clifford_t_unfused", 5, 11, 60, False),
    ("rotations_fused", 4, 23, 48, True),
    ("wide_blocks_fused", 7, 37, 90, True),
    ("diag_heavy_fused", 6, 41, 70, True),
)


def corpus_circuit(num_qubits, seed, gates):
    """A deterministic circuit over the full named-gate vocabulary."""
    rng = random.Random(seed)
    circ = QuantumCircuit(num_qubits)
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg"]
    rot = ["rx", "ry", "rz", "p"]
    for _ in range(gates):
        r = rng.random()
        if r < 0.30:
            getattr(circ, rng.choice(one_q))(rng.randrange(num_qubits))
        elif r < 0.50:
            getattr(circ, rng.choice(rot))(
                rng.uniform(-3.0, 3.0), rng.randrange(num_qubits)
            )
        elif r < 0.72:
            a, b = rng.sample(range(num_qubits), 2)
            getattr(circ, rng.choice(["cx", "cy", "cz", "ch", "swap"]))(a, b)
        elif r < 0.82:
            a, b = rng.sample(range(num_qubits), 2)
            circ.crz(rng.uniform(-3.0, 3.0), a, b)
        elif r < 0.92 and num_qubits >= 3:
            a, b, c = rng.sample(range(num_qubits), 3)
            circ.ccx(a, b, c)
        elif num_qubits >= 4:
            qs = rng.sample(range(num_qubits), 4)
            circ.mcx(qs[:3], qs[3])
        else:
            circ.h(rng.randrange(num_qubits))
    return circ


def corpus_state(num_qubits, seed):
    """A deterministic normalized random complex initial state."""
    gen = np.random.default_rng(seed)
    data = gen.standard_normal(1 << num_qubits) + 1j * gen.standard_normal(
        1 << num_qubits
    )
    data /= np.linalg.norm(data)
    return data
