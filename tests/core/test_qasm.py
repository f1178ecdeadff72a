"""Unit tests for OpenQASM 2.0 export/import."""

import math
import time

import pytest

from repro import emit
from repro.core.circuit import QuantumCircuit
from repro.emit.qasm2 import QasmError, _parse_angle, from_qasm, to_qasm
from repro.core.unitary import circuits_equivalent


class TestExport:
    def test_header(self):
        text = to_qasm(QuantumCircuit(3))
        assert text.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in text
        assert "qreg q[3];" in text

    def test_basic_gates(self):
        circ = QuantumCircuit(2).h(0).cx(0, 1).t(1).tdg(0)
        text = to_qasm(circ)
        assert "h q[0];" in text
        assert "cx q[0], q[1];" in text
        assert "t q[1];" in text
        assert "tdg q[0];" in text

    def test_measure_and_creg(self):
        circ = QuantumCircuit(1, 1).measure(0, 0)
        text = to_qasm(circ)
        assert "creg c[1];" in text
        assert "measure q[0] -> c[0];" in text

    def test_rotation_pi_formatting(self):
        circ = QuantumCircuit(1).rz(math.pi / 4, 0)
        assert "rz(pi/4) q[0];" in to_qasm(circ)

    def test_negative_angle_formatting(self):
        circ = QuantumCircuit(1).rz(-math.pi / 2, 0)
        assert "rz(-pi/2) q[0];" in to_qasm(circ)

    def test_ccz_expanded(self):
        circ = QuantumCircuit(3).ccz(0, 1, 2)
        text = to_qasm(circ)
        assert "ccx q[0], q[1], q[2];" in text
        assert text.count("h q[2];") == 2

    def test_mcx_rejected(self):
        circ = QuantumCircuit(4).mcx([0, 1, 2], 3)
        with pytest.raises(QasmError):
            to_qasm(circ)


class TestImportRoundTrip:
    def test_round_trip_preserves_semantics(self):
        circ = QuantumCircuit(3)
        circ.h(0).cx(0, 1).t(2).swap(0, 2).sdg(1).rz(0.7, 0)
        circ.ccx(0, 1, 2).x(1).p(math.pi / 8, 2)
        parsed = from_qasm(to_qasm(circ))
        assert parsed.num_qubits == 3
        assert circuits_equivalent(circ, parsed)

    def test_round_trip_with_measurements(self):
        circ = QuantumCircuit(2, 2).h(0).cx(0, 1)
        circ.measure(0, 0).measure(1, 1)
        parsed = from_qasm(to_qasm(circ))
        assert parsed.num_clbits == 2
        assert sum(1 for g in parsed if g.is_measurement) == 2

    def test_comments_and_blank_lines_ignored(self):
        text = """OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[1];

x q[0]; // trailing comment
"""
        parsed = from_qasm(text)
        assert [g.name for g in parsed] == ["x"]

    def test_angle_expressions(self):
        parsed = from_qasm(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
            "rz(3*pi/4) q[0];\n"
        )
        assert parsed.gates[0].params[0] == pytest.approx(3 * math.pi / 4)

    def test_unknown_gate_raises(self):
        with pytest.raises(QasmError):
            from_qasm(
                'OPENQASM 2.0;\nqreg q[1];\nfancy q[0];\n'
            )

    def test_malformed_angle_rejected(self):
        with pytest.raises(QasmError):
            from_qasm(
                'OPENQASM 2.0;\nqreg q[1];\nrz(__import__) q[0];\n'
            )

    @pytest.mark.parametrize("angle, value", [
        ("pi", math.pi),
        ("-pi/2", -math.pi / 2),
        ("+0.5", 0.5),
        ("(1+pi)*2", (1 + math.pi) * 2),
        ("2*-pi", -2 * math.pi),
        ("1e-3", 1e-3),
        (" 3 ", 3.0),
    ])
    def test_angle_grammar_accepted(self, angle, value):
        assert _parse_angle(angle) == pytest.approx(value)

    @pytest.mark.parametrize("angle", [
        "pi**2", "sin(pi)", "tau", "1e309", "2 if 1 else 3", "'a'", "True",
    ])
    def test_angle_outside_grammar_rejected(self, angle):
        with pytest.raises(QasmError):
            _parse_angle(angle)

    @pytest.mark.parametrize("angle", ["9**9**9", "1/0", "1e308*10"])
    def test_hostile_angle_raises_qasm_error_promptly(self, angle):
        # regression: '**' slipped past the old character filter into
        # eval (9**9**9 never returned) and 1/0 leaked ZeroDivisionError
        start = time.perf_counter()
        with pytest.raises(QasmError):
            emit.parse(
                'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
                f"rz({angle}) q[0];\n",
                "qasm2",
            )
        assert time.perf_counter() - start < 1.0

    def test_barrier_round_trip(self):
        circ = QuantumCircuit(2).h(0).barrier(0, 1).h(1)
        parsed = from_qasm(to_qasm(circ))
        assert [g.name for g in parsed] == ["h", "barrier", "h"]
