"""OpenQASM 2.0 backend: export *and* round-trip import.

The paper positions QASM/OpenQASM as the "assembly language" of quantum
computing (Sec. II).  The exporter emits standard ``qelib1.inc``
vocabulary; mcx/mcz gates must be mapped to Clifford+T (or at least to
ccx) before export.  The importer supports the subset the exporter
emits, which is enough for round-trip tests (emit → parse → emit is a
fixed point) and for feeding external tools.

This module is the implementation behind the ``qasm2`` registry entry.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import TYPE_CHECKING, List, Tuple

from ..core.gates import ROTATION_GATES, Gate
from .base import EmitterError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

_EXPORT_NAMES = {
    "id": "id",
    "h": "h",
    "x": "x",
    "y": "y",
    "z": "z",
    "s": "s",
    "sdg": "sdg",
    "t": "t",
    "tdg": "tdg",
    "sx": "sx",
    "sxdg": "sxdg",
    "rx": "rx",
    "ry": "ry",
    "rz": "rz",
    "p": "u1",
    "cx": "cx",
    "cy": "cy",
    "cz": "cz",
    "ch": "ch",
    "crz": "crz",
    "cp": "cu1",
    "swap": "swap",
    "ccx": "ccx",
    "ccz": "ccz",
    "cswap": "cswap",
}

_IMPORT_NAMES = {v: k for k, v in _EXPORT_NAMES.items()}
_IMPORT_NAMES["u1"] = "p"
_IMPORT_NAMES["cu1"] = "cp"

#: number of control qubits per exported name
_NUM_CONTROLS = {
    "cx": 1,
    "cy": 1,
    "cz": 1,
    "ch": 1,
    "crz": 1,
    "cp": 1,
    "ccx": 2,
    "ccz": 2,
    "cswap": 1,
}


class QasmError(EmitterError):
    """Raised on malformed OpenQASM input or unexportable gates."""


def to_qasm(circuit: "QuantumCircuit") -> str:
    """Serialize a circuit as OpenQASM 2.0 text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{max(circuit.num_qubits, 1)}];",
    ]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate) -> str:
    """Render one core gate as an OpenQASM 2.0 statement."""
    if gate.name == "measure":
        return f"measure q[{gate.targets[0]}] -> c[{gate.cbits[0]}];"
    if gate.name == "reset":
        return f"reset q[{gate.targets[0]}];"
    if gate.name == "barrier":
        wires = ", ".join(f"q[{q}]" for q in gate.targets)
        return f"barrier {wires};"
    if gate.name == "ccz":
        # qelib1 has no ccz; emit h-ccx-h equivalent inline as three ops
        c1, c2 = gate.controls
        tgt = gate.targets[0]
        return (
            f"h q[{tgt}];\nccx q[{c1}], q[{c2}], q[{tgt}];\nh q[{tgt}];"
        )
    name = _EXPORT_NAMES.get(gate.name)
    if name is None:
        raise QasmError(
            f"gate {gate.name!r} has no OpenQASM 2.0 form; map it first"
        )
    params = ""
    if gate.params:
        params = "(" + ", ".join(_format_angle(p) for p in gate.params) + ")"
    wires = ", ".join(f"q[{q}]" for q in gate.qubits)
    return f"{name}{params} {wires};"


def _format_angle(value: float) -> str:
    """Render an angle, using pi fractions when exact."""
    for denom in (1, 2, 3, 4, 6, 8, 16):
        for num in range(-16 * denom, 16 * denom + 1):
            if num == 0:
                continue
            if abs(value - num * math.pi / denom) < 1e-12:
                sign = "-" if num < 0 else ""
                num = abs(num)
                if num == denom:
                    return f"{sign}pi"
                if denom == 1:
                    return f"{sign}{num}*pi"
                if num == 1:
                    return f"{sign}pi/{denom}"
                return f"{sign}{num}*pi/{denom}"
    if abs(value) < 1e-12:
        return "0"
    return repr(value)


# operands never contain parentheses, so the parameter list runs to
# the line's last ``)`` and may nest: ``rz(-(pi/4)) q[0];``
_GATE_RE = re.compile(
    r"^(?P<name>[a-z][a-z0-9]*)\s*(?:\((?P<params>.*)\))?\s*(?P<args>.*);$"
)
_MEASURE_RE = re.compile(r"^measure\s+(?P<qubit>.*?)\s*->\s*(?P<clbit>.*);$")
_OPERAND_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")


_ANGLE_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _eval_angle(node: ast.AST) -> float:
    """Evaluate one whitelisted angle-expression node in float arithmetic.

    Only numbers, ``pi``, ``+ - * /``, unary signs and parentheses are
    accepted; every value is a float, so no input can force big-integer
    arithmetic (``**`` is not in the grammar at all).
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        value = _eval_angle(node.operand)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](
            _eval_angle(node.left), _eval_angle(node.right)
        )
    raise ValueError("unsupported angle syntax")


def _parse_angle(text: str) -> float:
    """Evaluate a ``pi``-fraction angle expression such as ``-3*pi/4``.

    Raises:
        QasmError: for anything outside the angle grammar, division
            by zero, or a non-finite result.
    """
    # the parser reports over-deep nesting (``------...1``) as
    # MemoryError or RecursionError rather than SyntaxError
    try:
        value = _eval_angle(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError,
            RecursionError, MemoryError) as exc:
        raise QasmError(f"bad angle expression {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise QasmError(f"angle expression {text!r} is not finite")
    return value


def _wire_lookup(registers, kind):
    """Build a ``(name, index) -> flat wire`` resolver for one kind.

    Registers declared in order are flattened with running offsets, so
    external files with named (or multiple) ``qreg``/``creg``
    declarations import onto the single flat register this package
    uses.  Unknown register names raise instead of silently dropping
    operands.
    """

    def resolve(name, index):
        if name not in registers:
            declared = ", ".join(registers) or "(none)"
            raise QasmError(
                f"unknown {kind} register {name!r}; declared: {declared}"
            )
        offset, size = registers[name]
        if index >= size:
            raise QasmError(
                f"{kind} index {name}[{index}] outside the register's "
                f"size {size}"
            )
        return offset + index

    return resolve


def _operand(line: str, text: str) -> Tuple[str, int]:
    """Parse one ``reg[idx]`` operand into ``(reg, idx)``.

    Raises:
        QasmError: for a whole-register operand (``h q;``) or any text
            that is not exactly one indexed operand.
    """
    text = text.strip()
    match = _OPERAND_RE.fullmatch(text)
    if match:
        return match.group(1), int(match.group(2))
    if re.fullmatch(r"\w+", text):
        raise QasmError(
            f"whole-register operand {text!r} in line {line!r} is "
            f"unsupported; index each wire ({text}[0], {text}[1], ...)"
        )
    raise QasmError(
        f"bad operand {text!r} in line {line!r}; expected reg[index]"
    )


def _operands(line: str, text: str) -> List[Tuple[str, int]]:
    """Parse a ``reg[idx](, reg[idx])*`` operand list (may be empty)."""
    if not text.strip():
        return []
    return [_operand(line, part) for part in text.split(",")]


def _check_count(line: str, what: str, expected: int, got: int) -> None:
    """Raise unless a statement carries the expected number of ``what``."""
    if got != expected:
        raise QasmError(
            f"line {line!r} takes {expected} {what}(s), got {got}"
        )


def from_qasm(text: str) -> "QuantumCircuit":
    """Parse OpenQASM 2.0 text (the subset emitted by :func:`to_qasm`).

    Externally produced files are welcome too: named and multiple
    ``qreg``/``creg`` declarations flatten onto one register in
    declaration order, and operands referencing undeclared registers
    raise :class:`QasmError` instead of being dropped.  Operand lists
    must be exactly ``reg[idx](, reg[idx])*``; whole-register operands
    (``h q;``, ``measure q -> c;``) raise :class:`QasmError`.
    """
    from ..core.circuit import QuantumCircuit

    qregs = {}
    cregs = {}
    num_qubits = 0
    num_clbits = 0
    body: List[str] = []
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM"):
            if not re.match(r"^OPENQASM\s+2(\.\d+)?\s*;", line):
                raise QasmError(
                    f"{line.rstrip(';')}: OpenQASM 3 import is not "
                    "supported; only the OpenQASM 2.0 subset parses"
                )
            continue
        if line.startswith("include"):
            continue
        match = re.match(r"^qreg\s+(\w+)\[(\d+)\];$", line)
        if match:
            qregs[match.group(1)] = (num_qubits, int(match.group(2)))
            num_qubits += int(match.group(2))
            continue
        match = re.match(r"^creg\s+(\w+)\[(\d+)\];$", line)
        if match:
            cregs[match.group(1)] = (num_clbits, int(match.group(2)))
            num_clbits += int(match.group(2))
            continue
        body.append(line)

    qubit_of = _wire_lookup(qregs, "quantum")
    clbit_of = _wire_lookup(cregs, "classical")
    circuit = QuantumCircuit(num_qubits, num_clbits)
    for line in body:
        match = _MEASURE_RE.match(line)
        if match:
            circuit.measure(
                qubit_of(*_operand(line, match.group("qubit"))),
                clbit_of(*_operand(line, match.group("clbit"))),
            )
            continue
        match = _GATE_RE.match(line)
        if not match:
            raise QasmError(f"cannot parse line {line!r}")
        qasm_name = match.group("name")
        qubits = [
            qubit_of(reg, idx)
            for reg, idx in _operands(line, match.group("args"))
        ]
        texts = match.group("params")
        texts = texts.split(",") if texts else []
        if qasm_name in ("barrier", "reset"):
            _check_count(line, "parameter", 0, len(texts))
            if qasm_name == "barrier":
                circuit.barrier(*qubits)
            else:
                _check_count(line, "qubit operand", 1, len(qubits))
                circuit.reset(qubits[0])
            continue
        name = _IMPORT_NAMES.get(qasm_name)
        if name is None:
            raise QasmError(f"unsupported gate {qasm_name!r}")
        params = tuple(_parse_angle(p) for p in texts)
        n_ctl = _NUM_CONTROLS.get(name, 0)
        n_tgt = 2 if name in ("swap", "cswap") else 1
        _check_count(line, "qubit operand", n_ctl + n_tgt, len(qubits))
        n_par = 1 if name in ROTATION_GATES else 0
        _check_count(line, "parameter", n_par, len(params))
        controls = tuple(qubits[:n_ctl])
        targets = tuple(qubits[n_ctl:])
        try:
            gate = Gate(name, targets, controls, params)
        except ValueError as exc:  # a repeated operand: ``cx q[0],q[0];``
            raise QasmError(f"{exc} in line {line!r}") from exc
        circuit.append(gate)
    return circuit


class Qasm2Emitter:
    """The ``qasm2`` registry backend (OpenQASM 2.0, round-trip)."""

    name = "qasm2"
    description = "OpenQASM 2.0 (qelib1.inc vocabulary, round-trip import)"
    file_extension = ".qasm"
    aliases: Tuple[str, ...] = ("qasm", "openqasm2")

    def emit(self, circuit: "QuantumCircuit", **opts) -> str:
        """Serialize ``circuit`` as OpenQASM 2.0 text."""
        if opts:
            raise QasmError(
                f"qasm2 emitter takes no options, got {sorted(opts)}"
            )
        return to_qasm(circuit)

    def parse(self, text: str) -> "QuantumCircuit":
        """Import OpenQASM 2.0 text back into a circuit."""
        return from_qasm(text)


#: The registry instance (loaded by :mod:`repro.emit.registry`).
EMITTER = Qasm2Emitter()
