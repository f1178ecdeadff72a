"""The emitter registry: name → backend resolution for every format.

Built-in backends load lazily on first registry use — importing
:mod:`repro.emit` alone pays for none of them (in a full ``import
repro`` the compiler's target presets resolve their ``emitter``
fields, which does load the builtins; each backend module is kept
import-light for exactly that reason).  User backends join via
:func:`register`; from then on both kinds are indistinguishable.
Resolution is case-insensitive and alias-aware (``"qasm"`` is the
historical alias of ``"qasm2"``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Tuple, Union

from .._registry import Registry
from .base import Emitter, EmitterError, can_parse

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit

#: Built-in backend modules, in canonical listing order; each module
#: exposes its backend instance as ``EMITTER``.
_BUILTIN_MODULES = ("qasm2", "qasm3", "qsharp", "projectq", "cirq", "qir")


def _builtin_emitters():
    """Import the built-in backend modules and yield their emitters."""
    for module_name in _BUILTIN_MODULES:
        yield importlib.import_module(f".{module_name}", __package__).EMITTER


_FORMATS: Registry[Emitter] = Registry(
    error=EmitterError,
    noun="emission format",
    plural="formats",
    protocol="Emitter",
    required=("name", "description", "file_extension", "emit"),
    passthrough=("emit", "name"),
    expected="a format name",
    builtins=_builtin_emitters,
)


def register(emitter: Emitter, overwrite: bool = False) -> Emitter:
    """Register a backend under its canonical name and aliases.

    Args:
        emitter: the backend to register (anything satisfying the
            :class:`~.base.Emitter` protocol).
        overwrite: replace an existing registration of the same name
            or alias instead of raising.  A replaced backend keeps its
            listing position (also :func:`emitter_for_path`'s
            first-match priority).

    Returns:
        The registered backend (for chaining).

    Raises:
        EmitterError: when the backend is missing protocol fields, or
            its name/alias collides with an existing registration and
            ``overwrite`` is false.
    """
    return _FORMATS.register(emitter, overwrite)


def unregister(name: str) -> Emitter:
    """Remove a backend registration (built-ins included).

    Args:
        name: the canonical format name to remove (not an alias).

    Returns:
        The removed backend.

    Raises:
        EmitterError: when no backend of that name is registered.
    """
    return _FORMATS.unregister(name)


def get(spec: Union[str, Emitter]) -> Emitter:
    """Resolve a format name (or alias, or backend) to its backend.

    Args:
        spec: a registered format name or alias (case-insensitive),
            or an :class:`~.base.Emitter` instance (returned as-is).

    Returns:
        The resolved backend.

    Raises:
        EmitterError: for unknown names; the message lists the
            registered formats (with their aliases).
    """
    return _FORMATS.get(spec)


def formats() -> Tuple[str, ...]:
    """Return the canonical registered format names, in listing order."""
    return _FORMATS.names()


def describe_formats() -> str:
    """Return ``"qasm2 (aka qasm), qasm3, ..."`` for error messages."""
    return _FORMATS.describe()


def parseable_formats() -> Tuple[str, ...]:
    """Return the registered formats whose backend can ``parse``."""
    return tuple(name for name in formats() if can_parse(get(name)))


def emit(circuit: "QuantumCircuit", format: str, **opts) -> str:
    """Render a circuit in the named format (registry dispatch).

    Args:
        circuit: the circuit to render.
        format: registered format name or alias.
        **opts: backend-specific options.

    Returns:
        The emitted source text.

    Raises:
        EmitterError: for unknown format names.
    """
    return get(format).emit(circuit, **opts)


def parse(text: str, format: str = "qasm2", **opts) -> "QuantumCircuit":
    """Parse source text back into a circuit (registry dispatch).

    Args:
        text: the source text to import.
        format: registered format name or alias; the backend must
            implement the optional ``parse`` hook.
        **opts: backend-specific import options (e.g. the Q#
            backend's ``num_qubits=`` register-width override).

    Returns:
        The imported :class:`~repro.core.circuit.QuantumCircuit`.

    Raises:
        EmitterError: for unknown formats, or formats whose backend
            cannot parse (the message lists the ones that can).
    """
    emitter = get(format)
    if not can_parse(emitter):
        raise EmitterError(
            f"format {emitter.name!r} has no importer; formats with "
            f"round-trip parse support: "
            f"{', '.join(parseable_formats())}"
        )
    return emitter.parse(text, **opts)


def emitter_for_path(path: str) -> Emitter:
    """Resolve a file path to a backend by its extension.

    Args:
        path: a file name whose suffix selects the format (e.g.
            ``oracle.qasm`` → ``qasm2``).

    Returns:
        The first registered backend (in listing order) claiming the
        suffix.

    Raises:
        EmitterError: when no backend claims the suffix; the message
            lists the known extensions.
    """
    lowered = str(path).lower()
    listed = [(name, get(name)) for name in formats()]
    for _name, emitter in listed:
        if lowered.endswith(emitter.file_extension):
            return emitter
    known = ", ".join(
        f"{emitter.file_extension} ({name})" for name, emitter in listed
    )
    raise EmitterError(
        f"no emission format claims the extension of {path!r}; known "
        f"extensions: {known}"
    )
