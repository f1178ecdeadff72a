"""The engine registry: name → backend resolution for every simulator.

The simulator-side mirror of :mod:`repro.emit.registry`.  Built-in
engines load lazily on first registry use — importing
:mod:`repro.engines` alone pays for none of them.  User backends join
via :func:`register`; from then on both kinds are indistinguishable.
Resolution is case-insensitive and alias-aware (``"sv"`` resolves to
``"statevector"``, ``"dm"`` to ``"density_matrix"``).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Optional, Tuple, Union

from .._registry import Registry
from .base import Engine, EngineError
from .noise import NoiseModel, as_noise_model

if TYPE_CHECKING:  # pragma: no cover
    from ..core.circuit import QuantumCircuit
    from ..simulator.statevector import SimulationResult

#: Built-in engine modules, in canonical listing order; each module
#: exposes its backend instance as ``ENGINE``.
_BUILTIN_MODULES = ("statevector", "stabilizer", "density_matrix", "monte_carlo")


def _builtin_engines():
    """Import the built-in engine modules and yield their engines."""
    for module_name in _BUILTIN_MODULES:
        yield importlib.import_module(f".{module_name}", __package__).ENGINE


_ENGINES: Registry[Engine] = Registry(
    error=EngineError,
    noun="engine",
    plural="engines",
    protocol="Engine",
    required=("name", "description", "capabilities", "run"),
    passthrough=("run", "name"),
    expected="an engine name",
    builtins=_builtin_engines,
)


def register(engine: Engine, overwrite: bool = False) -> Engine:
    """Register a backend under its canonical name and aliases.

    Args:
        engine: the backend to register (anything satisfying the
            :class:`~.base.Engine` protocol).
        overwrite: replace an existing registration of the same name
            or alias instead of raising; a replaced backend keeps its
            listing position.

    Returns:
        The registered backend (for chaining).

    Raises:
        EngineError: when the backend is missing protocol fields, or
            its name/alias collides with an existing registration and
            ``overwrite`` is false.
    """
    return _ENGINES.register(engine, overwrite)


def unregister(name: str) -> Engine:
    """Remove a backend registration (built-ins included).

    Args:
        name: the canonical engine name to remove (not an alias).

    Returns:
        The removed backend.

    Raises:
        EngineError: when no engine of that name is registered.
    """
    return _ENGINES.unregister(name)


def get(spec: Union[str, Engine]) -> Engine:
    """Resolve an engine name (or alias, or backend) to its backend.

    Args:
        spec: a registered engine name or alias (case-insensitive),
            or an :class:`~.base.Engine` instance (returned as-is).

    Returns:
        The resolved backend.

    Raises:
        EngineError: for unknown names; the message lists the
            registered engines (with their aliases).
    """
    return _ENGINES.get(spec)


def engines() -> Tuple[str, ...]:
    """Return the canonical registered engine names, in listing order."""
    return _ENGINES.names()


def describe_engines() -> str:
    """Return ``"statevector (aka sv, pure), ..."`` for error messages."""
    return _ENGINES.describe()


def run(
    engine: Union[str, Engine],
    circuit: "QuantumCircuit",
    *,
    shots: int = 1024,
    noise: Union[NoiseModel, str, None] = None,
    seed: Optional[int] = None,
    **opts,
) -> "SimulationResult":
    """Execute a circuit on a named engine (registry dispatch).

    Args:
        engine: registered engine name or alias, or an engine instance.
        circuit: the circuit to execute.
        shots: measurement repetitions to report.
        noise: a :class:`NoiseModel`, a preset name (``"qe5"``), a
            ``"p1=0.001,p2=0.03"`` rate list, or ``None``.
        seed: RNG seed for reproducible sampling.
        **opts: backend-specific options.

    Returns:
        The run's :class:`~repro.simulator.statevector.SimulationResult`.

    Raises:
        EngineError: for unknown engine names, unknown noise specs, or
            jobs the backend cannot run.
    """
    backend = get(engine)
    return backend.run(
        circuit, shots=shots, noise=as_noise_model(noise), seed=seed, **opts
    )
