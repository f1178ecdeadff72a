"""Pluggable simulation engines: one registry for every backend.

The simulator-side mirror of :mod:`repro.emit`: every simulation
backend is an :class:`~.base.Engine` behind one registry, so
``Target.engine``, ``CompilationResult.simulate``, ``python -m repro
engines`` / ``compile --engine``, and the RevKit shell's ``sim_*``
commands all resolve backends the same way.

Built-in engines (``engines()`` order):

* ``statevector`` — pure states on the fused bit-sliced kernels
  (aliases ``sv``, ``pure``);
* ``stabilizer`` — Aaronson-Gottesman tableaus, Clifford only
  (aliases ``chp``, ``tableau``);
* ``density_matrix`` — exact open-system evolution with
  Pauli-transfer-matrix noise channels (aliases ``dm``, ``rho``);
* ``monte_carlo`` — sampled noisy trajectories, the Fig. 6 device
  substitute (aliases ``mc``, ``noisy``).

Adding a backend is one :func:`register` call with any object carrying
``name`` / ``description`` / ``capabilities`` / ``run``; it
immediately shows up in every listing above.  Noise is described by
one shared :class:`~.noise.NoiseModel` (:data:`~.noise.QE5_NOISE` is
the paper's IBM QE5 calibration) consumed by both noisy tiers.
"""

from .base import Engine, EngineCapabilities, EngineError
from .noise import NOISE_PRESETS, NoiseModel, QE5_NOISE, as_noise_model
from .registry import (
    describe_engines,
    engines,
    get,
    register,
    run,
    unregister,
)

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineError",
    "NOISE_PRESETS",
    "NoiseModel",
    "QE5_NOISE",
    "as_noise_model",
    "describe_engines",
    "engines",
    "get",
    "register",
    "run",
    "unregister",
    "DensityMatrix",
    "DensityMatrixResult",
]

#: density-matrix types resolved lazily (PEP 562) so importing the
#: package stays light — only registry use loads the builtin engines.
_LAZY = {
    "DensityMatrix": "density_matrix",
    "DensityMatrixResult": "density_matrix",
}


def __getattr__(name: str):
    """Resolve the lazily-exported density-matrix types on first use."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __package__)
    value = getattr(module, name)
    globals()[name] = value
    return value
