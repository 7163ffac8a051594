"""Kernel backend lookup, kept for the benchmark.

The horizon cost lives in one pure-Python module, lanempc._core_py,
registered here as the "python" backend.  The package itself calls
``_core_py`` directly; only the benchmark looks backends up, by name
(``available()``, ``backend_name()``, ``get()``) or as ``active()``.
"""

from . import _core_py

_BACKENDS = {"python": _core_py}


def available():
    """Names of the importable backends, preferred first."""
    return tuple(_BACKENDS)


def backend_name():
    return "python"


def active():
    """The active backend module (horizon_cost, horizon_cost_grad)."""
    return _core_py


def get(name):
    """A backend module by name; raises KeyError for unknown ones."""
    return _BACKENDS[name]
