"""Kernel backend lookup.

The prediction/cost kernels live in one pure-Python module,
lanempc._core_py, registered as the "python" backend.  The lookup
functions stay so callers (the solver, the benchmark) fetch the kernels
by backend name rather than by module.
"""

from . import _core_py

_BACKENDS = {"python": _core_py}


def available():
    """Names of the importable backends, preferred first."""
    return tuple(_BACKENDS)


def backend_name():
    return "python"


def active():
    """The active backend module (exposes predict_steps / trajectory_cost /
    horizon_cost / horizon_cost_grad)."""
    return _core_py


def get(name):
    """A backend module by name; raises KeyError for unknown ones."""
    return _BACKENDS[name]
