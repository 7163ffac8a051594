"""Kernel backend lookup.

The prediction/cost kernels live in one pure-Python module,
lanempc._core_py, registered as the "python" backend.  The lookup
functions stay so callers (the solver, the benchmark) fetch the kernels
by backend name rather than by module.
"""

from . import _core_py

_BACKENDS = {"python": _core_py}
_active_name = "python"

VX_FLOOR = _core_py.VX_FLOOR
MAX_STEPS = _core_py.MAX_STEPS


def available():
    """Names of the importable backends, preferred first."""
    return tuple(_BACKENDS)


def backend_name():
    return _active_name


def active():
    """The active backend module (exposes predict_steps / trajectory_cost /
    horizon_cost / horizon_cost_grad / horizon_cost_gn /
    predict_jacobians)."""
    return _BACKENDS[_active_name]


def get(name):
    """A backend module by name; raises KeyError for unknown ones."""
    return _BACKENDS[name]


def use(name):
    """Switch the active backend; raises KeyError for unknown ones."""
    global _active_name
    if name not in _BACKENDS:
        raise KeyError(f"backend {name!r} not available; have {available()}")
    _active_name = name
