"""Kernel backend selection.

The prediction/cost kernels exist twice: a Cython extension
(lanempc._core) and a pure-Python fallback (lanempc._core_py) with
bit-identical arithmetic.  The compiled one is preferred when it imported
successfully; ``use()`` switches explicitly (the benchmark and the parity
tests exercise both in one process).  Setting LANEMPC_PURE_PY in the
environment before import starts on the Python backend (a developer knob,
mirroring the build-time switch in setup.py).
"""

import os

from . import _core_py

_BACKENDS = {"python": _core_py}

try:
    from . import _core

    _BACKENDS["compiled"] = _core
except ImportError:
    _core = None

if os.environ.get("LANEMPC_PURE_PY"):
    _active_name = "python"
else:
    _active_name = "compiled" if "compiled" in _BACKENDS else "python"

VX_FLOOR = _core_py.VX_FLOOR
MAX_STEPS = _core_py.MAX_STEPS


def available():
    """Names of the importable backends, preferred first."""
    return tuple(name for name in ("compiled", "python") if name in _BACKENDS)


def backend_name():
    return _active_name


def active():
    """The active backend module (exposes predict_steps / trajectory_cost /
    horizon_cost / horizon_cost_grad)."""
    return _BACKENDS[_active_name]


def get(name):
    """A backend module by name; raises KeyError for unknown/unbuilt ones."""
    return _BACKENDS[name]


def use(name):
    """Switch the active backend ("compiled" or "python")."""
    global _active_name
    if name not in _BACKENDS:
        raise KeyError(f"backend {name!r} not available; have {available()}")
    _active_name = name
