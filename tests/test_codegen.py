"""Code the package generates at run time belongs to the module that
generated it, and a traceback through it shows the failing line."""

import traceback

import pytest

from lanempc import _core_py, optimize

from test_kernels import _cost_args


def test_generated_functions_name_their_module():
    # Generate a kernel and an update, then check every one generated so
    # far in this process.
    state = (10.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    _core_py.horizon_cost_grad(*_cost_args(state, [0.0, 0.0], (1.0, 1.0)))
    optimize.minimize_box(lambda x: (x[0] * x[0], [2.0 * x[0]]), [-1.0],
                          [1.0], [0.5])
    caches = ((_core_py, _core_py._GRAD_KERNELS),
              (optimize, optimize._BFGS_UPDATES))
    for module, cache in caches:
        assert cache
        for key, fn in cache.items():
            assert fn.__module__ == module.__name__, key
            assert fn.__globals__["__name__"] == module.__name__, key
            assert repr(key) in fn.__code__.co_filename


def test_traceback_shows_the_generated_line():
    # Two steps' controls but one step's reference: the generated kernel
    # fails reading the second reference, and the traceback names its line.
    state = (10.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    args = _cost_args(state, [0.0, 0.0, 0.0, 0.0], (1.0, 1.0))
    with pytest.raises(IndexError) as info:
        _core_py.horizon_cost_grad(*args)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename.startswith("<lanempc._core_py.horizon_cost_grad (2,")
    assert frame.line == "ex = x1 - refs[2]"
