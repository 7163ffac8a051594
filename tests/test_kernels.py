import math
import random

import pytest

from lanempc import _core_py, kernels

from fd_reference import fd_gradient
from loop_reference import _chain, _cost_partials
from loop_reference import horizon_cost_grad as loop_cost_grad

TABLE = dict(m=2000.0, iz=1300.0, lf=1.2, lr=1.05, caf=12000.0, car=12000.0,
             rw=0.3)


def _cost_args(state, controls, refs, diff_mode=1, obs=(), ow=0.0,
               yaw_div_m=False, y_upper=5.25, b1=0.001, b3=0.01,
               y_lower=-1.75):
    return (*state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
            TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"], 0.1,
            yaw_div_m, refs, y_upper, y_lower, 1.0, b1, 0.001, b3,
            diff_mode, obs, ow)


def _variant_cases(rng, count):
    """Random cost arguments over every diff mode, both yaw divisors and
    obstacle repulsion on and off; references and obstacles sit near the
    predicted path, where the cost and its slopes are of moderate size."""
    for trial in range(count):
        n = rng.choice([1, 2, 3, 5])
        state = (rng.uniform(8, 12), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.2, 0.2), rng.uniform(0, 100),
                 rng.uniform(-1, 4), rng.uniform(-0.2, 0.2))
        controls = [rng.uniform(-0.3, 0.3) if i % 2 == 0
                    else rng.uniform(-100, 150) for i in range(2 * n)]
        yaw_div_m = trial % 2 == 1
        diff = trial % 3
        xa, ya = _chain(
            *state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
            TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"], 0.1,
            yaw_div_m)[:2]
        refs = tuple(v + rng.uniform(-1, 1) for xy in zip(xa, ya) for v in xy)
        if trial % 4 < 2:
            obs = (xa[-1] + rng.uniform(2, 6), ya[-1] + rng.uniform(-3, 3),
                   xa[0] - rng.uniform(2, 6), ya[0] + rng.uniform(-3, 3))
            ow = 0.2
        else:
            obs, ow = (), 0.0
        yield controls, _cost_args(state, controls, refs, diff, obs, ow,
                                   yaw_div_m)


def _generated_cases(rng):
    """Random cost arguments at horizons 1 to 64, over each difference
    rule, both yaw divisors, b1 and b3 both zero and both nonzero, and
    obstacle repulsion on and off.  The upper boundary sometimes passes
    through a predicted point, so some cases score +inf."""
    for n in (1, 2, 3, 8, 12, 64):
        for variant in range(24):
            diff = variant % 3
            yaw_div_m = variant // 3 % 2 == 1
            b1, b3 = (0.001, 0.01) if variant // 6 % 2 else (0.0, 0.0)
            obstacles = variant // 12 == 1
            for _ in range(8 if n < 64 else 2):
                state = (rng.uniform(8, 12), rng.uniform(-0.5, 0.5),
                         rng.uniform(-0.2, 0.2), rng.uniform(0, 100),
                         rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
                controls = [rng.uniform(-0.3, 0.3) if i % 2 == 0
                            else rng.uniform(-160, 200) for i in range(2 * n)]
                xa, ya = _chain(
                    *state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
                    TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"],
                    0.1, yaw_div_m)[:2]
                refs = tuple(v + rng.uniform(-1, 1)
                             for xy in zip(xa, ya) for v in xy)
                y_upper = rng.choice((5.25, max(ya) + 0.2, ya[n // 2]))
                obs = (xa[-1] + rng.uniform(2, 6), ya[-1] + rng.uniform(-3, 3),
                       xa[0] - rng.uniform(2, 6), ya[0]) if obstacles else ()
                yield _cost_args(state, controls, refs, diff, obs,
                                 0.2 if obstacles else 0.0, yaw_div_m,
                                 y_upper, b1, b3)


# The ways a horizon scores +inf, by name: (state, one step's controls,
# _cost_args keywords).  Straight ahead at 10 m/s from x = 0, the first
# predicted point is (1, y).
_INF_PATHS = {
    "start_below_speed_floor": ((0.05, 0.0, 0.0, 0.0, 0.0, 0.0),
                                (0.0, 0.0), {}),
    "mid_chain_below_speed_floor": ((0.15, 0.0, 0.0, 0.0, 0.0, 0.0),
                                    (0.0, -160.0), {}),
    "on_upper_boundary": ((10.0, 0.0, 0.0, 0.0, 1.0, 0.0), (0.0, 0.0),
                          {"y_upper": 1.0}),
    "on_lower_boundary": ((10.0, 0.0, 0.0, 0.0, -1.75, 0.0), (0.0, 0.0),
                          {}),
    "on_obstacle_centre": ((10.0, 0.0, 0.0, 0.0, 1.0, 0.0), (0.0, 0.0),
                           {"obs": (1.0, 1.0), "ow": 0.5}),
    # The squared gap to the line or the centre underflows to 0.0.
    "upper_gap_underflows": ((10.0, 0.0, 0.0, 0.0, -1e-170, 0.0),
                             (0.0, 0.0), {"y_upper": 0.0}),
    "lower_gap_underflows": ((10.0, 0.0, 0.0, 0.0, 1e-170, 0.0),
                             (0.0, 0.0), {"y_lower": 0.0}),
    "obstacle_gap_underflows": ((10.0, 0.0, 0.0, 0.0, 1e-170, 0.0),
                                (0.0, 0.0), {"obs": (1.0, 0.0), "ow": 0.5}),
    "infinite_heading": ((10.0, 0.0, 0.0, 0.0, 0.0, math.inf), (0.0, 0.0),
                         {}),
}

_SPANS = (2 * 0.785, 360.0)


class TestBackendSelection:
    def test_python_backend_always_available(self):
        assert "python" in kernels.available()

    def test_active_is_module_with_kernels(self):
        mod = kernels.active()
        assert callable(mod.horizon_cost)
        assert callable(mod.horizon_cost_grad)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            kernels.get("fortran")


class TestCostGradient:
    def test_cost_equals_horizon_cost_bitwise(self):
        # horizon_cost against the loop reference's cost.
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(31), 240)):
            want = loop_cost_grad(*args)[0]
            assert repr(_core_py.horizon_cost(*args)) == repr(want), \
                f"trial {trial}"
            assert len(_core_py.horizon_cost_grad(*args)[1]) == len(args[6])

    def test_gradient_matches_finite_differences(self):
        mod = kernels.active()
        for trial, (controls, args) in enumerate(
                _variant_cases(random.Random(47), 120)):
            _, grad = mod.horizon_cost_grad(*args)

            def f(z, args=args):
                return mod.horizon_cost(*args[:6], list(z), *args[7:])

            steps = [1e-6 * _SPANS[j % 2] for j in range(len(controls))]
            fd = fd_gradient(f, controls, steps)
            for j, (a, b) in enumerate(zip(grad, fd)):
                assert abs(a - b) <= 1e-3 * (abs(a) + abs(b)) + 1e-9, \
                    f"trial {trial}, coordinate {j}: {a!r} vs {b!r}"

    def test_infinite_at_speed_floor(self):
        mod = kernels.active()
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
        # below the floor at the start, and crossing it inside the chain
        for state in ((0.05, 0.0, 0.0, 0.0, 0.0, 0.0),
                      (0.15, 0.0, 0.0, 0.0, 0.0, 0.0)):
            args = _cost_args(state, [0.0, -160.0] * 3, refs)
            assert mod.horizon_cost(*args) == math.inf
            assert mod.horizon_cost_grad(*args) == (math.inf, None)

    def test_infinite_on_boundary(self):
        mod = kernels.active()
        state = (10.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        controls = [0.0, 0.0] * 3
        refs = (1.0, 1.0, 2.0, 1.0, 3.0, 1.0)
        # straight ahead at y = 1: put the upper boundary on the path
        args = _cost_args(state, controls, refs, y_upper=1.0)
        assert mod.horizon_cost(*args) == math.inf
        assert mod.horizon_cost_grad(*args) == (math.inf, None)
        # and an obstacle centre on the second predicted point
        args = _cost_args(state, controls, refs, obs=(2.0, 1.0), ow=0.5)
        assert mod.horizon_cost(*args) == math.inf
        assert mod.horizon_cost_grad(*args) == (math.inf, None)


class TestGeneratedKernel:
    """horizon_cost_grad runs straight-line code generated per horizon and
    term set; it equals the loop form (tests/loop_reference.py) bit for
    bit."""

    def test_matches_loop_bitwise(self):
        outcomes = set()
        for trial, args in enumerate(_generated_cases(random.Random(53))):
            got = _core_py.horizon_cost_grad(*args)
            assert repr(got) == repr(loop_cost_grad(*args)), f"trial {trial}"
            outcomes.add(got[1] is None)
        assert outcomes == {False, True}  # finite and +inf cases both ran

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("path", sorted(_INF_PATHS))
    def test_every_infinite_path(self, path, n):
        state, step, kw = _INF_PATHS[path]
        y = state[4]
        refs = tuple(v for i in range(n) for v in (i + 1.0, y))
        args = _cost_args(state, list(step) * n, refs, **kw)
        assert _core_py.horizon_cost(*args) == math.inf
        assert _core_py.horizon_cost_grad(*args) == (math.inf, None)
        assert loop_cost_grad(*args) == (math.inf, None)


class TestKernelContracts:
    def test_speed_floor_raises(self):
        with pytest.raises(ValueError):
            _chain(0.05, 0.0, 0.0, 0.0, 0.0, 0.0, [0.0, 0.0], TABLE["m"],
                   TABLE["iz"], TABLE["lf"], TABLE["lr"], TABLE["caf"],
                   TABLE["car"], TABLE["rw"], 0.1, False)

    def test_fused_returns_inf_on_floor(self):
        mod = kernels.active()
        state = (0.15, 0.0, 0.0, 0.0, 0.0, 0.0)
        controls = [0.0, -160.0] * 3
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
        assert mod.horizon_cost(*_cost_args(state, controls, refs)) == math.inf

    def test_infinite_beyond_either_boundary(self):
        # The road barrier is one-sided: a predicted point past a line
        # scores +inf in every kernel, not the small finite value the
        # reciprocal quartic takes on the far side.
        mod = kernels.active()
        controls = [0.0, 0.0] * 3
        # straight ahead at y: above the upper line at 0.5, then below the
        # lower line at -1.75
        for y, y_upper in ((1.0, 0.5), (-2.0, 5.25)):
            state = (10.0, 0.0, 0.0, 0.0, y, 0.0)
            refs = (1.0, y, 2.0, y, 3.0, y)
            args = _cost_args(state, controls, refs, y_upper=y_upper)
            assert mod.horizon_cost(*args) == math.inf
            assert mod.horizon_cost_grad(*args) == (math.inf, None)
            # and in the cost sum itself, where None stands for +inf
            ys = (y, y, y)
            assert _cost_partials(
                (1.0, 2.0, 3.0), ys, (0.0,) * 3, 0.0, 0.1, refs, y_upper,
                -1.75, 1.0, 0.001, 0.001, 0.01, 1, (), 0.0) is None
            # a zero weight turns its line's barrier off
            assert _cost_partials(
                (1.0, 2.0, 3.0), ys, (0.0,) * 3, 0.0, 0.1, refs, y_upper,
                -1.75, 1.0, 0.0, 0.0, 0.01, 1, (), 0.0)[0] == 0.0

    def test_diff_mode_variants(self):
        rs = (0.1, 0.3, 0.2)
        xa = (1.0, 2.0, 3.0)
        ya = (0.0, 0.0, 0.0)
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)

        def yaw_cost(diff_mode):
            return _cost_partials(xa, ya, rs, 0.0, 0.1, refs, 99.0, -99.0,
                                  0.0, 0.0, 0.0, 1.0, diff_mode, (), 0.0)[0]

        backward = ((0.1 / 0.1) ** 2 + (0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2)
        forward = ((0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2 + (-0.1 / 0.1) ** 2)
        centered = ((0.3 / 0.2) ** 2 + (0.1 / 0.2) ** 2 + (-0.1 / 0.1) ** 2)
        assert yaw_cost(0) == pytest.approx(backward, rel=1e-12)
        assert yaw_cost(1) == pytest.approx(forward, rel=1e-12)
        assert yaw_cost(2) == pytest.approx(centered, rel=1e-12)

    def test_obstacle_repulsion(self):
        # One point at (1, 0), on its reference, 2 m from an obstacle centre
        # at (1, 2): only the repulsion term scores, weight * (1 / d^2)^2.
        got = _cost_partials((1.0,), (0.0,), (0.0,), 0.0, 0.1, (1.0, 0.0),
                             99.0, -99.0, 0.0, 0.0, 0.0, 0.0, 1, (1.0, 2.0),
                             0.5)[0]
        assert got == pytest.approx(0.5 * (1.0 / 4.0) ** 2, rel=1e-12)
