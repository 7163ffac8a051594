import math
import random

import pytest

from lanempc import kernels
from lanempc.optimize import fd_gradient

TABLE = dict(m=2000.0, iz=1300.0, lf=1.2, lr=1.05, caf=12000.0, car=12000.0,
             rw=0.3)

needs_compiled = pytest.mark.skipif(
    "compiled" not in kernels.available(),
    reason="compiled backend not built")


def _random_case(rng, n):
    state = (rng.uniform(5, 15), rng.uniform(-1.5, 1.5),
             rng.uniform(-0.8, 0.8), rng.uniform(-10, 120),
             rng.uniform(-1.5, 5.0), rng.uniform(-0.4, 0.4))
    controls = [rng.uniform(-0.785, 0.785) if i % 2 == 0
                else rng.uniform(-160, 200) for i in range(2 * n)]
    refs = tuple(rng.uniform(-10, 130) for _ in range(2 * n))
    return state, controls, refs


def _cost_args(state, controls, refs, diff_mode=1, obs=(), ow=0.0,
               yaw_div_m=False, y_upper=5.25):
    return (*state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
            TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"], 0.1,
            yaw_div_m, refs, y_upper, -1.75, 1.0, 0.001, 0.001, 0.01,
            diff_mode, obs, ow)


def _over_long_horizon_args():
    """Cost arguments for a horizon one step past MAX_STEPS."""
    n = kernels.MAX_STEPS + 1
    refs = tuple(v for i in range(1, n + 1) for v in (float(i), 0.0))
    return _cost_args((10.0, 0.0, 0.0, 0.0, 0.0, 0.0), [0.0, 0.0] * n, refs)


def _variant_cases(rng, count):
    """Random cost arguments over every diff mode, both yaw divisors and
    obstacle repulsion on and off; references and obstacles sit near the
    predicted path, where the cost and its slopes are of moderate size."""
    mod = kernels.get("python")
    for trial in range(count):
        n = rng.choice([1, 2, 3, 5])
        state = (rng.uniform(8, 12), rng.uniform(-0.5, 0.5),
                 rng.uniform(-0.2, 0.2), rng.uniform(0, 100),
                 rng.uniform(-1, 4), rng.uniform(-0.2, 0.2))
        controls = [rng.uniform(-0.3, 0.3) if i % 2 == 0
                    else rng.uniform(-100, 150) for i in range(2 * n)]
        yaw_div_m = trial % 2 == 1
        diff = trial % 3
        xa, ya = mod.predict_steps(
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


_SPANS = (2 * 0.785, 360.0)


class TestBackendSelection:
    def test_python_backend_always_available(self):
        assert "python" in kernels.available()

    def test_active_is_module_with_kernels(self):
        mod = kernels.active()
        assert callable(mod.predict_steps)
        assert callable(mod.horizon_cost)
        assert callable(mod.horizon_cost_grad)
        assert callable(mod.trajectory_cost)

    def test_switching(self):
        before = kernels.backend_name()
        try:
            for name in kernels.available():
                kernels.use(name)
                assert kernels.backend_name() == name
        finally:
            kernels.use(before)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            kernels.use("fortran")


@needs_compiled
class TestBackendParity:
    def test_bitwise_identical_costs(self):
        comp = kernels.get("compiled")
        pure = kernels.get("python")
        rng = random.Random(101)
        for trial in range(400):
            n = rng.choice([1, 2, 3, 5])
            state, controls, refs = _random_case(rng, n)
            diff = rng.choice([0, 1, 2])
            obs = tuple(rng.uniform(0, 100) for _ in range(4)) \
                if rng.random() < 0.3 else ()
            ow = 0.2 if obs else 0.0
            args = _cost_args(state, controls, refs, diff, obs, ow)
            a = comp.horizon_cost(*args)
            b = pure.horizon_cost(*args)
            assert a == b, f"trial {trial}: {a!r} != {b!r}"

    def test_bitwise_identical_cost_gradients(self):
        comp = kernels.get("compiled")
        pure = kernels.get("python")
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(202), 200)):
            assert comp.horizon_cost_grad(*args) == \
                pure.horizon_cost_grad(*args), f"trial {trial}"

    def test_bitwise_identical_predictions(self):
        comp = kernels.get("compiled")
        pure = kernels.get("python")
        rng = random.Random(77)
        for _ in range(200):
            n = rng.choice([1, 3])
            state, controls, _ = _random_case(rng, n)
            args = (*state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
                    TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"],
                    0.1, False)
            assert comp.predict_steps(*args) == pure.predict_steps(*args)

    def test_over_long_horizon_is_infinite(self):
        args = _over_long_horizon_args()
        for mod in (kernels.get("compiled"), kernels.get("python")):
            assert mod.horizon_cost(*args) == math.inf
            assert mod.horizon_cost_grad(*args) == (math.inf, None)


class TestFusedMatchesComposition:
    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_horizon_cost_equals_predict_plus_cost(self, backend):
        if backend not in kernels.available():
            pytest.skip("backend not built")
        mod = kernels.get(backend)
        rng = random.Random(5)
        for _ in range(100):
            n = rng.choice([1, 3])
            state, controls, refs = _random_case(rng, n)
            fused = mod.horizon_cost(*_cost_args(state, controls, refs))
            xa, ya, _, _, rs, _, _, _, _, _ = mod.predict_steps(
                *state, controls, TABLE["m"], TABLE["iz"], TABLE["lf"],
                TABLE["lr"], TABLE["caf"], TABLE["car"], TABLE["rw"],
                0.1, False)
            composed = mod.trajectory_cost(
                xa, ya, rs, state[2], 0.1, refs, xa, (5.25,) * n,
                xa, (-1.75,) * n, 1.0, 0.001, 0.001, 0.01, 1, (), 0.0)
            assert fused == composed


class TestCostGradient:
    def test_cost_equals_horizon_cost_bitwise(self):
        mod = kernels.active()
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(31), 240)):
            cost, grad = mod.horizon_cost_grad(*args)
            assert cost == mod.horizon_cost(*args), f"trial {trial}"
            assert len(grad) == len(args[6])

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


@needs_compiled
def test_closed_loop_runs_bitwise_identical_across_backends(params, cfg,
                                                            small_scenario):
    # Guards against compiler transformations (fused multiply-add, sincos
    # fusion) sneaking last-ulp differences into the compiled backend.
    from lanempc.harness import run
    before = kernels.backend_name()
    try:
        kernels.use("compiled")
        a = run(small_scenario, params, cfg)
        kernels.use("python")
        b = run(small_scenario, params, cfg)
    finally:
        kernels.use(before)
    assert a == b


class TestKernelContracts:
    def test_speed_floor_raises(self):
        mod = kernels.active()
        with pytest.raises(ValueError):
            mod.predict_steps(0.05, 0.0, 0.0, 0.0, 0.0, 0.0, [0.0, 0.0],
                              TABLE["m"], TABLE["iz"], TABLE["lf"],
                              TABLE["lr"], TABLE["caf"], TABLE["car"],
                              TABLE["rw"], 0.1, False)

    def test_horizon_cap(self):
        mod = kernels.active()
        controls = [0.0, 0.0] * (kernels.MAX_STEPS + 1)
        with pytest.raises(ValueError):
            mod.predict_steps(10.0, 0.0, 0.0, 0.0, 0.0, 0.0, controls,
                              TABLE["m"], TABLE["iz"], TABLE["lf"],
                              TABLE["lr"], TABLE["caf"], TABLE["car"],
                              TABLE["rw"], 0.1, False)

    def test_fused_returns_inf_past_horizon_cap(self):
        mod = kernels.get("python")
        args = _over_long_horizon_args()
        assert mod.horizon_cost(*args) == math.inf
        assert mod.horizon_cost_grad(*args) == (math.inf, None)

    def test_fused_returns_inf_on_floor(self):
        mod = kernels.active()
        state = (0.15, 0.0, 0.0, 0.0, 0.0, 0.0)
        controls = [0.0, -160.0] * 3
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
        assert mod.horizon_cost(*_cost_args(state, controls, refs)) == math.inf

    def test_diff_mode_variants(self):
        mod = kernels.active()
        rs = (0.1, 0.3, 0.2)
        xa = (1.0, 2.0, 3.0)
        ya = (0.0, 0.0, 0.0)
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)

        def yaw_cost(diff_mode):
            return mod.trajectory_cost(xa, ya, rs, 0.0, 0.1, refs,
                                       xa, (99.0,) * 3, xa, (-99.0,) * 3,
                                       0.0, 0.0, 0.0, 1.0, diff_mode, (), 0.0)

        backward = ((0.1 / 0.1) ** 2 + (0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2)
        forward = ((0.2 / 0.1) ** 2 + (-0.1 / 0.1) ** 2 + (-0.1 / 0.1) ** 2)
        centered = ((0.3 / 0.2) ** 2 + (0.1 / 0.2) ** 2 + (-0.1 / 0.1) ** 2)
        assert yaw_cost(0) == pytest.approx(backward, rel=1e-12)
        assert yaw_cost(1) == pytest.approx(forward, rel=1e-12)
        assert yaw_cost(2) == pytest.approx(centered, rel=1e-12)
