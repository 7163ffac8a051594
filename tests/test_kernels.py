import math
import random

import pytest

from lanempc import kernels
from lanempc.optimize import fd_gradient

TABLE = dict(m=2000.0, iz=1300.0, lf=1.2, lr=1.05, caf=12000.0, car=12000.0,
             rw=0.3)

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


class TestFusedMatchesComposition:
    @pytest.mark.parametrize("backend", ["python"])
    def test_horizon_cost_equals_predict_plus_cost(self, backend):
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


class TestGaussNewton:
    def test_cost_equals_horizon_cost_bitwise(self):
        mod = kernels.active()
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(31), 240)):
            cost, grad, hess = mod.horizon_cost_gn(*args)
            assert cost == mod.horizon_cost(*args), f"trial {trial}"
            assert len(grad) == len(hess) == len(args[6])

    def test_gradient_matches_adjoint(self):
        mod = kernels.active()
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(53), 240)):
            _, adjoint = mod.horizon_cost_grad(*args)
            _, grad, _ = mod.horizon_cost_gn(*args)
            for j, (a, b) in enumerate(zip(grad, adjoint)):
                assert abs(a - b) <= 1e-9 * (abs(a) + abs(b)), \
                    f"trial {trial}, coordinate {j}: {a!r} vs {b!r}"

    def test_jacobians_match_finite_differences(self):
        mod = kernels.active()
        for trial, (controls, args) in enumerate(
                _variant_cases(random.Random(61), 80)):
            chain = args[:16]
            xa, _, _, jac_x, jac_y, jac_r = mod.predict_jacobians(*chain)
            for k in range(len(controls)):
                h = 1e-6 * _SPANS[k % 2]
                plus, minus = list(controls), list(controls)
                plus[k] += h
                minus[k] -= h
                hi = mod.predict_steps(*chain[:6], plus, *chain[7:])
                lo = mod.predict_steps(*chain[:6], minus, *chain[7:])
                for jac, col in ((jac_x, 0), (jac_y, 1), (jac_r, 4)):
                    for i in range(len(xa)):
                        fd = (hi[col][i] - lo[col][i]) / (2.0 * h)
                        a = jac[i][k]
                        # rounding of x, y ~ 100 m over h dominates
                        assert abs(a - fd) <= 1e-5 * (abs(a) + abs(fd)) \
                            + 1e-7, f"trial {trial}, step {i}, control {k}"

    def test_hessian_symmetric_positive_semidefinite(self):
        mod = kernels.active()
        rng = random.Random(71)
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(67), 240)):
            _, _, hess = mod.horizon_cost_gn(*args)
            n = len(hess)
            scale = max(abs(v) for row in hess for v in row)
            for a in range(n):
                assert all(hess[a][b] == hess[b][a] for b in range(n))
            for _ in range(20):
                v = [rng.gauss(0.0, 1.0) for _ in range(n)]
                quad = sum(v[a] * hess[a][b] * v[b]
                           for a in range(n) for b in range(n))
                assert quad >= -1e-12 * scale * sum(x * x for x in v), \
                    f"trial {trial}"

    def test_hessian_is_cost_curvature_along_the_linearised_chain(self):
        # Without obstacle terms the Gauss-Newton Hessian is exactly the
        # second derivative of trajectory_cost at the predicted points
        # moved along the chain's Jacobian: v'Hv = d2/dt2 J(P + t Jv).
        # Each obstacle term adds its radial curvature 20w/q^4 (Δ'Jv)^2.
        mod = kernels.active()
        rng = random.Random(73)
        for trial, (_, args) in enumerate(
                _variant_cases(random.Random(79), 120)):
            xa, ya, rs, jac_x, jac_y, jac_r = mod.predict_jacobians(
                *args[:16])
            n = len(xa)
            refs, y_upper, y_lower, a1, b1, b2, b3, diff, obs, ow = args[16:]
            _, _, hess = mod.horizon_cost_gn(*args[:-2], (), 0.0)
            _, _, hess_obs = mod.horizon_cost_gn(*args)

            def along(t, v):
                move = [[p + t * sum(row[k] * v[k] for k in range(2 * n))
                         for p, row in zip(vals, jac)]
                        for vals, jac in ((xa, jac_x), (ya, jac_y),
                                          (rs, jac_r))]
                return mod.trajectory_cost(
                    move[0], move[1], move[2], args[2], 0.1, refs,
                    move[0], (y_upper,) * n, move[0], (y_lower,) * n,
                    a1, b1, b2, b3, diff, (), 0.0)

            for _ in range(3):
                v = [rng.gauss(0.0, 1.0) * _SPANS[k % 2] * 1e-3
                     for k in range(2 * n)]
                h = 1e-2
                fd = (along(h, v) - 2.0 * along(0.0, v) + along(-h, v)) / h ** 2
                quad = sum(v[a] * hess[a][b] * v[b]
                           for a in range(2 * n) for b in range(2 * n))
                assert quad == pytest.approx(fd, rel=1e-4, abs=1e-9), \
                    f"trial {trial}"
                radial = 0.0
                for i in range(n):
                    mx = sum(jac_x[i][k] * v[k] for k in range(2 * n))
                    my = sum(jac_y[i][k] * v[k] for k in range(2 * n))
                    for o in range(0, len(obs), 2):
                        dx, dy = xa[i] - obs[o], ya[i] - obs[o + 1]
                        q = dx * dx + dy * dy
                        radial += 20.0 * ow / q ** 4 * (dx * mx + dy * my) ** 2
                quad_obs = sum(v[a] * hess_obs[a][b] * v[b]
                               for a in range(2 * n) for b in range(2 * n))
                assert quad_obs - quad == pytest.approx(radial, rel=1e-6,
                                                        abs=1e-15)

    def test_infinite_where_horizon_cost_is(self):
        mod = kernels.active()
        refs = (1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
        cases = [_cost_args(state, [0.0, -160.0] * 3, refs)
                 for state in ((0.05, 0.0, 0.0, 0.0, 0.0, 0.0),
                               (0.15, 0.0, 0.0, 0.0, 0.0, 0.0))]
        on_path = ((10.0, 0.0, 0.0, 0.0, 1.0, 0.0), [0.0, 0.0] * 3,
                   (1.0, 1.0, 2.0, 1.0, 3.0, 1.0))
        cases.append(_cost_args(*on_path, y_upper=1.0))
        cases.append(_cost_args(*on_path, obs=(2.0, 1.0), ow=0.5))
        cases.append(_over_long_horizon_args())
        for args in cases:
            assert mod.horizon_cost(*args) == math.inf
            assert mod.horizon_cost_gn(*args) == (math.inf, None, None)
        # the chain itself fails only on the speed floor and the cap
        assert mod.predict_jacobians(*cases[0][:16]) is None
        assert mod.predict_jacobians(*cases[-1][:16]) is None


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
