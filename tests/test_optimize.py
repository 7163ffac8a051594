import math
import random

import pytest

from lanempc.optimize import BoxResult, fd_gradient, minimize_box


def quadratic(centre):
    def fg(x):
        value = sum((xi - ci) ** 2 for xi, ci in zip(x, centre))
        return value, [2.0 * (xi - ci) for xi, ci in zip(x, centre)]
    return fg


def projected_gradient(fg, x, lower, upper):
    """Largest span-scaled projected-gradient entry at x."""
    _, g = fg(list(x))
    worst = 0.0
    for xj, gj, lo, hi in zip(x, g, lower, upper):
        if (xj == lo and gj > 0.0) or (xj == hi and gj < 0.0):
            continue
        worst = max(worst, abs(gj) * (hi - lo))
    return worst


class TestMinimizeBox:
    def test_interior_quadratic(self):
        res = minimize_box(quadratic([0.3, -1.2, 4.0]),
                           [-5.0, -5.0, -5.0], [5.0, 5.0, 5.0],
                           [0.0, 0.0, 0.0])
        for got, want in zip(res.x, (0.3, -1.2, 4.0)):
            assert got == pytest.approx(want, abs=1e-9)
        assert res.converged
        # BFGS on a quadratic needs few steps.
        assert res.n_eval <= 25

    def test_exterior_centre_projects_onto_box(self):
        res = minimize_box(quadratic([9.0, -7.0]), [-2.0, -2.0], [2.0, 2.0],
                           [0.0, 0.0])
        assert res.x == (2.0, -2.0)
        assert res.converged

    def test_constant_function_returns_start(self):
        res = minimize_box(lambda x: (7.5, [0.0]), [-1.0], [1.0], [0.25])
        assert res.x == (0.25,)
        assert res.fun == 7.5
        assert res.converged and res.iterations == 0 and res.n_eval == 1

    def test_start_outside_box_is_clipped(self):
        res = minimize_box(quadratic([0.0]), [-1.0], [1.0], [12.0])
        assert -1.0 <= res.x[0] <= 1.0
        assert res.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_improvement(self):
        rng = random.Random(3)
        lower, upper = [-2.0] * 4, [2.0] * 4
        for _ in range(25):
            centre = [rng.uniform(-3, 3) for _ in range(4)]
            x0 = [rng.uniform(-2, 2) for _ in range(4)]

            def fg(x):
                base = sum((xi - ci) ** 2 for xi, ci in zip(x, centre))
                wave = 0.3 * math.sin(3.0 * x[0]) * math.cos(2.0 * x[1])
                g = [2.0 * (xi - ci) for xi, ci in zip(x, centre)]
                g[0] += 0.9 * math.cos(3.0 * x[0]) * math.cos(2.0 * x[1])
                g[1] -= 0.6 * math.sin(3.0 * x[0]) * math.sin(2.0 * x[1])
                return base + wave, g

            res = minimize_box(fg, lower, upper, x0)
            assert res.fun <= fg([min(2.0, max(-2.0, v)) for v in x0])[0]
            for v in res.x:
                assert -2.0 <= v <= 2.0  # exact feasibility
            # converged means exactly: the stated stationarity test passes
            stationary = (projected_gradient(fg, res.x, lower, upper)
                          <= 1e-9 * (1.0 + abs(res.fun)))
            assert res.converged == stationary
            assert res.converged

    def test_nonfinite_start_returns_unconverged(self):
        res = minimize_box(lambda x: (math.inf, None), [0.0], [1.0], [0.5])
        assert not res.converged
        assert res.fun == math.inf
        assert res.n_eval == 1

    def test_iteration_cap_reported(self):
        res = minimize_box(quadratic([0.9]), [-1.0], [1.0], [-0.9],
                           max_iter=0)
        assert isinstance(res, BoxResult)
        assert not res.converged
        assert res.iterations == 0 and res.x == (-0.9,)

    def test_determinism(self):
        def fg(x):
            return ((x[0] - 0.4) ** 2 + 0.05 * x[1] ** 4,
                    [2.0 * (x[0] - 0.4), 0.2 * x[1] ** 3])

        a = minimize_box(fg, [-1.0, -1.0], [1.0, 1.0], [0.9, 0.9])
        b = minimize_box(fg, [-1.0, -1.0], [1.0, 1.0], [0.9, 0.9])
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minimize_box(quadratic([0.0]), [0.0, 1.0], [1.0], [0.5])

    def test_mixed_scale_box(self):
        # coordinates spanning 1.5 and 360 units, like steering vs torque
        def fg(x):
            return ((x[0] - 0.1) ** 2 + ((x[1] - 50.0) / 100.0) ** 2,
                    [2.0 * (x[0] - 0.1), 2.0 * (x[1] - 50.0) / 1e4])

        res = minimize_box(fg, [-0.785, -160.0], [0.785, 200.0], [0.0, 0.0])
        assert res.x[0] == pytest.approx(0.1, abs=1e-6)
        assert res.x[1] == pytest.approx(50.0, abs=1e-3)
        assert res.converged

    def test_rejected_region_is_avoided(self):
        # +inf beyond x = 0.5 (like the predictor's speed floor): the line
        # search backs off and the solver settles on the finite side.
        def fg(x):
            if x[0] > 0.5:
                return math.inf, None
            return (x[0] - 2.0) ** 2, [2.0 * (x[0] - 2.0)]

        res = minimize_box(fg, [-1.0], [3.0], [0.0])
        assert res.x[0] <= 0.5 and math.isfinite(res.fun)
        assert res.fun < fg([0.0])[0]

    def test_zero_span_coordinate_stays_fixed(self):
        res = minimize_box(quadratic([0.3, 0.7]), [0.0, 0.25], [1.0, 0.25],
                           [0.5, 0.25])
        assert res.x[1] == 0.25
        assert res.x[0] == pytest.approx(0.3, abs=1e-9)
        assert res.converged

    def test_never_above_start_at_rounding_level(self):
        # Values that differ only by rounding are judged by the gradient;
        # a walk that ends one ulp above the start returns the start.
        def fg(x):
            return (1.0 if x[0] == 0.0 else 1.0 + 2.0 ** -52), [1e-3]

        res = minimize_box(fg, [-1.0], [1.0], [0.0])
        assert res.x == (0.0,) and res.fun == 1.0
        assert not res.converged


class TestInitialCurvature:
    """minimize_box seeded with a Hessian through ``fgh``."""

    @staticmethod
    def coupled(centre, hess):
        # f(x) = (x - c)' A (x - c) / 2 with a dense A
        def fg(x):
            d = [xi - ci for xi, ci in zip(x, centre)]
            g = [sum(a * dj for a, dj in zip(row, d)) for row in hess]
            return 0.5 * sum(gi * di for gi, di in zip(g, d)), g

        def fgh(x):
            value, g = fg(x)
            return value, g, [list(row) for row in hess]
        return fg, fgh

    def test_exact_hessian_converges_in_one_step(self):
        hess = [[4.0, 1.0, 0.5], [1.0, 3.0, -0.4], [0.5, -0.4, 2.0]]
        fg, fgh = self.coupled([0.3, -0.2, 0.1], hess)
        res = minimize_box(fg, [-1.0] * 3, [1.0] * 3, [0.0] * 3, fgh=fgh)
        assert res.converged
        assert res.iterations == 1 and res.n_eval == 2
        for got, want in zip(res.x, (0.3, -0.2, 0.1)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_active_bound_uses_free_block(self):
        # The unconstrained minimum (0.3, 1.5) lies beyond x1's bound: the
        # first Newton step is projected onto (0.3, 1).  With x1 held
        # there, the free block's Newton step solves 4 x0 + 1 = 4 * 0.3 +
        # 1.5 for x0 = 0.425 in one more step.
        hess = [[4.0, 1.0], [1.0, 3.0]]
        fg, fgh = self.coupled([0.3, 1.5], hess)
        lower, upper = [-1.0, -1.0], [1.0, 1.0]
        res = minimize_box(fg, lower, upper, [0.0, 0.0], fgh=fgh)
        assert res.converged
        assert res.x[1] == 1.0
        assert res.x[0] == pytest.approx(0.425, abs=1e-12)
        assert res.iterations == 2
        plain = minimize_box(fg, lower, upper, [0.0, 0.0])
        assert plain.converged and plain.x[1] == 1.0
        assert plain.x[0] == pytest.approx(0.425, abs=1e-9)
        assert res.n_eval < plain.n_eval

    def test_singular_curvature_falls_back_to_steepest_descent(self):
        # A zero Hessian has no Cholesky factor: B restarts at the identity.
        fg = quadratic([0.2, -0.3])

        def fgh(x):
            value, g = fg(x)
            return value, g, [[0.0, 0.0], [0.0, 0.0]]

        res = minimize_box(fg, [-1.0, -1.0], [1.0, 1.0], [0.0, 0.0],
                           fgh=fgh)
        assert res.converged
        assert res.x == pytest.approx((0.2, -0.3), abs=1e-9)

    def test_nonfinite_start_with_curvature(self):
        res = minimize_box(quadratic([0.0]), [0.0], [1.0], [0.5],
                           fgh=lambda x: (math.inf, None, None))
        assert not res.converged and res.fun == math.inf
        assert res.n_eval == 1 and res.iterations == 0


class TestFdGradient:
    def test_matches_analytic_on_cubic(self):
        def f(x):
            return x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2

        x = [0.7, -0.4]
        g = fd_gradient(f, x, [1e-6, 1e-6])
        assert g[0] == pytest.approx(3 * 0.49 + 2 * -0.4, rel=1e-6)
        assert g[1] == pytest.approx(2 * 0.7 + 2 * -0.4, rel=1e-6)

    def test_zero_step_coordinate_skipped(self):
        g = fd_gradient(lambda x: x[0] ** 2, [1.0, 5.0], [1e-6, 0.0])
        assert g[1] == 0.0
