import math
import random

import pytest

from lanempc import optimize
from lanempc.optimize import BoxResult, minimize_box

from fd_reference import fd_gradient
from loop_reference import bfgs_update
from loop_reference import minimize_box as loop_minimize_box


def quadratic(centre):
    def fg(x):
        value = sum((xi - ci) ** 2 for xi, ci in zip(x, centre))
        return value, [2.0 * (xi - ci) for xi, ci in zip(x, centre)]
    return fg


def wavy_cases():
    """25 (fg, x0) pairs on the box [-2, 2]^4: a shifted quadratic plus a
    sine-cosine ripple, centres and starts drawn from random.Random(3)."""
    rng = random.Random(3)
    cases = []
    for _ in range(25):
        centre = [rng.uniform(-3, 3) for _ in range(4)]
        x0 = [rng.uniform(-2, 2) for _ in range(4)]

        def fg(x, centre=centre):
            base = sum((xi - ci) ** 2 for xi, ci in zip(x, centre))
            wave = 0.3 * math.sin(3.0 * x[0]) * math.cos(2.0 * x[1])
            g = [2.0 * (xi - ci) for xi, ci in zip(x, centre)]
            g[0] += 0.9 * math.cos(3.0 * x[0]) * math.cos(2.0 * x[1])
            g[1] -= 0.6 * math.sin(3.0 * x[0]) * math.sin(2.0 * x[1])
            return base + wave, g
        cases.append((fg, x0))
    return cases


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
        lower, upper = [-2.0] * 4, [2.0] * 4
        for fg, x0 in wavy_cases():
            res = minimize_box(fg, lower, upper, x0, tol=1e-8)
            assert res.fun <= fg([min(2.0, max(-2.0, v)) for v in x0])[0]
            for v in res.x:
                assert -2.0 <= v <= 2.0  # exact feasibility
            # converged means exactly: the stated stationarity test passes
            stationary = (projected_gradient(fg, res.x, lower, upper)
                          <= 1e-8 * (1.0 + abs(res.fun)))
            assert res.converged == stationary
            assert res.converged

    def test_tolerance_below_rounding_is_reported_unconverged(self):
        # At tol=1e-9 case 19 stops with a residual near 6e-9: no trial
        # value lowers f by Armijo's margin any more, and the stop says so.
        lower, upper = [-2.0] * 4, [2.0] * 4
        fg, x0 = wavy_cases()[19]
        res = minimize_box(fg, lower, upper, x0, tol=1e-9)
        assert res.stop == "line_search" and not res.converged
        assert res.fun <= fg([min(2.0, max(-2.0, v)) for v in x0])[0]
        assert res.residual == projected_gradient(fg, res.x, lower, upper)

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

    def test_zero_span_rejected_by_index(self):
        with pytest.raises(ValueError,
                           match=r"lower\[1\] must be < upper\[1\]"):
            minimize_box(quadratic([0.3, 0.7]), [0.0, 0.25], [1.0, 0.25],
                         [0.5, 0.25])

    @pytest.mark.parametrize("hessian", [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # 3x3 on 2
        [[1.0]],                                               # 1x1
        [[1.0, 0.0]],                                          # 1x2
        [[1.0, 0.0], [0.0]],                                   # ragged
    ])
    def test_misshaped_hessian_rejected(self, hessian):
        with pytest.raises(ValueError, match="hessian must be 2 rows of 2"):
            minimize_box(quadratic([0.3, 0.7]), [0.0, 0.0], [1.0, 1.0],
                         [0.5, 0.5], hessian=hessian)

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

    def test_never_above_start_at_rounding_level(self):
        # Every trial value is one ulp above the start although the
        # gradient promises a decrease: no step is accepted.
        def fg(x):
            return (1.0 if x[0] == 0.0 else 1.0 + 2.0 ** -52), [1e-3]

        res = minimize_box(fg, [-1.0], [1.0], [0.0])
        assert res.x == (0.0,) and res.fun == 1.0
        assert not res.converged
        assert res.stop == "line_search"


class TestStopReason:
    """BoxResult.stop and .residual, one case per stop reason."""

    def test_tolerance(self):
        lower, upper = [-5.0, -5.0], [5.0, 5.0]
        fg = quadratic([0.3, -1.2])
        res = minimize_box(fg, lower, upper, [0.0, 0.0])
        assert res.stop == "tolerance"
        assert res.converged == (res.stop == "tolerance")
        assert res.residual == projected_gradient(fg, res.x, lower, upper)
        assert res.residual <= 1e-9 * (1.0 + abs(res.fun))

    def test_iteration_cap(self):
        res = minimize_box(quadratic([0.9]), [-1.0], [1.0], [-0.9],
                           max_iter=0)
        assert res.stop == "iteration_cap"
        assert res.converged == (res.stop == "tolerance")
        # |2 (x - 0.9)| at x = -0.9, times the span 2
        assert res.residual == 3.6 * 2.0

    def test_line_search(self):
        # Every trial point is rejected: 40 halvings, then the start back.
        def fg(x):
            return (0.0, [1.0]) if x == [0.5] else (math.inf, None)

        res = minimize_box(fg, [0.0], [1.0], [0.5])
        assert res.stop == "line_search"
        assert res.converged == (res.stop == "tolerance")
        assert res.x == (0.5,) and res.iterations == 0 and res.n_eval == 41
        assert res.residual == 1.0

    def test_line_search_retries_from_the_identity(self):
        # The same function from a curvature estimate: 40 trials along the
        # quasi-Newton arc, then B resets to the identity for 40 more along
        # steepest descent before the solve gives up.
        def fg(x):
            return (0.0, [1.0]) if x == [0.5] else (math.inf, None)

        res = minimize_box(fg, [0.0], [1.0], [0.5], hessian=[[2.0]])
        assert res.stop == "line_search" and not res.converged
        assert res.x == (0.5,) and res.iterations == 0 and res.n_eval == 81
        assert res.hessian == ((1.0,),)

    @pytest.mark.parametrize("g", [[math.nan, math.nan], [math.nan, 0.0]])
    def test_nan_gradient_fails_the_tolerance_test(self, g):
        # A finite value with a NaN gradient (as an overflowing boundary
        # slope gives) is no optimum, whatever entries follow the NaN.
        res = minimize_box(lambda x: (3.0e237, list(g)), [-1.0, -1.0],
                           [1.0, 1.0], [0.0, 0.0])
        assert res.converged is False
        assert res.stop == "line_search" and res.n_eval == 1

    def test_nonfinite_start(self):
        res = minimize_box(lambda x: (math.inf, None), [0.0], [1.0], [0.5])
        assert res.stop == "nonfinite_start"
        assert res.converged == (res.stop == "tolerance")
        assert res.residual == math.inf


class TestInitialCurvature:
    """minimize_box seeded with a Hessian estimate through ``hessian``."""

    @staticmethod
    def coupled(centre, hess):
        # f(x) = (x - c)' A (x - c) / 2 with a dense A
        def fg(x):
            d = [xi - ci for xi, ci in zip(x, centre)]
            g = [sum(a * dj for a, dj in zip(row, d)) for row in hess]
            return 0.5 * sum(gi * di for gi, di in zip(g, d)), g
        return fg

    def test_exact_hessian_converges_in_one_step(self):
        hess = [[4.0, 1.0, 0.5], [1.0, 3.0, -0.4], [0.5, -0.4, 2.0]]
        fg = self.coupled([0.3, -0.2, 0.1], hess)
        res = minimize_box(fg, [-1.0] * 3, [1.0] * 3, [0.0] * 3,
                           hessian=hess)
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
        fg = self.coupled([0.3, 1.5], hess)
        lower, upper = [-1.0, -1.0], [1.0, 1.0]
        res = minimize_box(fg, lower, upper, [0.0, 0.0], hessian=hess)
        assert res.converged
        assert res.x[1] == 1.0
        assert res.x[0] == pytest.approx(0.425, abs=1e-12)
        assert res.iterations == 2
        plain = minimize_box(fg, lower, upper, [0.0, 0.0])
        assert plain.converged and plain.x[1] == 1.0
        assert plain.x[0] == pytest.approx(0.425, abs=1e-9)
        assert res.n_eval < plain.n_eval

    def test_singular_curvature_falls_back_to_steepest_descent(self):
        # Seeds with no Cholesky factor (singular, indefinite diagonal,
        # indefinite coupled): B restarts at the identity, and the solve is
        # the one from no seed at all, to the last bit.
        for seed in ([[0.0, 0.0], [0.0, 0.0]], [[-1.0, 0.0], [0.0, 1.0]],
                     [[1.0, 2.0], [2.0, 1.0]]):
            res = minimize_box(quadratic([0.2, -0.3]), [-1.0, -1.0],
                               [1.0, 1.0], [0.0, 0.0], hessian=seed)
            assert res.converged
            assert res.x == pytest.approx((0.2, -0.3), abs=1e-9)
            assert res.n_eval == 5 and res.iterations == 2
            assert res.hessian == (
                (0.7884615384615379, -0.8076923076923074),
                (-0.8076923076923074, 1.4615384615384621))

    def test_nonfinite_start_with_curvature(self):
        # The estimate comes back unchanged: nothing was learned.
        hess = ((2.0,),)
        res = minimize_box(lambda x: (math.inf, None), [0.0], [1.0], [0.5],
                           hessian=hess)
        assert not res.converged and res.fun == math.inf
        assert res.n_eval == 1 and res.iterations == 0
        assert res.hessian is hess

    def test_final_estimate_seeds_the_next_solve_in_one_step(self):
        # Unequal spans: the result is B unscaled back into x units.  On a
        # quadratic the BFGS update keeps an exact B exact (B s = y), so
        # the estimate fed back solves the next problem in one step.
        hess = [[4.0, 1.0, 0.5], [1.0, 3.0, -0.4], [0.5, -0.4, 2.0]]
        fg = self.coupled([0.3, -0.2, 1.1], hess)
        lower, upper = [-1.0, -0.5, 0.0], [1.0, 2.0, 10.0]
        first = minimize_box(fg, lower, upper, [0.0, 0.0, 0.0], hessian=hess)
        assert first.converged
        for got, want in zip(first.hessian, hess):
            assert got == pytest.approx(want, rel=1e-12)
        again = minimize_box(fg, lower, upper, [0.9, 1.5, 7.0],
                             hessian=first.hessian)
        assert again.converged
        assert again.iterations == 1 and again.n_eval == 2
        for got, want in zip(again.x, (0.3, -0.2, 1.1)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_asymmetric_seed_acts_as_its_symmetric_part(self):
        # B starts from (h + h') / 2, so both seeds give the same result,
        # with a bound active on the way.
        hess = [[4.0, 1.3, 0.2], [0.7, 3.0, -0.9], [0.6, 0.1, 2.0]]
        sym = [[0.5 * (hess[a][b] + hess[b][a]) for b in range(3)]
               for a in range(3)]
        fg = self.coupled([0.3, 1.5, -0.4], sym)
        lower, upper = [-1.0, -1.0, -2.0], [1.0, 1.0, 2.0]
        res = minimize_box(fg, lower, upper, [0.0, 0.0, 0.0], hessian=hess)
        assert res == minimize_box(fg, lower, upper, [0.0, 0.0, 0.0],
                                   hessian=sym)
        assert res.converged and res.x[1] == 1.0


class TestGeneratedUpdate:
    """The straight-line BFGS update minimize_box generates for each size
    equals the loop form (tests/loop_reference.py) bit for bit."""

    @staticmethod
    def problem(rng, n, definite):
        # A symmetric B (positive definite, or negative definite so that
        # s'Bs <= 0), a step s and a gradient change y with s'y > 0.
        m = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        sign = 1.0 if definite else -1.0
        b_mat = [[sign * (sum(m[a][k] * m[b][k] for k in range(n))
                          + (a == b)) for b in range(n)] for a in range(n)]
        s = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        y = [v + rng.uniform(-0.5, 0.5) * abs(v) for v in s]
        return b_mat, s, y, sum(p * q for p, q in zip(s, y))

    @pytest.mark.parametrize("n", [1, 2, 6, 16, 128])
    def test_matches_loop_bitwise(self, n):
        # Every fourth B is negative definite: s'Bs <= 0, and both forms
        # skip the update and leave B as it was.
        rng = random.Random(n)
        update = optimize._bfgs_update(n)
        for trial in range(12 if n < 128 else 4):
            skip = trial % 4 == 3
            b_mat, s, y, sy = self.problem(rng, n, not skip)
            before = repr(b_mat)
            want = bfgs_update(b_mat, s, y, sy)
            got = update(b_mat, s, y, sy)
            assert repr(got) == repr(want), f"trial {trial}"
            assert (got is b_mat and repr(got) == before) == skip


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


class TestGeneratedSolver:
    """The straight-line solver minimize_box generates for each size n
    returns the loop form's BoxResult (tests/loop_reference.py), equal by
    repr: every iterate, count, stop reason and curvature estimate."""

    @staticmethod
    def dense(rng, n):
        # A symmetric positive definite matrix with a dense coupling.
        m = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        return [[sum(m[a][k] * m[b][k] for k in range(n)) / n + (a == b)
                 for b in range(n)] for a in range(n)]

    @classmethod
    def cases(cls, n):
        """(name, fg, lower, upper, x0, keyword arguments) per behaviour,
        on unequal spans; n = 128 keeps to a few iterations."""
        rng = random.Random(n)
        lower = [-rng.uniform(0.5, 2.0) for _ in range(n)]
        upper = [rng.uniform(0.5, 300.0) for _ in range(n)]
        x0 = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        cap = 4 if n > 16 else 40
        hess = cls.dense(rng, n)
        # Every third centre lies outside the box, so its bound pins.
        centre = [rng.uniform(-0.4, 0.4) + (3.0 if j % 3 == 0 else 0.0)
                  * (-1.0) ** j for j in range(n)]

        def pinned(x):
            d = [xi - ci for xi, ci in zip(x, centre)]
            g = [sum(h * dj for h, dj in zip(row, d)) for row in hess]
            return 0.5 * sum(gi * di for gi, di in zip(g, d)), g

        def wavy(x):
            value = sum((xi - ci) ** 2 for xi, ci in zip(x, centre))
            g = [2.0 * (xi - ci) for xi, ci in zip(x, centre)]
            for j in range(n - 1):
                a, b = x[j], x[j + 1]
                value += 0.4 * math.sin(3.0 * a) * math.cos(2.0 * b)
                g[j] += 1.2 * math.cos(3.0 * a) * math.cos(2.0 * b)
                g[j + 1] -= 0.8 * math.sin(3.0 * a) * math.sin(2.0 * b)
            return value, g

        def nan_gradient(x):
            value, g = wavy(x)
            g[n // 2] = math.nan
            return value, g

        def only_the_start(x):
            first = [min(hi, max(lo, v)) for v, lo, hi in
                     zip(x0, lower, upper)]
            return (1.0, [1.0] * n) if x == first else (math.inf, None)

        asymmetric = [[h + rng.uniform(-0.1, 0.1) for h in row]
                      for row in hess]
        return [
            ("pinned_quadratic", pinned, lower, upper, x0,
             {"tol": 1e-10, "max_iter": cap}),
            ("non_convex", wavy, lower, upper, x0,
             {"tol": 1e-9, "max_iter": cap}),
            ("nan_gradient", nan_gradient, lower, upper, x0, {}),
            ("non_finite_start", lambda x: (math.inf, None), lower, upper,
             x0, {"hessian": hess}),
            ("iteration_cap", wavy, lower, upper, x0, {"max_iter": 2}),
            ("identity_restart", pinned, lower, upper, x0,
             {"max_iter": cap,
              "hessian": [[-h for h in row] for row in hess]}),
            ("line_search", only_the_start, lower, upper, x0,
             {"hessian": hess}),
            ("hessian_seed", pinned, lower, upper, x0,
             {"tol": 1e-10, "max_iter": cap, "hessian": asymmetric}),
        ]

    @pytest.mark.parametrize("n", [1, 2, 6, 16, 128])
    def test_matches_loop_bitwise(self, n):
        stops = set()
        for name, fg, lower, upper, x0, kwargs in self.cases(n):
            want = loop_minimize_box(fg, lower, upper, x0, **kwargs)
            got = minimize_box(fg, lower, upper, x0, **kwargs)
            assert repr(got) == repr(want), name
            stops.add(got.stop)
        # Each way out of the iteration is taken (n = 1 converges before
        # the cap, n = 128 is capped before it converges).
        assert stops >= {"line_search", "nonfinite_start"}
        if 1 < n < 128:
            assert stops == {"tolerance", "iteration_cap", "line_search",
                             "nonfinite_start"}

    def test_restart_takes_the_identity_from_the_seed(self):
        # A negative definite seed has no Cholesky factor: the first
        # direction comes from the identity, which the solver keeps as a
        # constant per n and never changes in place.
        n = 6
        _, fg, lower, upper, x0, kwargs = self.cases(n)[5]
        eye = optimize._box_solver(n).__globals__["eye"]
        before = repr(eye)
        res = minimize_box(fg, lower, upper, x0, **kwargs)
        assert res.converged and repr(eye) == before
        assert eye == [[float(a == b) for b in range(n)] for a in range(n)]

    def test_generated_once_per_size(self):
        n = 7
        first = optimize._box_solver(n)
        assert optimize._box_solver(n) is first
        assert optimize._BOX_SOLVERS[n] is first
