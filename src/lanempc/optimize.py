"""Deterministic box-constrained minimization with exact gradients.

A projected BFGS method (in the spirit of L-BFGS-B, Byrd, Lu, Nocedal & Zhu
1995, and projected Newton, Bertsekas 1982) for small dense problems.  Each
coordinate is measured in units of its box span, so steering (radians) and
torque (newton metres) weigh alike.  No randomness anywhere: identical inputs
give identical iterates, and the returned point never scores worse than the
start.
"""

import math
from dataclasses import dataclass

# Sufficient-decrease constant of the Armijo test and the backtracking
# budget of one line search (step halvings).
_ARMIJO = 1e-4
_MAX_HALVINGS = 40

# Relative rounding noise of an objective value: trial values within it of
# the current value are judged by their gradients instead.
_NOISE = 1e-11


@dataclass(frozen=True)
class BoxResult:
    x: tuple
    fun: float
    converged: bool
    iterations: int
    n_eval: int


def fd_gradient(f, x, steps):
    """Central finite-difference gradient with per-coordinate steps.

    Kept as the reference the analytic gradients are tested against.
    """
    g = []
    xs = list(x)
    for j, h in enumerate(steps):
        if h == 0.0:
            g.append(0.0)
            continue
        orig = xs[j]
        xs[j] = orig + h
        fp = f(xs)
        xs[j] = orig - h
        fm = f(xs)
        xs[j] = orig
        g.append((fp - fm) / (2.0 * h))
    return g


def minimize_box(fg, lower, upper, x0, tol=1e-9, max_iter=100, fgh=None):
    """Minimize a smooth function over the box [lower, upper] from x0.

    fg takes a list of floats and returns ``(value, gradient)``; a value of
    +inf (gradient ignored) rejects the point.  The iteration keeps a dense
    Hessian estimate B in span-normalised coordinates, frees the
    coordinates whose gradient points into the box, takes the direction
    from a Cholesky solve with B's free block, steps along the projection
    arc with Armijo backtracking, and falls back to steepest descent (and
    B to the identity) when that block is not positive definite or the
    direction does not descend.  Near a minimum, where trial values differ
    from the current one only by rounding, the sufficient-decrease test is
    made on the gradients.

    fgh, when given, is called once at the clipped start in place of fg and
    returns ``(value, gradient, hessian)``, hessian a list of rows; B then
    starts from that curvature instead of the identity.

    Returns a BoxResult whose x lies exactly inside the box (clipping, not
    tolerance) and whose fun never exceeds the value at the clipped start.
    converged is True exactly when the span-scaled projected gradient's
    largest entry is at most ``tol * (1 + |fun|)``.  n_eval counts calls of
    fg and fgh; iterations counts accepted steps.
    """
    n = len(x0)
    if len(lower) != n or len(upper) != n:
        raise ValueError("lower/upper/x0 lengths differ")
    for j in range(n):
        if lower[j] > upper[j]:
            raise ValueError(f"lower[{j}] > upper[{j}]")
    span = [upper[j] - lower[j] for j in range(n)]
    rng = range(n)

    def clip(v, j):
        return min(upper[j], max(lower[j], v))

    x = [clip(x0[j], j) for j in rng]
    if fgh is None:
        fx, gx = fg(x)
        hx = None
    else:
        fx, gx, hx = fgh(x)
    evals = 1
    if not math.isfinite(fx):
        return BoxResult(tuple(x), fx, False, 0, evals)
    identity = [[1.0 if a == b else 0.0 for b in rng] for a in rng]
    b_mat = identity if hx is None else [
        [hx[a][b] * span[a] * span[b] for b in rng] for a in rng]
    x_start, f_start = tuple(x), fx
    g = [gx[j] * span[j] for j in rng]

    iterations = 0
    converged = False
    while True:
        # Projected gradient: the part of -g the box lets the point follow.
        pg = 0.0
        free = []
        for j in rng:
            if span[j] == 0.0:
                continue
            if x[j] == lower[j] and g[j] > 0.0:
                continue
            if x[j] == upper[j] and g[j] < 0.0:
                continue
            free.append(j)
            a = abs(g[j])
            if a > pg:
                pg = a
        if pg <= tol * (1.0 + abs(fx)):
            converged = True
            break
        if iterations >= max_iter:
            break

        # Quasi-Newton direction on the free coordinates, B_FF p = -g_F;
        # steepest descent when B_FF is not positive definite or p does
        # not descend.
        p = [0.0] * n
        pf = _cholesky_solve(b_mat, free, g)
        slope = 0.0
        if pf is not None:
            for a, v in zip(free, pf):
                p[a] = -v
                slope -= g[a] * v
        if not slope < 0.0:
            b_mat = identity
            for a in free:
                p[a] = -g[a]

        step, used = _line_search(fg, x, fx, g, p, span, clip, free)
        evals += used
        if step is None:
            break
        x_new, f_new, g_new = step
        iterations += 1

        # BFGS update of B with the scaled step and gradient change;
        # skipped when the curvature is not positive.
        s = [(x_new[j] - x[j]) / span[j] if span[j] else 0.0 for j in rng]
        y = [g_new[j] - g[j] for j in rng]
        x, fx, g = x_new, f_new, g_new
        sy = 0.0
        yy = 0.0
        for j in rng:
            sy += s[j] * y[j]
            yy += y[j] * y[j]
        if sy <= 1e-12 * yy:
            continue
        bs = [0.0] * n
        for a in rng:
            row = b_mat[a]
            t = 0.0
            for b in rng:
                t += row[b] * s[b]
            bs[a] = t
        sbs = 0.0
        for j in rng:
            sbs += s[j] * bs[j]
        if not sbs > 0.0:
            continue
        b_mat = [[b_mat[a][b] - bs[a] * bs[b] / sbs + y[a] * y[b] / sy
                  for b in rng] for a in rng]
    if fx > f_start:
        # Steps judged by gradients ended a rounding error above an
        # unconverged start: keep the start.
        return BoxResult(x_start, f_start, False, iterations, evals)
    return BoxResult(tuple(x), fx, converged, iterations, evals)


def _cholesky_solve(b_mat, free, g):
    """Solve B_FF v = g_F (B's rows and columns in ``free``) by Cholesky
    factorisation; v in the order of ``free``, or None when B_FF is not
    numerically positive definite."""
    k = len(free)
    low = [[0.0] * k for _ in range(k)]
    for c in range(k):
        row_c = b_mat[free[c]]
        lc = low[c]
        for r in range(c + 1):
            s = row_c[free[r]]
            lr = low[r]
            for q in range(r):
                s -= lc[q] * lr[q]
            if r < c:
                lc[r] = s / lr[r]
            elif s > 1e-14 * abs(row_c[free[c]]):
                lc[c] = math.sqrt(s)
            else:
                return None
    v = [0.0] * k
    for c in range(k):
        s = g[free[c]]
        lc = low[c]
        for q in range(c):
            s -= lc[q] * v[q]
        v[c] = s / lc[c]
    for c in range(k - 1, -1, -1):
        s = v[c]
        for q in range(c + 1, k):
            s -= low[q][c] * v[q]
        v[c] = s / low[c][c]
    return v


def _line_search(fg, x, fx, g, p, span, clip, free):
    """Armijo backtracking along the projection arc x(t) = P(x + t p).

    p and g are in span units.  The first trial moves the largest
    coordinate by at most one span.  Returns ((x, f, scaled gradient) of
    the first accepted point or None, evaluations used); None when
    _MAX_HALVINGS halvings give no sufficient decrease or the step
    shrinks to nothing.
    """
    pmax = 0.0
    for a in free:
        v = abs(p[a])
        if v > pmax:
            pmax = v
    if pmax == 0.0:
        return None, 0
    t = min(1.0, 1.0 / pmax)
    used = 0
    for _ in range(_MAX_HALVINGS):
        xt = list(x)
        moved = False
        for a in free:
            v = clip(x[a] + t * p[a] * span[a], a)
            if v != x[a]:
                xt[a] = v
                moved = True
        if not moved:
            break
        ft, gt = fg(xt)
        used += 1
        if ft <= fx + _NOISE * abs(fx):
            gt = [gt[j] * span[j] for j in range(len(x))]
            dec = 0.0
            dec_t = 0.0
            for a in free:
                s = (xt[a] - x[a]) / span[a]
                dec += g[a] * s
                dec_t += gt[a] * s
            # Sufficient decrease measured on the values or, where they
            # only differ by rounding, on the gradients (the trapezoid
            # estimate of the decrease, exact for a quadratic).
            if (ft <= fx + _ARMIJO * dec
                    or dec_t <= (2.0 * _ARMIJO - 1.0) * dec):
                return (xt, ft, gt), used
        t *= 0.5
    return None, used
