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


def minimize_box(fg, lower, upper, x0, tol=1e-9, max_iter=100):
    """Minimize a smooth function over the box [lower, upper] from x0.

    fg takes a list of floats and returns ``(value, gradient)``; a value of
    +inf (gradient ignored) rejects the point.  The iteration keeps a dense
    inverse-Hessian estimate in span-normalised coordinates, frees the
    coordinates whose gradient points into the box, steps along the
    projection arc with Armijo backtracking, and falls back to steepest
    descent when the quasi-Newton direction does not descend.  Near a
    minimum, where trial values differ from the current one only by
    rounding, the sufficient-decrease test is made on the gradients.

    Returns a BoxResult whose x lies exactly inside the box (clipping, not
    tolerance) and whose fun never exceeds the value at the clipped start.
    converged is True exactly when the span-scaled projected gradient's
    largest entry is at most ``tol * (1 + |fun|)``.  n_eval counts calls of
    fg; iterations counts accepted steps.
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
    fx, gx = fg(x)
    evals = 1
    if not math.isfinite(fx):
        return BoxResult(tuple(x), fx, False, 0, evals)
    x_start, f_start = tuple(x), fx
    g = [gx[j] * span[j] for j in rng]

    identity = [[1.0 if a == b else 0.0 for b in rng] for a in rng]
    h = identity
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

        # Quasi-Newton direction on the free coordinates, from the inverse
        # of the Hessian estimate's free block; steepest descent when it
        # does not descend.
        hf = _free_block_inverse(h, free, n)
        p = [0.0] * n
        for a in free:
            row = hf[a]
            s = 0.0
            for b in free:
                s -= row[b] * g[b]
            p[a] = s
        slope = 0.0
        for a in free:
            slope += g[a] * p[a]
        if not slope < 0.0:
            h = identity
            for a in free:
                p[a] = -g[a]

        step, used = _line_search(fg, x, fx, g, p, span, clip, free)
        evals += used
        if step is None:
            break
        x_new, f_new, g_new = step
        iterations += 1

        # BFGS update of the inverse Hessian with the scaled step and
        # gradient change; skipped when the curvature is not positive.
        s = [(x_new[j] - x[j]) / span[j] if span[j] else 0.0 for j in rng]
        y = [g_new[j] - g[j] for j in rng]
        sy = 0.0
        yy = 0.0
        for j in rng:
            sy += s[j] * y[j]
            yy += y[j] * y[j]
        x, fx, g = x_new, f_new, g_new
        if sy <= 1e-12 * yy:
            continue
        hy = [0.0] * n
        for a in rng:
            row = h[a]
            t = 0.0
            for b in rng:
                t += row[b] * y[b]
            hy[a] = t
        yhy = 0.0
        for j in rng:
            yhy += y[j] * hy[j]
        rho = 1.0 / sy
        c = (1.0 + yhy * rho) * rho
        h = [[h[a][b] - rho * (hy[a] * s[b] + s[a] * hy[b]) + c * s[a] * s[b]
              for b in rng] for a in rng]
    if fx > f_start:
        # Steps judged by gradients ended a rounding error above an
        # unconverged start: keep the start.
        return BoxResult(x_start, f_start, False, iterations, evals)
    return BoxResult(tuple(x), fx, converged, iterations, evals)


def _free_block_inverse(h, free, n):
    """Inverse of the free block of B = h^-1, from the inverse h itself.

    With the bound coordinates A held fixed the Newton step needs
    (B_FF)^-1, which is the Schur complement H_FF - H_FA H_AA^-1 H_AF;
    the plain block H_FF would be the inverse for A free as well.  Rows
    and columns outside ``free`` are left as they are.
    """
    bound = [j for j in range(n) if j not in free]
    if not bound or not free:
        return h
    # Solve H_AA Z = H_AF by Gaussian elimination; H_AA is positive
    # definite, so no pivoting is needed.
    k = len(bound)
    a = [[h[i][j] for j in bound] + [h[i][f] for f in free] for i in bound]
    for c in range(k):
        piv = a[c][c]
        if not piv > 0.0:
            return h
        for r in range(c + 1, k):
            m = a[r][c] / piv
            if m != 0.0:
                ar, ac = a[r], a[c]
                for j in range(c, len(ac)):
                    ar[j] -= m * ac[j]
    for c in range(k - 1, -1, -1):
        ac = a[c]
        piv = ac[c]
        for j in range(k, len(ac)):
            s = ac[j]
            for r in range(c + 1, k):
                s -= ac[r] * a[r][j]
            ac[j] = s / piv
    out = [list(row) for row in h]
    for x, fa in enumerate(free):
        row = out[fa]
        for y, fb in enumerate(free):
            s = h[fa][fb]
            for r, ar in enumerate(bound):
                s -= h[fa][ar] * a[r][k + y]
            row[fb] = s
    return out


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
