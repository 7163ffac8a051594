"""Deterministic box-constrained minimization with exact gradients.

A projected BFGS method (in the spirit of L-BFGS-B, Byrd, Lu, Nocedal & Zhu
1995, and projected Newton, Bertsekas 1982) for small dense problems.  Each
coordinate is measured in units of its box span, so steering (radians) and
torque (newton metres) weigh alike.  No randomness anywhere: identical inputs
give identical iterates, and every accepted step strictly lowers the value,
so the returned point never scores worse than the start.
"""

import math
from dataclasses import dataclass

# Sufficient-decrease constant of the Armijo test and the backtracking
# budget of one line search (step halvings).
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class BoxResult:
    x: tuple
    fun: float
    converged: bool
    iterations: int
    n_eval: int
    hessian: tuple       # final B in x units, rows
    stop: str            # why the iteration ended (see minimize_box)
    residual: float      # span-scaled projected-gradient maximum at x


def minimize_box(fg, lower, upper, x0, tol=1e-9, max_iter=100,
                 hessian=None):
    """Minimize a smooth function over the box [lower, upper] from x0.

    fg takes a list of floats and returns ``(value, gradient)``; a value of
    +inf (gradient ignored) rejects the point.  The iteration keeps a dense
    Hessian estimate B in span-normalised coordinates, exactly symmetric
    and updated in place, frees the coordinates whose gradient points into
    the box, takes the direction from a Cholesky solve with B's free block
    and steps along the projection arc with Armijo backtracking.  When that
    block is not positive definite, the direction does not descend, or the
    line search finds no sufficient decrease along it, B restarts at the
    identity (whose direction is steepest descent) from the same point.
    Every box span ``upper[j] - lower[j]`` must be positive.

    hessian, when given, is an initial estimate of the Hessian in x's own
    units (a list of rows), for instance the ``hessian`` of an earlier
    result on a nearby problem; B starts from its symmetric part
    ``(h + h') / 2`` instead of the identity.

    Returns a BoxResult whose x lies exactly inside the box (clipping, not
    tolerance) and whose fun never exceeds the value at the clipped start.
    residual is the span-scaled projected gradient's largest entry at x
    (inf at a non-finite start).  stop is why the iteration ended:
    "tolerance" (residual at most ``tol * (1 + |fun|)``), "iteration_cap",
    "line_search" (no acceptable step even along steepest descent) or
    "nonfinite_start".  converged is ``stop == "tolerance"``; a tol finer
    than the values' rounding can resolve ends on "line_search".  n_eval
    counts calls of fg; iterations counts accepted steps.  hessian is B
    when the iteration stopped, in x units, or the given estimate when the
    start is not finite.
    """
    n = len(x0)
    if len(lower) != n or len(upper) != n:
        raise ValueError("lower/upper/x0 lengths differ")
    for j in range(n):
        if not lower[j] < upper[j]:
            raise ValueError(f"lower[{j}] must be < upper[{j}]")
    span = [upper[j] - lower[j] for j in range(n)]
    rng = range(n)

    x = [min(hi, max(lo, v)) for v, lo, hi in zip(x0, lower, upper)]
    fx, gx = fg(x)
    evals = 1
    if not math.isfinite(fx):
        return BoxResult(tuple(x), fx, False, 0, evals, hessian,
                         "nonfinite_start", math.inf)
    eye = [[float(a == b) for b in rng] for a in rng]
    b_mat = [row[:] for row in eye] if hessian is None \
        else [[0.5 * (u + w) * (sa * sb) for u, w, sb in zip(row, col, span)]
              for row, col, sa in zip(hessian, zip(*hessian), span)]
    g = [gx[j] * span[j] for j in rng]

    iterations = 0
    while True:
        # Projected gradient: the part of -g the box lets the point follow.
        pg = 0.0
        free = []
        for j in rng:
            gj = g[j]
            if gj > 0.0 and x[j] == lower[j]:
                continue
            if gj < 0.0 and x[j] == upper[j]:
                continue
            free.append(j)
            a = abs(gj)
            if a > pg:
                pg = a
        if pg <= tol * (1.0 + abs(fx)):
            stop = "tolerance"
            break
        if iterations >= max_iter:
            stop = "iteration_cap"
            break

        # Quasi-Newton direction on the free coordinates, B_FF p = -g_F.
        p = [0.0] * n
        pf = _cholesky_solve(b_mat, free, g)
        slope = 0.0
        if pf is not None:
            for a, v in zip(free, pf):
                p[a] = -v
                slope -= g[a] * v
        step = None
        if slope < 0.0:
            step, used = _line_search(fg, x, fx, g, p, span, lower, upper,
                                      free)
            evals += used
        if step is None:
            # No factor, no descent or nothing accepted along B's
            # direction: retry from the identity, whose direction -g_F
            # descends whenever the tolerance test has not stopped the loop.
            if b_mat == eye:
                stop = "line_search"
                break
            b_mat = [row[:] for row in eye]
            continue
        x_new, f_new, g_new = step
        iterations += 1

        # BFGS update of B with the scaled step and gradient change;
        # skipped when the curvature is not positive.
        s = [0.0] * n
        y = [0.0] * n
        sy = yy = 0.0
        for j in rng:
            s[j] = sj = (x_new[j] - x[j]) / span[j]
            y[j] = yj = g_new[j] - g[j]
            sy += sj * yj
            yy += yj * yj
        x, fx, g = x_new, f_new, g_new
        if sy <= 1e-12 * yy:
            continue
        bs = [0.0] * n
        sbs = 0.0
        for a in rng:
            row = b_mat[a]
            t = 0.0
            for b in rng:
                t += row[b] * s[b]
            bs[a] = t
            sbs += s[a] * t
        if not sbs > 0.0:
            continue
        # Upper triangle, mirrored: exact while B is symmetric.
        for a in rng:
            row, ba, ya = b_mat[a], bs[a], y[a]
            for b in range(a, n):
                v = row[b] - ba * bs[b] / sbs + ya * y[b] / sy
                row[b] = b_mat[b][a] = v
    b_end = tuple([tuple([v / (sa * sb) for v, sb in zip(row, span)])
                   for row, sa in zip(b_mat, span)])
    return BoxResult(tuple(x), fx, stop == "tolerance", iterations, evals,
                     b_end, stop, pg)


def _cholesky_solve(b_mat, free, g):
    """Solve B_FF v = g_F (B's rows and columns in ``free``) by Cholesky
    factorisation; v in the order of ``free``, or None when B_FF is not
    numerically positive definite."""
    k = len(free)
    low = [[0.0] * k for _ in range(k)]
    v = [0.0] * k
    for c in range(k):
        # Row c of L, diagonal last; the forward solve L w = g_F runs along.
        fc = free[c]
        row_c = b_mat[fc]
        lc = low[c]
        d = s_d = row_c[fc]
        w = g[fc]
        for r in range(c):
            s = row_c[free[r]]
            lr = low[r]
            for q in range(r):
                s -= lc[q] * lr[q]
            s /= lr[r]
            lc[r] = s
            s_d -= s * s
            w -= s * v[r]
        if not s_d > 1e-14 * abs(d):
            return None
        lc[c] = d = math.sqrt(s_d)
        v[c] = w / d
    for c in range(k - 1, -1, -1):
        s = v[c]
        for q in range(c + 1, k):
            s -= low[q][c] * v[q]
        v[c] = s / low[c][c]
    return v


def _line_search(fg, x, fx, g, p, span, lower, upper, free):
    """Armijo backtracking along the projection arc x(t) = P(x + t p).

    p and g are in span units, and p descends (g'p < 0), so some free
    entry of p is nonzero.  The first trial moves the largest
    coordinate by at most one span; a trial x_t is accepted when
    dec = g'(x_t - x) < 0 and f(x_t) <= f(x) + _ARMIJO * dec.  Returns
    ((x, f, scaled gradient) of the first accepted point or None,
    evaluations used); None when _MAX_HALVINGS halvings accept nothing
    or the step shrinks to nothing.
    """
    pmax = 0.0
    for a in free:
        v = abs(p[a])
        if v > pmax:
            pmax = v
    t = min(1.0, 1.0 / pmax)
    used = 0
    for _ in range(_MAX_HALVINGS):
        xt = x[:]
        moved = False
        for a in free:
            v = x[a] + t * p[a] * span[a]
            v = v if v > lower[a] else lower[a]    # min(upper, max(lower, v))
            v = v if v < upper[a] else upper[a]
            if v != x[a]:
                xt[a] = v
                moved = True
        if not moved:
            break
        ft, gt = fg(xt)
        used += 1
        dec = 0.0
        for a in free:
            dec += g[a] * ((xt[a] - x[a]) / span[a])
        if dec < 0.0 and ft <= fx + _ARMIJO * dec:
            return (xt, ft, [gj * sp for gj, sp in zip(gt, span)]), used
        t *= 0.5
    return None, used
