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

from ._codegen import compile_function

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

    fg takes a list of floats and returns ``(value, gradient)``, the
    gradient a sequence of ``len(x0)`` entries; a value of +inf (gradient
    ignored) rejects the point.  The iteration keeps a dense Hessian
    estimate B in span-normalised coordinates, exactly symmetric, frees the
    coordinates whose gradient points into the box, takes the direction
    from a Cholesky solve with B's free block and steps along the
    projection arc with Armijo backtracking.  It runs as straight-line code
    generated once per number of coordinates n (``_solver_source``, and
    ``_bfgs_source`` for the BFGS update).  When that
    block is not positive definite, the direction does not descend, or the
    line search finds no sufficient decrease along it, B restarts at the
    identity (whose direction is steepest descent) from the same point.
    Every box span ``upper[j] - lower[j]`` must be positive.

    hessian, when given, is an initial estimate of the Hessian in x's own
    units (a list of rows), for instance the ``hessian`` of an earlier
    result on a nearby problem; B starts from its symmetric part
    ``(h + h') / 2`` instead of the identity.  It must be ``len(x0)`` rows
    of ``len(x0)`` entries (else ``ValueError``).

    Returns a BoxResult whose x lies exactly inside the box (clipping, not
    tolerance) and whose fun never exceeds the value at the clipped start.
    residual is the span-scaled projected gradient's largest entry at x
    (inf at a non-finite start; NaN entries left out).  stop is why the
    iteration ended: "tolerance" (residual at most ``tol * (1 + |fun|)``
    and no gradient entry NaN), "iteration_cap", "line_search" (no
    acceptable step even along steepest descent) or "nonfinite_start".
    converged is ``stop == "tolerance"``; a tol finer than the values'
    rounding can resolve ends on "line_search".  n_eval
    counts calls of fg; iterations counts accepted steps.  hessian is B
    when the iteration stopped, in x units, or the given estimate when the
    start is not finite.
    """
    n = len(x0)
    if len(lower) != n or len(upper) != n:
        raise ValueError("lower/upper/x0 lengths differ")
    if hessian is not None and (len(hessian) != n
                                or any(len(row) != n for row in hessian)):
        raise ValueError(f"hessian must be {n} rows of {n} entries")
    for j in range(n):
        if not lower[j] < upper[j]:
            raise ValueError(f"lower[{j}] must be < upper[{j}]")
    return _box_solver(n)(fg, lower, upper, x0, tol, max_iter, hessian)


# Generated solvers by size; an entry is written once and never replaced,
# so concurrent solves may share the dict.
_BOX_SOLVERS = {}


def _box_solver(n):
    """The solver for n coordinates, generated from ``_solver_source`` the
    first time n occurs in the process, and cached with its identity
    matrix and BFGS update."""
    try:
        return _BOX_SOLVERS[n]
    except KeyError:
        names = {"__name__": __name__, "BoxResult": BoxResult,
                 "isfinite": math.isfinite, "inf": math.inf,
                 "chol": _cholesky_solve, "update": _bfgs_update(n),
                 "trials": range(_MAX_HALVINGS),
                 # Read, compared and replaced, never changed in place.
                 "eye": [[float(a == b) for b in range(n)]
                         for a in range(n)]}
        return _BOX_SOLVERS.setdefault(n, compile_function(
            _solver_source(n), "box_solve", n, names))


def _solver_source(n):
    """Source of ``box_solve(fg, lower, upper, start, tol, max_iter,
    hessian)``, minimize_box's iteration for n coordinates after its
    argument checks.

    Straight-line code per coordinate, every coordinate's x, bounds, span,
    scaled gradient, free flag, direction and trial point a local: the
    clip of the start, the projected-gradient scan that also collects the
    free set, the tolerance and NaN test, the direction from the Cholesky
    solve (``_cholesky_solve``), the Armijo trials along the projection
    arc, and the scaled step s, gradient change y and their products.  The
    float operations run in the order of the loops they replace, so every
    iterate is the same to the bit; tests/test_optimize.py holds it equal
    to the loop form in tests/loop_reference.py.
    """
    rng = range(n)

    def each(template):
        return ", ".join(template.format(j=j) for j in rng)

    def vector(template):
        return "[" + each(template) + "]"

    def tup(template):
        return "(" + each(template) + ("," if n == 1 else "") + ")"

    def total(template):
        return "0.0" + "".join(" + " + template.format(j=j) for j in rng)

    out = ["def box_solve(fg, lower, upper, start, tol, max_iter, hessian):",
           f"    {vector('lo{j}')} = lower",
           f"    {vector('hi{j}')} = upper",
           f"    {vector('x{j}')} = start"]
    for j in rng:
        # min(hi, max(lo, x)), the first argument kept on ties and NaN.
        out += [f"    if not x{j} > lo{j}:",
                f"        x{j} = lo{j}",
                f"    if not x{j} < hi{j}:",
                f"        x{j} = hi{j}",
                f"    sp{j} = hi{j} - lo{j}"]
    out += [f"    fx, gx = fg({vector('x{j}')})",
            "    evals = 1",
            "    if not isfinite(fx):",
            f"        return BoxResult({tup('x{j}')}, fx, False, 0, evals,"
            " hessian, 'nonfinite_start', inf)",
            f"    span = {vector('sp{j}')}",
            "    b_mat = eye if hessian is None \\",
            "        else [[0.5 * (u + w) * (sa * sb)"
            " for u, w, sb in zip(row, col, span)]",
            "              for row, col, sa in zip(hessian, zip(*hessian),"
            " span)]",
            f"    {vector('g{j}')} = gx"]
    out += [f"    g{j} = g{j} * sp{j}" for j in rng]
    out += ["    iterations = 0",
            "    while True:",
            # Projected gradient: the part of -g the box lets x follow.
            "        pg = 0.0",
            "        free = []",
            "        keep = free.append"]
    for j in rng:
        out += [f"        if x{j} == lo{j} and g{j} > 0.0"
                f" or x{j} == hi{j} and g{j} < 0.0:",
                f"            f{j} = False",
                "        else:",
                f"            f{j} = True",
                f"            keep({j})",
                # pg = max(pg, abs(g)) while pg >= 0; NaN leaves pg alone.
                f"            if g{j} > pg:",
                f"                pg = g{j}",
                f"            elif -g{j} > pg:",
                f"                pg = -g{j}"]
    nan = " or ".join(f"g{j} != g{j}" for j in rng) or "False"
    out += [f"        if pg <= tol * (1.0 + abs(fx)) and not ({nan}):",
            "            stop = 'tolerance'",
            "            break",
            "        if iterations >= max_iter:",
            "            stop = 'iteration_cap'",
            "            break",
            # Quasi-Newton direction on the free coordinates, B_FF p = -g_F,
            # with the largest |p| for the first trial.
            f"        pf = chol(b_mat, free, {vector('g{j}')})",
            "        slope = 0.0",
            "        ok = False",
            "        if pf is not None:",
            "            pf.reverse()",
            "            pop = pf.pop",
            "            pmax = 0.0"]
    for j in rng:
        out += [f"            if f{j}:",
                "                v = pop()",
                f"                p{j} = -v",
                f"                slope -= g{j} * v",
                "                if v > pmax:",
                "                    pmax = v",
                "                elif -v > pmax:",
                "                    pmax = -v"]
    out += ["        if slope < 0.0:",
            # Armijo backtracking along x(t) = P(x + t p); the first trial
            # moves the largest coordinate by at most one span.
            "            t = 1.0 / pmax",
            "            if not t < 1.0:",
            "                t = 1.0",
            "            for _ in trials:",
            "                moved = False",
            "                dec = 0.0"]
    for j in rng:
        out += [f"                if f{j}:",
                f"                    v = x{j} + t * p{j} * sp{j}",
                f"                    if not v > lo{j}:",
                f"                        v = lo{j}",
                f"                    if not v < hi{j}:",
                f"                        v = hi{j}",
                f"                    if v != x{j}:",
                "                        moved = True",
                "                    else:",
                f"                        v = x{j}",
                f"                    t{j} = v",
                f"                    s{j} = (v - x{j}) / sp{j}",
                f"                    dec += g{j} * s{j}",
                "                else:",
                f"                    t{j} = x{j}",
                f"                    s{j} = (x{j} - x{j}) / sp{j}"]
    out += ["                if not moved:",
            "                    break",
            f"                ft, gt = fg({vector('t{j}')})",
            "                evals += 1",
            f"                if dec < 0.0 and ft <= fx + {_ARMIJO!r} * dec:",
            "                    ok = True",
            "                    break",
            "                t *= 0.5",
            "        if not ok:",
            # No factor, no descent or nothing accepted along B's direction:
            # retry from the identity, whose direction -g_F descends
            # whenever the tolerance test has not stopped the loop.
            "            if b_mat == eye:",
            "                stop = 'line_search'",
            "                break",
            "            b_mat = eye",
            "            continue",
            "        iterations += 1",
            f"        {vector('u{j}')} = gt"]
    for j in rng:
        out += [f"        u{j} = u{j} * sp{j}",
                f"        y{j} = u{j} - g{j}",
                f"        x{j} = t{j}",
                f"        g{j} = u{j}"]
    out += [f"        sy = {total('s{j} * y{j}')}",
            f"        yy = {total('y{j} * y{j}')}",
            "        fx = ft",
            # BFGS update of B, skipped when the curvature is not positive.
            "        if sy <= 1e-12 * yy:",
            "            continue",
            f"        b_mat = update(b_mat, {vector('s{j}')},"
            f" {vector('y{j}')}, sy)",
            "    b_end = tuple([tuple([v / (sa * sb)"
            " for v, sb in zip(row, span)])",
            "                   for row, sa in zip(b_mat, span)])",
            f"    return BoxResult({tup('x{j}')}, fx, stop == 'tolerance',"
            " iterations, evals, b_end, stop, pg)"]
    return "\n".join(out) + "\n"


# Generated BFGS updates by size; an entry is written once and never
# replaced, so concurrent solves may share the dict.
_BFGS_UPDATES = {}


def _bfgs_update(n):
    """The BFGS update for n coordinates, generated from ``_bfgs_source``
    the first time n occurs in the process, and cached."""
    try:
        return _BFGS_UPDATES[n]
    except KeyError:
        return _BFGS_UPDATES.setdefault(n, compile_function(
            _bfgs_source(n), "bfgs_update", n, {"__name__": __name__}))


def _bfgs_source(n):
    """Source of ``bfgs_update(b_mat, s, y, sy)`` for n coordinates: B
    after the BFGS update with the scaled step s and gradient change y
    (sy = s'y), as a new list of rows, or b_mat itself when s'Bs is not
    positive (the update is skipped).  Straight-line code, every entry a
    local: B s and s'B s summed left to right from 0.0, then the
    n(n + 1) / 2 upper entries, mirrored, which is exact while B is
    symmetric.  tests/test_optimize.py holds it equal, bit for bit, to the
    loops in tests/loop_reference.py.  b_mat must be n rows of n.
    """
    rng = range(n)
    rows = ", ".join("[" + ", ".join(f"b{a}_{b}" for b in rng) + "]"
                     for a in rng)
    out = ["def bfgs_update(b_mat, s, y, sy):",
           f"    [{rows}] = b_mat",
           f"    [{', '.join(f's{a}' for a in rng)}] = s",
           f"    [{', '.join(f'y{a}' for a in rng)}] = y"]
    out += [f"    bs{a} = 0.0" + "".join(f" + b{a}_{b} * s{b}" for b in rng)
            for a in rng]
    out += ["    sbs = 0.0" + "".join(f" + s{a} * bs{a}" for a in rng),
            "    if not sbs > 0.0:",
            "        return b_mat"]
    out += [f"    v{a}_{b} = b{a}_{b} - bs{a} * bs{b} / sbs + y{a} * y{b} / sy"
            for a in rng for b in range(a, n)]
    rows = ", ".join("[" + ", ".join(f"v{min(a, b)}_{max(a, b)}" for b in rng)
                     + "]" for a in rng)
    out.append(f"    return [{rows}]")
    return "\n".join(out) + "\n"


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
