"""The loop forms of the generated code, kept as the references the
generated straight-line code must match bit for bit.

``_chain`` (the Euler prediction), ``_cost_partials`` (the cost sum with
its partials) and the reverse (adjoint) sweep in ``horizon_cost_grad`` are
``_core_py.horizon_cost_grad`` written as loops.  ``bfgs_update`` is the
BFGS update of ``optimize.minimize_box`` written as loops, and
``minimize_box`` with ``_line_search`` is the rest of the solver's
iteration written as loops.  Each performs the float operations in the
order the generated code must keep.  ``nearest_arclength`` is the path
query's full scan, which the box-pruned query must match to the bit.
"""

import math

from lanempc.dubins import _nearest_on_segment
from lanempc.dynamics import VX_FLOOR
from lanempc.optimize import (_ARMIJO, _MAX_HALVINGS, BoxResult,
                              _cholesky_solve)

INF = math.inf


def _chain(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car, rw,
           dt, yaw_div_m):
    """Chained one-step-Euler prediction over ``len(controls) // 2`` steps
    (``controls`` flat ``[delta_0, torque_0, delta_1, torque_1, ...]``).
    Per step: lateral tire forces from the previous state, Euler update of
    the body velocities, yaw rate and heading, rotation of the new body
    velocities into the global frame, Euler update of the global position
    with them.  ``yaw_div_m`` divides the yaw-rate update by the mass, not
    the inertia (a documented quirk).

    Returns ``(xa, ya, rs, tape)``: lists of the predicted global x, global
    y and yaw rate, and per step the record ``(vx, vy, r, sd, cd, fcf, cp,
    sp, vxg, vyg)`` an adjoint sweep reads: the state the step starts
    from, the steering's sine and cosine, the front force, the new
    heading's cosine and sine and the new global velocity (the loop sweep
    in ``horizon_cost_grad`` reads it; the generated kernel keeps these
    values in locals).  Raises ValueError if a longitudinal speed in the
    chain drops below VX_FLOOR.
    """
    n = len(controls) // 2
    if vx < VX_FLOOR:
        raise ValueError(f"longitudinal speed {vx!r} below floor {VX_FLOOR}")
    sin = math.sin
    cos = math.cos
    div = m if yaw_div_m else iz
    xa = []
    ya = []
    rs = []
    tape = []
    for i in range(n):
        d = controls[2 * i]
        tq = controls[2 * i + 1]
        fcf = -caf * ((vy + lf * r) / vx - d)
        fcr = -car * ((vy - lr * r) / vx)
        sd = sin(d)
        cd = cos(d)
        vx_n = vx + (vy * r - (2.0 / m) * (fcf * sd - tq / rw)) * dt
        vy_n = vy + (-vx * r + (2.0 / m) * (fcf * cd + fcr)) * dt
        r_n = r + ((2.0 / div) * (lf * fcf - lr * fcr)) * dt
        psi_n = psi + r * dt
        if vx_n < VX_FLOOR:
            raise ValueError(
                f"predicted longitudinal speed {vx_n!r} below floor {VX_FLOOR}")
        cp = cos(psi_n)
        sp = sin(psi_n)
        vxg = vx_n * cp - vy_n * sp
        vyg = vx_n * sp + vy_n * cp
        gx = gx + vxg * dt
        gy = gy + vyg * dt
        tape.append((vx, vy, r, sd, cd, fcf, cp, sp, vxg, vyg))
        xa.append(gx)
        ya.append(gy)
        rs.append(r_n)
        vx, vy, r, psi = vx_n, vy_n, r_n, psi_n
    return xa, ya, rs, tape


def _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                   a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """The horizon cost's sum with its partials in each predicted x, y and
    yaw rate: ``(cost, jx, jy, jr)``, or None where the cost is +inf (a
    zero divisor, such as a squared gap to a boundary line or an obstacle
    centre that underflows to 0.0, included).  The boundary terms depend
    on y alone, so they have no x-partials.
    """
    n = len(xa)
    n_obs = len(obs_pts) // 2
    j = 0.0
    jx = [0.0] * n
    jy = [0.0] * n
    jr = [0.0] * n
    try:
        for i in range(n):
            ex = xa[i] - refs[2 * i]
            ey = ya[i] - refs[2 * i + 1]
            j += a1 * (ex * ex + ey * ey)
            gxi = 2.0 * a1 * ex
            gyi = 2.0 * a1 * ey
            # The boundary pair (values and slopes) is summed before
            # accumulating so a mirrored problem (roles of the two
            # boundaries swapped) scores bit-identically.
            tu = 0.0
            su = 0.0
            if b1 != 0.0:
                if ya[i] >= y_upper:
                    return None
                dy = ya[i] - y_upper
                q = dy * dy
                t = 1.0 / q
                tu = b1 * (t * t)
                su = -4.0 * tu * t * dy
            tl = 0.0
            sl = 0.0
            if b2 != 0.0:
                if ya[i] <= y_lower:
                    return None
                dy = ya[i] - y_lower
                q = dy * dy
                t = 1.0 / q
                tl = b2 * (t * t)
                sl = -4.0 * tl * t * dy
            j += tu + tl
            gyi += su + sl
            if obs_weight != 0.0:
                for o in range(n_obs):
                    dx = xa[i] - obs_pts[2 * o]
                    dy = ya[i] - obs_pts[2 * o + 1]
                    t = 1.0 / (dx * dx + dy * dy)
                    tob = obs_weight * (t * t)
                    j += tob
                    gxi -= 4.0 * tob * t * dx
                    gyi -= 4.0 * tob * t * dy
            jx[i] = gxi
            jy[i] = gyi
            if b3 != 0.0:
                rp = rs[i - 1] if i > 0 else r0
                if diff_mode == 1 and i + 1 < n:
                    rd = (rs[i + 1] - rs[i]) / dt
                    w = 2.0 * b3 * rd / dt
                    jr[i + 1] += w
                    jr[i] -= w
                elif diff_mode == 2 and i + 1 < n:
                    rd = (rs[i + 1] - rp) / (2.0 * dt)
                    w = b3 * rd / dt
                    jr[i + 1] += w
                    if i > 0:
                        jr[i - 1] -= w
                else:
                    rd = (rs[i] - rp) / dt
                    w = 2.0 * b3 * rd / dt
                    jr[i] += w
                    if i > 0:
                        jr[i - 1] -= w
                j += b3 * (rd * rd)
    except ZeroDivisionError:
        return None
    return j, jx, jy, jr


def horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                      a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``(cost, grad)`` of the horizon cost, or ``(inf, None)``, by the
    Euler chain's record, the cost sum's partials and a reverse sweep."""
    try:
        xa, ya, rs, tape = _chain(vx, vy, r, gx, gy, psi, controls, m, iz,
                                  lf, lr, caf, car, rw, dt, yaw_div_m)
    except ValueError:
        return INF, None
    n = len(xa)
    parts = _cost_partials(xa, ya, rs, r, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)
    if parts is None:
        return INF, None
    j, jx, jy, jr = parts

    # Reverse sweep: (lvx, lvy, lr_, lpsi, lgx, lgy) is the adjoint of the
    # state after step i, carried back through step i.
    div = m if yaw_div_m else iz
    km = (2.0 / m) * dt
    kr = (2.0 / div) * dt
    grad = [0.0] * (2 * n)
    lvx = lvy = lr_ = lpsi = lgx = lgy = 0.0
    for i in range(n - 1, -1, -1):
        vx, vy, r, sd, cd, fcf, cp, sp, vxg, vyg = tape[i]
        lgx += jx[i]
        lgy += jy[i]
        lr_ += jr[i]
        # Position update and rotation into the global frame.
        lvxg = lgx * dt
        lvyg = lgy * dt
        lvx += lvxg * cp + lvyg * sp
        lvy += lvyg * cp - lvxg * sp
        lpsi += lvyg * vxg - lvxg * vyg
        # Euler update of the body states; then the tire forces.
        lfcf = km * (lvy * cd - lvx * sd) + kr * lf * lr_
        lfcr = km * lvy - kr * lr * lr_
        grad[2 * i] = caf * lfcf - km * fcf * (lvx * cd + lvy * sd)
        grad[2 * i + 1] = km * lvx / rw
        inv = 1.0 / vx
        af = caf * inv
        ar = car * inv
        lvx, lvy, lr_ = (
            lvx - lvy * r * dt
            + inv * (af * (vy + lf * r) * lfcf + ar * (vy - lr * r) * lfcr),
            lvy + lvx * r * dt - af * lfcf - ar * lfcr,
            lr_ + lpsi * dt + (lvx * vy - lvy * vx) * dt
            - af * lf * lfcf + ar * lr * lfcr)
    return j, grad


def bfgs_update(b_mat, s, y, sy):
    """B after the BFGS update with the step s and the gradient change y
    (sy = s'y > 0), a new list of rows; B itself, unchanged, when s'Bs is
    not positive.  The upper triangle is computed and mirrored."""
    n = len(s)
    b_mat = [list(row) for row in b_mat]
    bs = [0.0] * n
    sbs = 0.0
    for a in range(n):
        row = b_mat[a]
        t = 0.0
        for b in range(n):
            t += row[b] * s[b]
        bs[a] = t
        sbs += s[a] * t
    if not sbs > 0.0:
        return b_mat
    for a in range(n):
        row, ba, ya = b_mat[a], bs[a], y[a]
        for b in range(a, n):
            v = row[b] - ba * bs[b] / sbs + ya * y[b] / sy
            row[b] = b_mat[b][a] = v
    return b_mat


def minimize_box(fg, lower, upper, x0, tol=1e-9, max_iter=100,
                 hessian=None):
    """``optimize.minimize_box`` written as loops over lists: the same
    checks, the same float operations in the same order and the same
    BoxResult.  The BFGS update is ``bfgs_update`` above and the line
    search ``_line_search`` below; the Cholesky solve is the library's
    own, a loop in both forms.
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
    span = [upper[j] - lower[j] for j in range(n)]
    rng = range(n)

    x = [min(hi, max(lo, v)) for v, lo, hi in zip(x0, lower, upper)]
    fx, gx = fg(x)
    evals = 1
    if not math.isfinite(fx):
        return BoxResult(tuple(x), fx, False, 0, evals, hessian,
                         "nonfinite_start", math.inf)
    # B is replaced, never changed in place, so it may be eye itself.
    eye = [[float(a == b) for b in rng] for a in rng]
    b_mat = eye if hessian is None \
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
        # A NaN entry is free but never raises pg, so it is tested apart:
        # no point with one passes the test.
        if pg <= tol * (1.0 + abs(fx)) and not any(map(math.isnan, g)):
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
            b_mat = eye
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
        b_mat = bfgs_update(b_mat, s, y, sy)
    b_end = tuple([tuple([v / (sa * sb) for v, sb in zip(row, span)])
                   for row, sa in zip(b_mat, span)])
    return BoxResult(tuple(x), fx, stop == "tolerance", iterations, evals,
                     b_end, stop, pg)


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


def nearest_arclength(path, px, py):
    """``dubins.nearest_arclength`` evaluating every segment: the first
    strictly nearest one, in the path's order, wins."""
    best_d2 = math.inf
    best_s = 0.0
    for seg, off in zip(path.segments, path.offsets):
        d2, local = _nearest_on_segment(seg, px, py)
        if d2 < best_d2:
            best_d2 = d2
            best_s = off + local
    return best_s, math.sqrt(best_d2)

