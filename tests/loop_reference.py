"""The loop forms of the two generated kernels, kept as the references the
generated straight-line code must match bit for bit.

``_chain`` (the Euler prediction), ``_cost_partials`` (the cost sum with
its partials) and the reverse (adjoint) sweep in ``horizon_cost_grad`` are
``_core_py.horizon_cost_grad`` written as loops; ``bfgs_update`` is the
BFGS update of ``optimize.minimize_box`` written as loops.  Each performs
the float operations in the order the generated code must keep.
"""

import math

from lanempc.dynamics import VX_FLOOR

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
