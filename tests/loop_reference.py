"""The loop forms of the two generated kernels, kept as the references the
generated straight-line code must match bit for bit.

``horizon_cost_grad`` composes ``_core_py._chain``, ``_core_py._cost_partials``
and a reverse (adjoint) sweep written as a loop; ``bfgs_update`` is the
BFGS update of ``optimize.minimize_box`` written as loops.  Each performs
the float operations in the order the generated code must keep.
"""

from lanempc._core_py import INF, _chain, _cost_partials


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
