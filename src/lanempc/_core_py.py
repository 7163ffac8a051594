"""Pure-Python prediction and cost kernels.

The solver's hot path: the chained Euler prediction, the potential-field
cost, and the fused cost with its exact gradient (adjoint sweep).  The
Euler step exists once, in ``_chain``, and the cost sum once, in
``_cost_partials``; every kernel composes the two, so they all return the
same cost bit for bit.  lanempc.kernels hands this module out as the
"python" backend.
"""

import math

from .dynamics import VX_FLOOR

INF = math.inf

# Longest horizon the kernels accept; MpcConfig rejects longer ones.
MAX_STEPS = 64


def _chain(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car, rw,
           dt, yaw_div_m):
    """The chained one-step-Euler prediction (see ``predict_steps``).

    Returns ``(xa, ya, rs, tape)``: lists of the predicted global x, global
    y and yaw rate, and per step the record ``(vx, vy, r, sd, cd, fcf, cp,
    sp, vxg, vyg, vx_n, vy_n, psi_n, fcr)``.  The first ten are what the
    adjoint sweep needs: the state the step starts from, the steering's
    sine and cosine, the front force, the new heading's cosine and sine and
    the new global velocity.  The last four complete ``predict_steps``'
    columns.  Raises ValueError as ``predict_steps`` does.
    """
    n = len(controls) // 2
    if n > MAX_STEPS:
        raise ValueError(f"horizon of {n} steps exceeds the cap of {MAX_STEPS}")
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
        tape.append((vx, vy, r, sd, cd, fcf, cp, sp, vxg, vyg,
                     vx_n, vy_n, psi_n, fcr))
        xa.append(gx)
        ya.append(gy)
        rs.append(r_n)
        vx, vy, r, psi = vx_n, vy_n, r_n, psi_n
    return xa, ya, rs, tape


def predict_steps(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                  rw, dt, yaw_div_m):
    """Chained one-step-Euler prediction over ``len(controls) // 2`` steps.

    Per step, in order: lateral tire forces from the previous step's state,
    Euler update of the body velocities / yaw rate / heading, rotation of the
    new body velocities into the global frame, Euler update of the global
    position using those new global velocities.

    ``controls`` is flat ``[delta_0, torque_0, delta_1, torque_1, ...]``.
    ``yaw_div_m`` selects the yaw-rate divisor: inertia (False, default) or
    mass (True, a documented quirk kept reproducible).

    Returns ten equal-length tuples: global x, global y, body vx, body vy,
    yaw rate, heading, front force, rear force, global vx, global vy.
    Raises ValueError if any longitudinal speed in the chain drops below
    VX_FLOOR.
    """
    xa, ya, rs, tape = _chain(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                              lr, caf, car, rw, dt, yaw_div_m)
    (_, _, _, _, _, fcfs, _, _, vxgs, vygs, vxs, vys, psis,
     fcrs) = tuple(zip(*tape)) or ((),) * 14
    return (tuple(xa), tuple(ya), vxs, vys, tuple(rs), psis, fcfs, fcrs,
            vxgs, vygs)


def trajectory_cost(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                    a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Potential-field cost of a predicted trajectory.

    Sums, over the horizon: an attractive quadratic pull toward the reference
    points, reciprocal-quartic repulsion from the road's upper and lower
    boundary lines ``y = y_upper`` and ``y = y_lower`` (a function of the
    lateral gap alone), optional reciprocal-quartic repulsion from obstacle
    centre points, and a squared yaw-acceleration smoothness term.

    ``refs`` and ``obs_pts`` are flat [x0, y0, x1, y1, ...]; ``r0`` is the
    measured yaw rate the prediction started from; ``diff_mode`` selects the
    yaw-rate difference (0 backward, 1 forward, 2 centered; the last step
    always falls back to backward).  A predicted point on or beyond a
    boundary line (off the road), or exactly on an obstacle centre, yields
    +inf (sentinel, not an exception) whenever the corresponding weight is
    nonzero: the road barrier is one-sided.
    """
    parts = _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)
    return INF if parts is None else parts[0]


def horizon_cost(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                 rw, dt, yaw_div_m, refs, y_upper, y_lower,
                 a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Fused predict + cost for a flat control sequence (the solver hot path).

    Returns +inf instead of raising when the predicted speed chain falls
    below VX_FLOOR.
    """
    try:
        xa, ya, rs, _ = _chain(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                               lr, caf, car, rw, dt, yaw_div_m)
    except ValueError:
        return INF
    return trajectory_cost(xa, ya, rs, r, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)


def horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                      a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost`` together with its exact gradient in ``controls``.

    Returns ``(cost, grad)``, grad a list in the layout of ``controls``, or
    ``(inf, None)`` wherever ``horizon_cost`` returns +inf.  The cost equals
    ``horizon_cost`` bit for bit; the gradient comes from one reverse
    (adjoint) sweep over the Euler chain's record.
    """
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
        vx, vy, r, sd, cd, fcf, cp, sp, vxg, vyg, _, _, _, _ = tape[i]
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


def _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                   a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``trajectory_cost`` with its partials in each predicted x, y and yaw
    rate: ``(cost, jx, jy, jr)``, or None where the cost is +inf.  The
    boundary terms depend on y alone, so they have no x-partials.
    """
    n = len(xa)
    n_obs = len(obs_pts) // 2
    j = 0.0
    jx = [0.0] * n
    jy = [0.0] * n
    jr = [0.0] * n
    for i in range(n):
        ex = xa[i] - refs[2 * i]
        ey = ya[i] - refs[2 * i + 1]
        j += a1 * (ex * ex + ey * ey)
        gxi = 2.0 * a1 * ex
        gyi = 2.0 * a1 * ey
        # The boundary pair (values and slopes) is summed before
        # accumulating so a mirrored problem (roles of the two boundaries
        # swapped) scores bit-identically.
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
                q = dx * dx + dy * dy
                if q == 0.0:
                    return None
                t = 1.0 / q
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
    return j, jx, jy, jr
