"""Pure-Python prediction and cost kernels.

The solver's hot path: the chained Euler prediction, the potential-field
cost, and the fused cost with its exact gradient (adjoint sweep) or with
its gradient and Gauss-Newton Hessian (forward-mode sweep).  Every fused
kernel repeats ``predict_steps`` and ``trajectory_cost`` operation for
operation, so they all return the same cost bit for bit.
lanempc.kernels hands this module out as the "python" backend.
"""

import math

INF = math.inf

# Body longitudinal speed below which the slip-angle model is singular.
VX_FLOOR = 0.1

# Longest horizon the kernels accept; MpcConfig rejects longer ones.
MAX_STEPS = 64


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
    n = len(controls) // 2
    if n > MAX_STEPS:
        raise ValueError(f"horizon of {n} steps exceeds the cap of {MAX_STEPS}")
    if vx < VX_FLOOR:
        raise ValueError(f"longitudinal speed {vx!r} below floor {VX_FLOOR}")
    xa = []
    ya = []
    vxs = []
    vys = []
    rs = []
    psis = []
    fcfs = []
    fcrs = []
    vxgs = []
    vygs = []
    for i in range(n):
        d = controls[2 * i]
        tq = controls[2 * i + 1]
        fcf = -caf * ((vy + lf * r) / vx - d)
        fcr = -car * ((vy - lr * r) / vx)
        div = m if yaw_div_m else iz
        vx_n = vx + (vy * r - (2.0 / m) * (fcf * math.sin(d) - tq / rw)) * dt
        vy_n = vy + (-vx * r + (2.0 / m) * (fcf * math.cos(d) + fcr)) * dt
        r_n = r + ((2.0 / div) * (lf * fcf - lr * fcr)) * dt
        psi_n = psi + r * dt
        if vx_n < VX_FLOOR:
            raise ValueError(
                f"predicted longitudinal speed {vx_n!r} below floor {VX_FLOOR}")
        vxg = vx_n * math.cos(psi_n) - vy_n * math.sin(psi_n)
        vyg = vx_n * math.sin(psi_n) + vy_n * math.cos(psi_n)
        gx = gx + vxg * dt
        gy = gy + vyg * dt
        xa.append(gx)
        ya.append(gy)
        vxs.append(vx_n)
        vys.append(vy_n)
        rs.append(r_n)
        psis.append(psi_n)
        fcfs.append(fcf)
        fcrs.append(fcr)
        vxgs.append(vxg)
        vygs.append(vyg)
        vx, vy, r, psi = vx_n, vy_n, r_n, psi_n
    return (tuple(xa), tuple(ya), tuple(vxs), tuple(vys), tuple(rs),
            tuple(psis), tuple(fcfs), tuple(fcrs), tuple(vxgs), tuple(vygs))


def trajectory_cost(xa, ya, rs, r0, dt, refs, xu, yu, xl, yl,
                    a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Potential-field cost of a predicted trajectory.

    Sums, over the horizon: an attractive quadratic pull toward the reference
    points, reciprocal-quartic repulsion from the upper and lower boundary
    sample points, optional reciprocal-quartic repulsion from obstacle centre
    points, and a squared yaw-acceleration smoothness term.

    ``refs`` and ``obs_pts`` are flat [x0, y0, x1, y1, ...]; ``r0`` is the
    measured yaw rate the prediction started from; ``diff_mode`` selects the
    yaw-rate difference (0 backward, 1 forward, 2 centered; the last step
    always falls back to backward).  A predicted point exactly on a boundary
    or obstacle centre yields +inf (sentinel, not an exception) whenever the
    corresponding weight is nonzero.
    """
    n = len(xa)
    n_obs = len(obs_pts) // 2
    j = 0.0
    for i in range(n):
        ex = xa[i] - refs[2 * i]
        ey = ya[i] - refs[2 * i + 1]
        j += a1 * (ex * ex + ey * ey)
        # The boundary pair is summed before accumulating so a mirrored
        # problem (roles of the two boundaries swapped) scores bit-identically.
        tu = 0.0
        if b1 != 0.0:
            dx = xa[i] - xu[i]
            dy = ya[i] - yu[i]
            q = dx * dx + dy * dy
            if q == 0.0:
                return INF
            t = 1.0 / q
            tu = b1 * (t * t)
        tl = 0.0
        if b2 != 0.0:
            dx = xa[i] - xl[i]
            dy = ya[i] - yl[i]
            q = dx * dx + dy * dy
            if q == 0.0:
                return INF
            t = 1.0 / q
            tl = b2 * (t * t)
        j += tu + tl
        if obs_weight != 0.0:
            for o in range(n_obs):
                dx = xa[i] - obs_pts[2 * o]
                dy = ya[i] - obs_pts[2 * o + 1]
                q = dx * dx + dy * dy
                if q == 0.0:
                    return INF
                t = 1.0 / q
                j += obs_weight * (t * t)
        if b3 != 0.0:
            rp = rs[i - 1] if i > 0 else r0
            if diff_mode == 1 and i + 1 < n:
                rd = (rs[i + 1] - rs[i]) / dt
            elif diff_mode == 2 and i + 1 < n:
                rd = (rs[i + 1] - rp) / (2.0 * dt)
            else:
                rd = (rs[i] - rp) / dt
            j += b3 * (rd * rd)
    return j


def horizon_cost(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                 rw, dt, yaw_div_m, refs, y_upper, y_lower,
                 a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Fused predict + cost for a flat control sequence (the solver hot path).

    Boundary sample points are taken abreast of each predicted position
    (same x, boundary y), so the squared boundary distance reduces to the
    lateral gap squared.  Returns +inf instead of raising when the predicted
    speed chain falls below VX_FLOOR.
    """
    try:
        xa, ya, _, _, rs, _, _, _, _, _ = predict_steps(
            vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
            rw, dt, yaw_div_m)
    except ValueError:
        return INF
    n = len(xa)
    yu = (y_upper,) * n
    yl = (y_lower,) * n
    return trajectory_cost(xa, ya, rs, r, dt, refs, xa, yu, xa, yl,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)


def horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                      a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost`` together with its exact gradient in ``controls``.

    Returns ``(cost, grad)``, grad a list in the layout of ``controls``, or
    ``(inf, None)`` wherever ``horizon_cost`` returns +inf.  The forward
    pass repeats ``predict_steps`` and ``trajectory_cost`` operation for
    operation, so the cost equals ``horizon_cost`` bit for bit; the gradient
    comes from one reverse (adjoint) sweep over the Euler chain.
    """
    n = len(controls) // 2
    if n > MAX_STEPS or vx < VX_FLOOR:
        return INF, None
    sin = math.sin
    cos = math.cos
    div = m if yaw_div_m else iz
    r0 = r
    # Forward pass.  Per step: the state it starts from, the control's
    # sin/cos, the front force, the rotation and the new global velocity.
    tape = []
    xa = []
    ya = []
    rs = []
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
            return INF, None
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

    parts = _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)
    if parts is None:
        return INF, None
    j, jx, jy, jr = parts

    # Reverse sweep: (lvx, lvy, lr_, lpsi, lgx, lgy) is the adjoint of the
    # state after step i, carried back through step i.
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


def horizon_cost_gn(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                    car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                    a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost`` with its gradient and Gauss-Newton Hessian.

    Returns ``(cost, grad, hess)``, hess a symmetric positive semidefinite
    list of rows in the layout of ``controls``, or ``(inf, None, None)``
    wherever ``horizon_cost`` returns +inf.  The cost equals
    ``horizon_cost`` bit for bit; the gradient is the chain rule through
    ``predict_jacobians``, exact up to rounding.  The Hessian keeps the
    cost's curvature in the predicted points and drops the chain's own
    second derivatives: 2a1(JxᵀJx + JyᵀJy), Σ 20b/dy⁶ JyᵀJy for the
    boundaries, the radial part 20w/q⁴ (JᵀΔ)(ΔᵀJ) of each obstacle term
    (Δ the offset from its centre, q = |Δ|²), and 2b3 JṙᵀJṙ for the
    yaw-acceleration differences.
    """
    pred = predict_jacobians(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                             lr, caf, car, rw, dt, yaw_div_m)
    if pred is None:
        return INF, None, None
    xa, ya, rs, jac_x, jac_y, jac_r = pred
    n = len(xa)
    nc = 2 * n
    parts = _cost_partials(xa, ya, rs, r, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)
    if parts is None:
        return INF, None, None
    j, jx, jy, jr = parts

    grad = [0.0] * nc
    hess = [[0.0] * nc for _ in range(nc)]
    n_obs = len(obs_pts) // 2 if obs_weight != 0.0 else 0
    zero = [0.0] * nc
    for i in range(n):
        ux = jac_x[i]
        uy = jac_y[i]
        ur = jac_r[i]
        for k in range(2 * i + 2):
            grad[k] += jx[i] * ux[k] + jy[i] * uy[k] + jr[i] * ur[k]
        # Curvature of step i's point terms in (x, y).
        cxx = cyy = 2.0 * a1
        cxy = 0.0
        for bw, yb in ((b1, y_upper), (b2, y_lower)):
            if bw != 0.0:
                t = 1.0 / ((ya[i] - yb) * (ya[i] - yb))
                cyy += 20.0 * bw * (t * t * t)
        for o in range(n_obs):
            dx = xa[i] - obs_pts[2 * o]
            dy = ya[i] - obs_pts[2 * o + 1]
            t = 1.0 / (dx * dx + dy * dy)
            w = 20.0 * obs_weight * (t * t) * (t * t)
            cxx += w * dx * dx
            cxy += w * dx * dy
            cyy += w * dy * dy
        # Yaw-acceleration row of step i, as trajectory_cost differences.
        rp = jac_r[i - 1] if i > 0 else zero
        if diff_mode == 1 and i + 1 < n:
            rd = [(p - q) / dt for p, q in zip(jac_r[i + 1], ur)]
        elif diff_mode == 2 and i + 1 < n:
            rd = [(p - q) / (2.0 * dt) for p, q in zip(jac_r[i + 1], rp)]
        else:
            rd = [(p - q) / dt for p, q in zip(ur, rp)]
        cr = 2.0 * b3
        active = min(nc, 2 * i + 4)
        for k in range(active):
            xk = cxx * ux[k] + cxy * uy[k]
            yk = cxy * ux[k] + cyy * uy[k]
            rk = cr * rd[k]
            row = hess[k]
            for l in range(k, active):
                row[l] += xk * ux[l] + yk * uy[l] + rk * rd[l]
    for k in range(nc):
        for l in range(k + 1, nc):
            hess[l][k] = hess[k][l]
    return j, grad, hess


def predict_jacobians(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m):
    """``predict_steps``' positions and yaw rates with their Jacobians.

    One forward-mode sweep over ``predict_steps``' chain carries a tangent
    per control.  Returns ``(xa, ya, rs, jac_x, jac_y, jac_r)``,
    ``jac_x[i][k]`` the derivative of step i's x in controls[k], or None
    where ``predict_steps`` raises (speed floor, horizon cap).
    """
    try:
        xa, ya, vxs, vys, rs, psis, fcfs, _, vxgs, vygs = predict_steps(
            vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car, rw,
            dt, yaw_div_m)
    except ValueError:
        return None
    sin = math.sin
    cos = math.cos
    div = m if yaw_div_m else iz
    km = (2.0 / m) * dt
    kr = (2.0 / div) * dt
    n = len(xa)
    nc = 2 * n
    # Tangents of (vx, vy, r, psi, gx, gy) in each control; control k only
    # moves the chain from its own step k // 2 on.
    tvx = [0.0] * nc
    tvy = [0.0] * nc
    tr = [0.0] * nc
    tpsi = [0.0] * nc
    tgx = [0.0] * nc
    tgy = [0.0] * nc
    jac_x = []
    jac_y = []
    jac_r = []
    for i in range(n):
        sd = sin(controls[2 * i])
        cd = cos(controls[2 * i])
        fcf = fcfs[i]
        cp = cos(psis[i])
        sp = sin(psis[i])
        vxg = vxgs[i]
        vyg = vygs[i]
        inv = 1.0 / vx
        ef = (vy + lf * r) * inv
        er = (vy - lr * r) * inv
        for k in range(2 * i + 2):
            a = tvx[k]
            b = tvy[k]
            c = tr[k]
            dfcf = -caf * ((b + lf * c - ef * a) * inv)
            dfcr = -car * ((b - lr * c - er * a) * inv)
            dvx = a + (b * r + vy * c) * dt - km * dfcf * sd
            dvy = b - (a * r + vx * c) * dt + km * (dfcf * cd + dfcr)
            if k == 2 * i:
                # this step's steering angle
                dvx -= km * (caf * sd + fcf * cd)
                dvy += km * (caf * cd - fcf * sd)
                dfcf += caf
            elif k == 2 * i + 1:
                # this step's torque
                dvx += km / rw
            dpsi = tpsi[k] + c * dt
            tr[k] = c + kr * (lf * dfcf - lr * dfcr)
            tvx[k] = dvx
            tvy[k] = dvy
            tpsi[k] = dpsi
            tgx[k] += (dvx * cp - dvy * sp - vyg * dpsi) * dt
            tgy[k] += (dvx * sp + dvy * cp + vxg * dpsi) * dt
        jac_x.append(list(tgx))
        jac_y.append(list(tgy))
        jac_r.append(list(tr))
        vx, vy, r = vxs[i], vys[i], rs[i]
    return xa, ya, rs, jac_x, jac_y, jac_r

def _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                   a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost``'s cost of a predicted trajectory, in
    trajectory_cost's order, with its partials in each predicted x, y and
    yaw rate: ``(cost, jx, jy, jr)``, or None where the cost is +inf."""
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
        # Boundary pair summed (values and slopes) before accumulating, as
        # in trajectory_cost, so mirrored problems stay exactly mirrored.
        tu = 0.0
        su = 0.0
        if b1 != 0.0:
            dx = xa[i] - xa[i]
            dy = ya[i] - y_upper
            q = dx * dx + dy * dy
            if q == 0.0:
                return None
            t = 1.0 / q
            tu = b1 * (t * t)
            su = -4.0 * tu * t * dy
        tl = 0.0
        sl = 0.0
        if b2 != 0.0:
            dx = xa[i] - xa[i]
            dy = ya[i] - y_lower
            q = dx * dx + dy * dy
            if q == 0.0:
                return None
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
