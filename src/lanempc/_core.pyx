# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled prediction and cost kernels.

Mirrors lanempc._core_py operation for operation; compiled with
-ffp-contract=off so both backends return bit-identical floats.
"""

from libc.math cimport sin, cos, INFINITY

cdef double VX_FLOOR = 0.1
cdef int MAX_STEPS = 64

# Module attributes mirrored from the Python backend so callers can
# introspect either module interchangeably.
VX_FLOOR_PY = 0.1
MAX_STEPS_PY = 64


cdef int _predict_into(double vx, double vy, double r, double gx, double gy,
                       double psi, object controls, double m, double iz,
                       double lf, double lr, double caf, double car,
                       double rw, double dt, bint yaw_div_m, int n,
                       double *xa, double *ya, double *vxs, double *vys,
                       double *rs, double *psis, double *fcfs, double *fcrs,
                       double *vxgs, double *vygs) except -2:
    """Shared prediction chain; returns 0 on success, -1 on a speed-floor hit."""
    cdef int i
    cdef double d, tq, fcf, fcr, div, vx_n, vy_n, r_n, psi_n, vxg, vyg
    if vx < VX_FLOOR:
        return -1
    for i in range(n):
        d = controls[2 * i]
        tq = controls[2 * i + 1]
        fcf = -caf * ((vy + lf * r) / vx - d)
        fcr = -car * ((vy - lr * r) / vx)
        div = m if yaw_div_m else iz
        vx_n = vx + (vy * r - (2.0 / m) * (fcf * sin(d) - tq / rw)) * dt
        vy_n = vy + (-vx * r + (2.0 / m) * (fcf * cos(d) + fcr)) * dt
        r_n = r + ((2.0 / div) * (lf * fcf - lr * fcr)) * dt
        psi_n = psi + r * dt
        if vx_n < VX_FLOOR:
            return -1
        vxg = vx_n * cos(psi_n) - vy_n * sin(psi_n)
        vyg = vx_n * sin(psi_n) + vy_n * cos(psi_n)
        gx = gx + vxg * dt
        gy = gy + vyg * dt
        xa[i] = gx
        ya[i] = gy
        vxs[i] = vx_n
        vys[i] = vy_n
        rs[i] = r_n
        psis[i] = psi_n
        fcfs[i] = fcf
        fcrs[i] = fcr
        vxgs[i] = vxg
        vygs[i] = vyg
        vx = vx_n
        vy = vy_n
        r = r_n
        psi = psi_n
    return 0


def predict_steps(double vx, double vy, double r, double gx, double gy,
                  double psi, controls, double m, double iz, double lf,
                  double lr, double caf, double car, double rw, double dt,
                  bint yaw_div_m):
    """See lanempc._core_py.predict_steps; same contract, same values."""
    cdef int n = len(controls) // 2
    if n > MAX_STEPS:
        raise ValueError(f"horizon of {n} steps exceeds the cap of {MAX_STEPS}")
    cdef double xa[64]
    cdef double ya[64]
    cdef double vxs[64]
    cdef double vys[64]
    cdef double rs[64]
    cdef double psis[64]
    cdef double fcfs[64]
    cdef double fcrs[64]
    cdef double vxgs[64]
    cdef double vygs[64]
    cdef int rc = _predict_into(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                                lr, caf, car, rw, dt, yaw_div_m, n,
                                xa, ya, vxs, vys, rs, psis, fcfs, fcrs,
                                vxgs, vygs)
    if rc == -1:
        raise ValueError(
            f"longitudinal speed below floor {VX_FLOOR} in prediction chain")
    cdef int i
    return (tuple([xa[i] for i in range(n)]),
            tuple([ya[i] for i in range(n)]),
            tuple([vxs[i] for i in range(n)]),
            tuple([vys[i] for i in range(n)]),
            tuple([rs[i] for i in range(n)]),
            tuple([psis[i] for i in range(n)]),
            tuple([fcfs[i] for i in range(n)]),
            tuple([fcrs[i] for i in range(n)]),
            tuple([vxgs[i] for i in range(n)]),
            tuple([vygs[i] for i in range(n)]))


def trajectory_cost(xa, ya, rs, double r0, double dt, refs, xu, yu, xl, yl,
                    double a1, double b1, double b2, double b3, int diff_mode,
                    obs_pts, double obs_weight):
    """See lanempc._core_py.trajectory_cost; same contract, same values."""
    cdef int n = len(xa)
    cdef int n_obs = len(obs_pts) // 2
    cdef double j = 0.0
    cdef int i, o
    cdef double ex, ey, dx, dy, q, t, rp, rd, cxa, cya, tu, tl
    for i in range(n):
        cxa = xa[i]
        cya = ya[i]
        ex = cxa - refs[2 * i]
        ey = cya - refs[2 * i + 1]
        j += a1 * (ex * ex + ey * ey)
        # Boundary pair summed before accumulating; mirrored problems score
        # bit-identically.
        tu = 0.0
        if b1 != 0.0:
            dx = cxa - xu[i]
            dy = cya - yu[i]
            q = dx * dx + dy * dy
            if q == 0.0:
                return INFINITY
            t = 1.0 / q
            tu = b1 * (t * t)
        tl = 0.0
        if b2 != 0.0:
            dx = cxa - xl[i]
            dy = cya - yl[i]
            q = dx * dx + dy * dy
            if q == 0.0:
                return INFINITY
            t = 1.0 / q
            tl = b2 * (t * t)
        j += tu + tl
        if obs_weight != 0.0:
            for o in range(n_obs):
                dx = cxa - obs_pts[2 * o]
                dy = cya - obs_pts[2 * o + 1]
                q = dx * dx + dy * dy
                if q == 0.0:
                    return INFINITY
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


def horizon_cost(double vx, double vy, double r, double gx, double gy,
                 double psi, controls, double m, double iz, double lf,
                 double lr, double caf, double car, double rw, double dt,
                 bint yaw_div_m, refs, double y_upper, double y_lower,
                 double a1, double b1, double b2, double b3, int diff_mode,
                 obs_pts, double obs_weight):
    """See lanempc._core_py.horizon_cost; same contract, same values."""
    cdef int n = len(controls) // 2
    if n > MAX_STEPS:
        return INFINITY
    cdef double xa[64]
    cdef double ya[64]
    cdef double vxs[64]
    cdef double vys[64]
    cdef double rs[64]
    cdef double psis[64]
    cdef double fcfs[64]
    cdef double fcrs[64]
    cdef double vxgs[64]
    cdef double vygs[64]
    cdef int rc = _predict_into(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                                lr, caf, car, rw, dt, yaw_div_m, n,
                                xa, ya, vxs, vys, rs, psis, fcfs, fcrs,
                                vxgs, vygs)
    if rc == -1:
        return INFINITY

    cdef int n_obs = len(obs_pts) // 2
    cdef double j = 0.0
    cdef int i, o
    cdef double ex, ey, dx, dy, q, t, rp, rd, tu, tl
    # Flat obstacle coordinates pulled out of the Python sequence once.
    cdef double obs_buf[32]
    if obs_weight != 0.0:
        if n_obs > 16:
            raise ValueError("too many obstacle repulsion points (max 16)")
        for o in range(2 * n_obs):
            obs_buf[o] = obs_pts[o]
    cdef double ref_buf[128]
    for i in range(2 * n):
        ref_buf[i] = refs[i]

    for i in range(n):
        ex = xa[i] - ref_buf[2 * i]
        ey = ya[i] - ref_buf[2 * i + 1]
        j += a1 * (ex * ex + ey * ey)
        # Abreast boundary sample: same x as the predicted point, so the
        # x-part of the squared distance is exactly zero.  Boundary pair
        # summed before accumulating; mirrored problems score
        # bit-identically.
        tu = 0.0
        if b1 != 0.0:
            dx = xa[i] - xa[i]
            dy = ya[i] - y_upper
            q = dx * dx + dy * dy
            if q == 0.0:
                return INFINITY
            t = 1.0 / q
            tu = b1 * (t * t)
        tl = 0.0
        if b2 != 0.0:
            dx = xa[i] - xa[i]
            dy = ya[i] - y_lower
            q = dx * dx + dy * dy
            if q == 0.0:
                return INFINITY
            t = 1.0 / q
            tl = b2 * (t * t)
        j += tu + tl
        if obs_weight != 0.0:
            for o in range(n_obs):
                dx = xa[i] - obs_buf[2 * o]
                dy = ya[i] - obs_buf[2 * o + 1]
                q = dx * dx + dy * dy
                if q == 0.0:
                    return INFINITY
                t = 1.0 / q
                j += obs_weight * (t * t)
        if b3 != 0.0:
            rp = rs[i - 1] if i > 0 else r
            if diff_mode == 1 and i + 1 < n:
                rd = (rs[i + 1] - rs[i]) / dt
            elif diff_mode == 2 and i + 1 < n:
                rd = (rs[i + 1] - rp) / (2.0 * dt)
            else:
                rd = (rs[i] - rp) / dt
            j += b3 * (rd * rd)
    return j


def horizon_cost_grad(double vx, double vy, double r, double gx, double gy,
                      double psi, controls, double m, double iz, double lf,
                      double lr, double caf, double car, double rw, double dt,
                      bint yaw_div_m, refs, double y_upper, double y_lower,
                      double a1, double b1, double b2, double b3,
                      int diff_mode, obs_pts, double obs_weight):
    """See lanempc._core_py.horizon_cost_grad; same contract, same values."""
    cdef int n = len(controls) // 2
    if n > MAX_STEPS:
        return INFINITY, None
    # Forward-pass tape: the state each step starts from, the control's
    # sin/cos, the front force, the rotation and the new global velocity.
    cdef double t_vx[64]
    cdef double t_vy[64]
    cdef double t_r[64]
    cdef double t_sd[64]
    cdef double t_cd[64]
    cdef double t_fcf[64]
    cdef double t_cp[64]
    cdef double t_sp[64]
    cdef double t_vxg[64]
    cdef double t_vyg[64]
    cdef double xa[64]
    cdef double ya[64]
    cdef double rs[64]
    cdef double jx[64]
    cdef double jy[64]
    cdef double jr[64]
    cdef double obs_buf[32]
    cdef double ref_buf[128]
    cdef double div = m if yaw_div_m else iz
    cdef double r0 = r
    cdef int i, o
    cdef double d, tq, fcf, fcr, sd, cd, vx_n, vy_n, r_n, psi_n, cp, sp
    cdef double vxg, vyg
    if vx < VX_FLOOR:
        return INFINITY, None
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
            return INFINITY, None
        cp = cos(psi_n)
        sp = sin(psi_n)
        vxg = vx_n * cp - vy_n * sp
        vyg = vx_n * sp + vy_n * cp
        gx = gx + vxg * dt
        gy = gy + vyg * dt
        t_vx[i] = vx
        t_vy[i] = vy
        t_r[i] = r
        t_sd[i] = sd
        t_cd[i] = cd
        t_fcf[i] = fcf
        t_cp[i] = cp
        t_sp[i] = sp
        t_vxg[i] = vxg
        t_vyg[i] = vyg
        xa[i] = gx
        ya[i] = gy
        rs[i] = r_n
        vx = vx_n
        vy = vy_n
        r = r_n
        psi = psi_n

    # Cost in horizon_cost's order, with its partials in each predicted
    # x, y and yaw rate.
    cdef int n_obs = len(obs_pts) // 2
    if obs_weight != 0.0:
        if n_obs > 16:
            raise ValueError("too many obstacle repulsion points (max 16)")
        for o in range(2 * n_obs):
            obs_buf[o] = obs_pts[o]
    for i in range(2 * n):
        ref_buf[i] = refs[i]
    cdef double j = 0.0
    cdef double ex, ey, dx, dy, q, t, rp, rd, w, tu, tl, su, sl, tob
    cdef double gxi, gyi
    for i in range(n):
        jr[i] = 0.0
    for i in range(n):
        ex = xa[i] - ref_buf[2 * i]
        ey = ya[i] - ref_buf[2 * i + 1]
        j += a1 * (ex * ex + ey * ey)
        gxi = 2.0 * a1 * ex
        gyi = 2.0 * a1 * ey
        tu = 0.0
        su = 0.0
        if b1 != 0.0:
            dx = xa[i] - xa[i]
            dy = ya[i] - y_upper
            q = dx * dx + dy * dy
            if q == 0.0:
                return INFINITY, None
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
                return INFINITY, None
            t = 1.0 / q
            tl = b2 * (t * t)
            sl = -4.0 * tl * t * dy
        j += tu + tl
        gyi += su + sl
        if obs_weight != 0.0:
            for o in range(n_obs):
                dx = xa[i] - obs_buf[2 * o]
                dy = ya[i] - obs_buf[2 * o + 1]
                q = dx * dx + dy * dy
                if q == 0.0:
                    return INFINITY, None
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

    # Reverse sweep over the Euler chain.
    cdef double km = (2.0 / m) * dt
    cdef double kr = (2.0 / div) * dt
    cdef double lvx = 0.0, lvy = 0.0, lr_ = 0.0, lpsi = 0.0
    cdef double lgx = 0.0, lgy = 0.0
    cdef double lvxg, lvyg, lfcf, lfcr, inv, af, ar, nvx, nvy, nr
    grad = [0.0] * (2 * n)
    for i in range(n - 1, -1, -1):
        vx = t_vx[i]
        vy = t_vy[i]
        r = t_r[i]
        sd = t_sd[i]
        cd = t_cd[i]
        fcf = t_fcf[i]
        cp = t_cp[i]
        sp = t_sp[i]
        vxg = t_vxg[i]
        vyg = t_vyg[i]
        lgx += jx[i]
        lgy += jy[i]
        lr_ += jr[i]
        lvxg = lgx * dt
        lvyg = lgy * dt
        lvx += lvxg * cp + lvyg * sp
        lvy += lvyg * cp - lvxg * sp
        lpsi += lvyg * vxg - lvxg * vyg
        lfcf = km * (lvy * cd - lvx * sd) + kr * lf * lr_
        lfcr = km * lvy - kr * lr * lr_
        grad[2 * i] = caf * lfcf - km * fcf * (lvx * cd + lvy * sd)
        grad[2 * i + 1] = km * lvx / rw
        inv = 1.0 / vx
        af = caf * inv
        ar = car * inv
        nvx = (lvx - lvy * r * dt
               + inv * (af * (vy + lf * r) * lfcf + ar * (vy - lr * r) * lfcr))
        nvy = lvy + lvx * r * dt - af * lfcf - ar * lfcr
        nr = (lr_ + lpsi * dt + (lvx * vy - lvy * vx) * dt
              - af * lf * lfcf + ar * lr * lfcr)
        lvx = nvx
        lvy = nvy
        lr_ = nr
    return j, grad
