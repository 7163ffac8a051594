"""Pure-Python prediction and cost kernels.

The solver's hot path: the chained Euler prediction, the potential-field
cost, and the fused cost with its exact gradient (adjoint sweep).  The
Euler step and the cost sum are written as loops in ``_chain`` and
``_cost_partials``, which ``horizon_cost`` composes.  The solver's
``horizon_cost_grad`` runs a straight-line copy of both, with the adjoint
sweep, generated per horizon (``_grad_source``); it performs the loops'
float operations in their order, so the two kernels return the same cost
bit for bit.  lanempc.kernels hands this module out as the "python"
backend.
"""

import math

from ._codegen import compile_function
from .dynamics import VX_FLOOR

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
    in tests/loop_reference.py reads it; the generated kernel keeps these
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


def horizon_cost(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                 rw, dt, yaw_div_m, refs, y_upper, y_lower,
                 a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Potential-field cost of ``_chain``'s prediction from the state
    ``vx .. psi`` under ``controls``: a quadratic pull toward the reference
    points, reciprocal-quartic repulsion from the road's boundary lines
    ``y = y_upper`` and ``y = y_lower`` (a function of the lateral gap
    alone) and from obstacle centre points, and a squared yaw-acceleration
    smoothness term from the measured rate ``r``.  ``refs`` and ``obs_pts``
    are flat [x0, y0, x1, y1, ...]; ``diff_mode`` selects the yaw-rate
    difference (0 backward, 1 forward, 2 centered; the last step always
    falls back to backward).  +inf (a sentinel, not an exception) for a
    predicted speed below VX_FLOOR, or, where the term's weight is nonzero,
    for a predicted point on or beyond a boundary line (the barrier is
    one-sided) or exactly on an obstacle centre.
    """
    try:
        xa, ya, rs, _ = _chain(vx, vy, r, gx, gy, psi, controls, m, iz, lf,
                               lr, caf, car, rw, dt, yaw_div_m)
    except ValueError:
        return INF
    parts = _cost_partials(xa, ya, rs, r, dt, refs, y_upper, y_lower,
                           a1, b1, b2, b3, diff_mode, obs_pts, obs_weight)
    return INF if parts is None else parts[0]


def horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                      a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost`` together with its exact gradient in ``controls``.

    Returns ``(cost, grad)``, grad a list in the layout of ``controls``, or
    ``(inf, None)`` wherever ``horizon_cost`` returns +inf.  The cost equals
    ``horizon_cost`` bit for bit; the gradient comes from one reverse
    (adjoint) sweep over the Euler chain.

    The work is done by straight-line code generated for the horizon and
    the terms in use (``_grad_source``) the first time they occur in the
    process, and cached.
    """
    key = (len(controls) // 2, yaw_div_m, diff_mode, b1 != 0.0, b2 != 0.0,
           b3 != 0.0, obs_weight != 0.0)
    try:
        kernel = _GRAD_KERNELS[key]
    except KeyError:
        kernel = _GRAD_KERNELS.setdefault(key, compile_function(
            _grad_source(*key), "horizon_cost_grad", key, _GRAD_NAMES))
    return kernel(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                  rw, dt, yaw_div_m, refs, y_upper, y_lower, a1, b1, b2, b3,
                  diff_mode, obs_pts, obs_weight)


# Generated kernels by key; an entry is written once and never replaced, so
# concurrent solves may share the dict.
_GRAD_KERNELS = {}
_GRAD_NAMES = {"__name__": __name__, "sin": math.sin, "cos": math.cos,
               "INF": INF, "VX_FLOOR": VX_FLOOR}


def _grad_source(n, yaw_div_m, diff_mode, upper_on, lower_on, yaw_on,
                 obs_on):
    """Source of ``horizon_cost_grad`` for ``n`` steps with the yaw divisor,
    difference rule and nonzero terms fixed: ``_chain``, ``_cost_partials``
    and the reverse sweep written out step by step, every value a local.

    It performs the float operations of the three loops in their order, so
    it returns the same ``(cost, grad)`` bit for bit; tests/test_kernels.py
    holds it equal to the loops (tests/loop_reference.py).  The only
    rewrites are exact ones: a constant factor (``2.0 / m``, ``-caf``) and
    a repeated subexpression (``vy + lf * r``) are computed once, the state
    adjoint carried back from step 0 (never read) not at all, and a
    disabled term's zero stays an explicit ``0.0`` operand.  What raises
    keeps its place: a ``ValueError`` in the chain (a speed below the
    floor, ``math.cos`` of an infinite heading) gives ``(inf, None)``, and
    ``2.0 / m`` is taken where step 0 first needs it.
    """
    div = "m" if yaw_div_m else "iz"
    out = ["def horizon_cost_grad(vx0, vy0, r0, gx, gy, psi0, controls, m, "
           "iz, lf, lr, caf, car, rw, dt, yaw_div_m, refs, y_upper, y_lower, "
           "a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):",
           "    if vx0 < VX_FLOOR:",
           "        return INF, None",
           "    ncaf = -caf",
           "    ncar = -car"]

    # The Euler chain: step i goes from (vx{i}, vy{i}, r{i}, psi{i}) to
    # index i + 1 and predicts the point (x{i}, y{i}).
    chain = []
    for i in range(n):
        k = i + 1
        chain += [f"d{i} = controls[{2 * i}]",
                  f"tq = controls[{2 * i + 1}]",
                  f"pf{i} = vy{i} + lf * r{i}",
                  f"pr{i} = vy{i} - lr * r{i}",
                  f"fcf{i} = ncaf * (pf{i} / vx{i} - d{i})",
                  f"fcr = ncar * (pr{i} / vx{i})",
                  f"sd{i} = sin(d{i})",
                  f"cd{i} = cos(d{i})"]
        if i == 0:
            chain.append("k2m = 2.0 / m")
        chain += [f"vx{k} = vx{i} + (vy{i} * r{i} - k2m * (fcf{i} * sd{i} "
                  f"- tq / rw)) * dt",
                  f"vy{k} = vy{i} + (-vx{i} * r{i} + k2m * (fcf{i} * cd{i} "
                  f"+ fcr)) * dt"]
        if i == 0:
            chain += [f"k2d = 2.0 / {div}", "km = k2m * dt", "kr = k2d * dt",
                      "krf = kr * lf", "krr = kr * lr"]
        chain += [f"r{k} = r{i} + (k2d * (lf * fcf{i} - lr * fcr)) * dt",
                  f"psi{k} = psi{i} + r{i} * dt",
                  f"if vx{k} < VX_FLOOR:",
                  "    return INF, None",
                  f"cp{i} = cos(psi{k})",
                  f"sp{i} = sin(psi{k})",
                  f"vxg{i} = vx{k} * cp{i} - vy{k} * sp{i}",
                  f"vyg{i} = vx{k} * sp{i} + vy{k} * cp{i}",
                  f"x{i} = {f'x{i - 1}' if i else 'gx'} + vxg{i} * dt",
                  f"y{i} = {f'y{i - 1}' if i else 'gy'} + vyg{i} * dt"]
    if chain:
        out += ["    try:", *("        " + line for line in chain),
                "    except ValueError:", "        return INF, None"]

    # The cost sum and its partials jx{i}, jy{i}, jr{i} in x{i}, y{i} and
    # the yaw rate r{i + 1}.
    out += ["    j = 0.0", "    a2 = 2.0 * a1"]
    if yaw_on:
        out += ["    b32 = 2.0 * b3", "    dt2 = 2.0 * dt"]
        out += [f"    jr{i} = 0.0" for i in range(n)]
    if obs_on:
        out.append("    obs = tuple(zip(obs_pts[0::2], obs_pts[1::2]))")
    for i in range(n):
        out += [f"    ex = x{i} - refs[{2 * i}]",
                f"    ey = y{i} - refs[{2 * i + 1}]",
                "    j += a1 * (ex * ex + ey * ey)",
                f"    jx{i} = a2 * ex",
                f"    jy{i} = a2 * ey"]
        for on, beyond, line, weight, value, slope in (
                (upper_on, ">=", "y_upper", "b1", "tu", "su"),
                (lower_on, "<=", "y_lower", "b2", "tl", "sl")):
            if on:
                out += [f"    if y{i} {beyond} {line}:",
                        "        return INF, None",
                        f"    dy = y{i} - {line}",
                        "    t = 1.0 / (dy * dy)",
                        f"    {value} = {weight} * (t * t)",
                        f"    {slope} = -4.0 * {value} * t * dy"]
        tu, su = ("tu", "su") if upper_on else ("0.0", "0.0")
        tl, sl = ("tl", "sl") if lower_on else ("0.0", "0.0")
        out += [f"    j += {tu} + {tl}", f"    jy{i} += {su} + {sl}"]
        if obs_on:
            out += ["    for ox, oy in obs:",
                    f"        dx = x{i} - ox",
                    f"        dy = y{i} - oy",
                    "        q = dx * dx + dy * dy",
                    "        if q == 0.0:",
                    "            return INF, None",
                    "        t = 1.0 / q",
                    "        tob = obs_weight * (t * t)",
                    "        j += tob",
                    f"        jx{i} -= 4.0 * tob * t * dx",
                    f"        jy{i} -= 4.0 * tob * t * dy"]
        if yaw_on:
            # The previous rate (rs[i - 1], or r0 at i = 0) is r{i}.
            if diff_mode == 1 and i + 1 < n:
                out += [f"    rd = (r{i + 2} - r{i + 1}) / dt",
                        "    w = b32 * rd / dt",
                        f"    jr{i + 1} += w",
                        f"    jr{i} -= w"]
            elif diff_mode == 2 and i + 1 < n:
                out += [f"    rd = (r{i + 2} - r{i}) / dt2",
                        "    w = b3 * rd / dt",
                        f"    jr{i + 1} += w"]
                if i > 0:
                    out.append(f"    jr{i - 1} -= w")
            else:
                out += [f"    rd = (r{i + 1} - r{i}) / dt",
                        "    w = b32 * rd / dt",
                        f"    jr{i} += w"]
                if i > 0:
                    out.append(f"    jr{i - 1} -= w")
            out.append("    j += b3 * (rd * rd)")

    # The reverse sweep: (lvx, lvy, lr_, lpsi, lgx, lgy) is the adjoint of
    # the state after step i, carried back through step i.
    out.append("    lvx = lvy = lr_ = lpsi = lgx = lgy = 0.0")
    for i in range(n - 1, -1, -1):
        out += [f"    lgx += jx{i}",
                f"    lgy += jy{i}",
                f"    lr_ += {f'jr{i}' if yaw_on else '0.0'}",
                "    lvxg = lgx * dt",
                "    lvyg = lgy * dt",
                f"    lvx += lvxg * cp{i} + lvyg * sp{i}",
                f"    lvy += lvyg * cp{i} - lvxg * sp{i}"]
        if i > 0:
            out.append(f"    lpsi += lvyg * vxg{i} - lvxg * vyg{i}")
        out += [f"    lfcf = km * (lvy * cd{i} - lvx * sd{i}) + krf * lr_",
                "    lfcr = km * lvy - krr * lr_",
                f"    g{2 * i} = caf * lfcf - km * fcf{i} * (lvx * cd{i} "
                f"+ lvy * sd{i})",
                f"    g{2 * i + 1} = km * lvx / rw"]
        if i > 0:
            out += [f"    inv = 1.0 / vx{i}",
                    "    af = caf * inv",
                    "    ar = car * inv",
                    f"    lvx, lvy, lr_ = (lvx - lvy * r{i} * dt + inv * (af "
                    f"* pf{i} * lfcf + ar * pr{i} * lfcr), lvy + lvx * r{i} "
                    f"* dt - af * lfcf - ar * lfcr, lr_ + lpsi * dt + (lvx "
                    f"* vy{i} - lvy * vx{i}) * dt - af * lf * lfcf + ar * lr "
                    f"* lfcr)"]
    grad = ", ".join(f"g{k}" for k in range(2 * n))
    out.append(f"    return j, [{grad}]")
    return "\n".join(out) + "\n"


def _cost_partials(xa, ya, rs, r0, dt, refs, y_upper, y_lower,
                   a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost``'s sum with its partials in each predicted x, y and
    yaw rate: ``(cost, jx, jy, jr)``, or None where the cost is +inf.  The
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
