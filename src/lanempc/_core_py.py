"""The horizon cost and its exact gradient, in pure Python.

``horizon_cost_grad`` is the library's one implementation of the cost the
solver minimizes: the chained Euler prediction, the potential-field cost
sum and one reverse (adjoint) sweep for the gradient, run as straight-line
code generated per horizon and set of nonzero terms (``_grad_source``).
``horizon_cost`` is its value.  The loop form of the same computation,
which performs the same float operations in the same order, lives in
tests/loop_reference.py; tests/test_kernels.py holds the two equal bit for
bit.  lanempc.kernels hands this module out as the "python" backend.
"""

import math

from ._codegen import compile_function
from .dynamics import VX_FLOOR

INF = math.inf


def horizon_cost(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf, car,
                 rw, dt, yaw_div_m, refs, y_upper, y_lower,
                 a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """Potential-field cost of the chained one-step-Euler prediction from
    the state ``vx .. psi`` under ``controls``, flat ``[delta_0, torque_0,
    delta_1, torque_1, ...]`` over ``len(controls) // 2`` steps.

    Each prediction step takes the lateral tire forces from the previous
    state, Euler-updates the body velocities, yaw rate and heading,
    rotates the new body velocities into the global frame and
    Euler-updates the global position with them.  ``yaw_div_m`` divides
    the yaw-rate update by the mass, not the inertia (a documented quirk).

    The cost is a quadratic pull toward the reference points,
    reciprocal-quartic repulsion from the road's boundary lines ``y =
    y_upper`` and ``y = y_lower`` (a function of the lateral gap alone) and
    from obstacle centre points, and a squared yaw-acceleration smoothness
    term from the measured rate ``r``.  ``refs`` and ``obs_pts`` are flat
    [x0, y0, x1, y1, ...]; ``diff_mode`` selects the yaw-rate difference (0
    backward, 1 forward, 2 centered; the last step always falls back to
    backward).  +inf (a sentinel, not an exception) for a predicted speed
    below VX_FLOOR, or, where the term's weight is nonzero, for a predicted
    point on or beyond a boundary line (the barrier is one-sided) or on an
    obstacle centre, exactly or so nearly that the squared gap underflows
    to zero.

    The value of ``horizon_cost_grad``; the gradient is computed and
    dropped.
    """
    return horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr,
                             caf, car, rw, dt, yaw_div_m, refs, y_upper,
                             y_lower, a1, b1, b2, b3, diff_mode, obs_pts,
                             obs_weight)[0]


def horizon_cost_grad(vx, vy, r, gx, gy, psi, controls, m, iz, lf, lr, caf,
                      car, rw, dt, yaw_div_m, refs, y_upper, y_lower,
                      a1, b1, b2, b3, diff_mode, obs_pts, obs_weight):
    """``horizon_cost`` together with its exact gradient in ``controls``.

    Returns ``(cost, grad)``, grad a list in the layout of ``controls``, or
    ``(inf, None)`` wherever the cost is +inf.  The gradient comes from one
    reverse (adjoint) sweep over the Euler chain.

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
    difference rule and nonzero terms fixed: the Euler chain, the cost sum
    and the reverse sweep written out step by step, every value a local.

    It performs the float operations of the loop form
    (tests/loop_reference.py) in their order, so it returns the same
    ``(cost, grad)`` bit for bit; tests/test_kernels.py holds the two equal.
    The only rewrites are exact ones: a constant factor (``2.0 / m``,
    ``-caf``) and a repeated subexpression (``vy + lf * r``) are computed
    once, the state adjoint carried back from step 0 (never read) not at
    all, and a disabled term's zero stays an explicit ``0.0`` operand.
    What raises keeps its place: a ``ValueError`` in the chain (a speed
    below the floor, ``math.cos`` of an infinite heading) and a
    ``ZeroDivisionError`` in the cost sum give ``(inf, None)``, and ``2.0
    / m`` is taken where step 0 first needs it.  (The cost sum divides by
    ``dt`` too, which ``MpcConfig`` keeps positive.)
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
    # the yaw rate r{i + 1}.  A zero divisor (a squared gap to a boundary
    # line or an obstacle centre that is 0.0, exactly or by underflow)
    # scores the point as on the line or centre.
    cost = ["j = 0.0", "a2 = 2.0 * a1"]
    if yaw_on:
        cost += ["b32 = 2.0 * b3", "dt2 = 2.0 * dt"]
        cost += [f"jr{i} = 0.0" for i in range(n)]
    if obs_on:
        cost.append("obs = tuple(zip(obs_pts[0::2], obs_pts[1::2]))")
    for i in range(n):
        cost += [f"ex = x{i} - refs[{2 * i}]",
                 f"ey = y{i} - refs[{2 * i + 1}]",
                 "j += a1 * (ex * ex + ey * ey)",
                 f"jx{i} = a2 * ex",
                 f"jy{i} = a2 * ey"]
        for on, beyond, line, weight, value, slope in (
                (upper_on, ">=", "y_upper", "b1", "tu", "su"),
                (lower_on, "<=", "y_lower", "b2", "tl", "sl")):
            if on:
                cost += [f"if y{i} {beyond} {line}:",
                         "    return INF, None",
                         f"dy = y{i} - {line}",
                         "t = 1.0 / (dy * dy)",
                         f"{value} = {weight} * (t * t)",
                         f"{slope} = -4.0 * {value} * t * dy"]
        # The boundary pair is summed before it is accumulated, so a
        # mirrored problem (the two lines' roles swapped) scores
        # bit-identically.
        tu, su = ("tu", "su") if upper_on else ("0.0", "0.0")
        tl, sl = ("tl", "sl") if lower_on else ("0.0", "0.0")
        cost += [f"j += {tu} + {tl}", f"jy{i} += {su} + {sl}"]
        if obs_on:
            cost += ["for ox, oy in obs:",
                     f"    dx = x{i} - ox",
                     f"    dy = y{i} - oy",
                     "    t = 1.0 / (dx * dx + dy * dy)",
                     "    tob = obs_weight * (t * t)",
                     "    j += tob",
                     f"    jx{i} -= 4.0 * tob * t * dx",
                     f"    jy{i} -= 4.0 * tob * t * dy"]
        if yaw_on:
            # The previous rate (rs[i - 1], or r0 at i = 0) is r{i}.
            if diff_mode == 1 and i + 1 < n:
                cost += [f"rd = (r{i + 2} - r{i + 1}) / dt",
                         "w = b32 * rd / dt",
                         f"jr{i + 1} += w",
                         f"jr{i} -= w"]
            elif diff_mode == 2 and i + 1 < n:
                cost += [f"rd = (r{i + 2} - r{i}) / dt2",
                         "w = b3 * rd / dt",
                         f"jr{i + 1} += w"]
                if i > 0:
                    cost.append(f"jr{i - 1} -= w")
            else:
                cost += [f"rd = (r{i + 1} - r{i}) / dt",
                         "w = b32 * rd / dt",
                         f"jr{i} += w"]
                if i > 0:
                    cost.append(f"jr{i - 1} -= w")
            cost.append("j += b3 * (rd * rd)")
    out += ["    try:", *("        " + line for line in cost),
            "    except ZeroDivisionError:", "        return INF, None"]

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
