"""Finite-difference reference the analytic gradients are tested against."""


def fd_gradient(f, x, steps):
    """Central finite-difference gradient with per-coordinate steps; a zero
    step leaves that coordinate's entry at 0."""
    g = []
    xs = list(x)
    for j, h in enumerate(steps):
        if h == 0.0:
            g.append(0.0)
            continue
        orig = xs[j]
        xs[j] = orig + h
        fp = f(xs)
        xs[j] = orig - h
        fm = f(xs)
        xs[j] = orig
        g.append((fp - fm) / (2.0 * h))
    return g
