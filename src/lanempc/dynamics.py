"""Planar two-degree-of-freedom nonlinear bicycle model.

The plant used by the closed-loop simulator: body-frame velocity dynamics
with linear lateral tire forces, rear-wheel drive/brake torque, and global
pose kinematics.  All operations are pure functions of their inputs; the
dataclasses are frozen and safe to share across threads.

Sign conventions follow the model equations verbatim, including the
longitudinal acceleration line ``vx_dot = r*vy - (2/m)*(Fcf*sin(delta) -
Tr/Rw)`` where positive rear torque accelerates the vehicle through the
double negative.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

# Below this body longitudinal speed the slip-angle formulas are invalid;
# operations raise instead of clamping.
VX_FLOOR = 0.1


class LowSpeedError(ValueError):
    """Longitudinal speed at or below the validity floor of the slip model."""


class PlantFailureError(RuntimeError):
    """Integration produced a non-finite or sub-floor state."""


@dataclass(frozen=True)
class VehicleParams:
    """Vehicle constants. Defaults are the simulation values used throughout.

    m: mass (kg); Iz: yaw inertia (kg m^2); lf / lr: centre of mass to front /
    rear axle (m); Caf / Car: front / rear cornering stiffness (N/rad);
    Rw: rear wheel effective radius (m); mu: road friction coefficient;
    g: gravitational acceleration (m/s^2).
    """

    m: float = 2000.0
    Iz: float = 1300.0
    lf: float = 1.2
    lr: float = 1.05
    Caf: float = 12000.0
    Car: float = 12000.0
    Rw: float = 0.3
    mu: float = 0.5
    g: float = 9.81

    def __post_init__(self):
        for name in ("m", "Iz", "lf", "lr", "Caf", "Car", "Rw", "mu", "g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0
                    and not isinstance(value, bool)
                    and math.isfinite(value)):
                raise ValueError(f"VehicleParams.{name} must be finite and > 0,"
                                 f" got {value!r}")
        if self.mu > 1.5:
            raise ValueError(f"VehicleParams.mu={self.mu!r} fails the sanity"
                             " bound mu <= 1.5")


@dataclass(frozen=True)
class VehicleState:
    """Six continuous states: body velocities, yaw rate, global pose.

    vx / vy: body longitudinal / lateral velocity (m/s); r: yaw rate (rad/s);
    X / Y: global position of the centre of mass (m); psi: heading (rad).
    """

    vx: float
    vy: float = 0.0
    r: float = 0.0
    X: float = 0.0
    Y: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        for name in ("vx", "vy", "r", "X", "Y", "psi"):
            value = getattr(self, name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"VehicleState.{name} must be finite")
        if self.vx <= 0.0:
            raise ValueError(f"VehicleState.vx must be > 0, got {self.vx!r}")


@dataclass(frozen=True)
class ControlInput:
    """Front steering angle (rad) and rear wheel torque (N m, >0 driving)."""

    delta_f: float = 0.0
    Tr: float = 0.0


class StateRates(NamedTuple):
    vx: float
    vy: float
    r: float
    X: float
    Y: float
    psi: float


def _rates(vx, vy, r, psi, delta_f, tr, p):
    # Scalar core shared by state_derivative and the integrator stages.
    # Small-angle slip angles and linear tires, F = -C_alpha * alpha.
    if vx < VX_FLOOR:
        raise LowSpeedError(
            f"vx={vx!r} below the {VX_FLOOR} m/s slip-model floor")
    fcf = -p.Caf * ((vy + p.lf * r) / vx - delta_f)
    fcr = -p.Car * ((vy - p.lr * r) / vx)
    vx_dot = r * vy - (2.0 / p.m) * (fcf * math.sin(delta_f) - tr / p.Rw)
    vy_dot = -r * vx + (2.0 / p.m) * (fcf * math.cos(delta_f) + fcr)
    r_dot = (2.0 / p.Iz) * (p.lf * fcf - p.lr * fcr)
    x_dot = vx * math.cos(psi) - vy * math.sin(psi)
    y_dot = vx * math.sin(psi) + vy * math.cos(psi)
    return vx_dot, vy_dot, r_dot, x_dot, y_dot, r


def state_derivative(state, u, params):
    """Time derivatives of the six states for the given control input."""
    return StateRates(*_rates(state.vx, state.vy, state.r, state.psi,
                              u.delta_f, u.Tr, params))


def step(state, u, params, dt):
    """Advance the plant by dt with one classical 4-stage (RK4) step.

    dt == 0 returns the state itself.  Raises LowSpeedError if any stage
    evaluates below the speed floor and PlantFailureError if a stage's heading
    or the result is non-finite, or the result is below the floor.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt!r}")
    if dt == 0.0:
        return state
    d, tr, p = u.delta_f, u.Tr, params
    y0 = (state.vx, state.vy, state.r, state.X, state.Y, state.psi)

    def f(y):
        vx, vy, r, _, _, psi = y
        if not math.isfinite(psi):  # math.cos would raise ValueError
            raise PlantFailureError(f"non-finite heading {psi!r} in a stage")
        vxd, vyd, rd, xd, yd, psid = _rates(vx, vy, r, psi, d, tr, p)
        return (vxd, vyd, rd, xd, yd, psid)

    k1 = f(y0)
    half = 0.5 * dt
    k2 = f(tuple(y0[i] + half * k1[i] for i in range(6)))
    k3 = f(tuple(y0[i] + half * k2[i] for i in range(6)))
    k4 = f(tuple(y0[i] + dt * k3[i] for i in range(6)))
    # Combined as dt * (sum/6) so a constant derivative advances by exactly
    # dt * rate (no dt/6 rounding detour).
    out = tuple(
        y0[i] + dt * ((k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0)
        for i in range(6))
    if not all(math.isfinite(v) for v in out):
        raise PlantFailureError(f"non-finite state after step: {out!r}")
    if out[0] < VX_FLOOR:
        raise PlantFailureError(
            f"longitudinal speed {out[0]!r} fell below {VX_FLOOR} m/s")
    return VehicleState(vx=out[0], vy=out[1], r=out[2],
                        X=out[3], Y=out[4], psi=out[5])
