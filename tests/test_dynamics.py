import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanempc.dynamics import (ControlInput, LowSpeedError, VehicleParams,
                              VehicleState, state_derivative, step)


def S(vx=10.0, vy=0.0, r=0.0, X=0.0, Y=0.0, psi=0.0):
    return VehicleState(vx=vx, vy=vy, r=r, X=X, Y=Y, psi=psi)


def lateral_rates(state, delta_f, fcf, fcr, p):
    """The model's vy and r rates for given front / rear tire forces."""
    lateral = fcf * math.cos(delta_f) + fcr
    return (-state.r * state.vx + (2.0 / p.m) * lateral,
            (2.0 / p.Iz) * (p.lf * fcf - p.lr * fcr))


def assert_tire_forces(state, delta_f, fcf, fcr, p):
    """state_derivative's vy and r rates at zero torque are those of the
    tire forces (fcf, fcr)."""
    d = state_derivative(state, ControlInput(delta_f=delta_f), p)
    want = lateral_rates(state, delta_f, fcf, fcr, p)
    assert (d.vy, d.r) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSlipAngles:
    """Slip angles alpha_f = (vy + lf r) / vx - delta_f and alpha_r =
    (vy - lr r) / vx, seen through the forces -C * alpha in the rates."""

    def test_straight_line(self, params):
        d = state_derivative(S(), ControlInput(), params)
        assert (d.vy, d.r) == (0.0, 0.0)

    def test_worked_values(self, params):
        # alpha_f = (0.5 + 1.2*0.1)/10 - 0.05 = 0.012,
        # alpha_r = (0.5 - 1.05*0.1)/10 = 0.0395
        assert_tire_forces(S(vy=0.5, r=0.1), 0.05, -12000.0 * 0.012,
                           -12000.0 * 0.0395, params)

    def test_pure_steering_offset(self, params):
        # alpha_f = -0.1, alpha_r = 0
        assert_tire_forces(S(), 0.1, 1200.0, 0.0, params)

    def test_rejects_low_speed(self, params):
        slow = VehicleState(vx=0.05)
        with pytest.raises(LowSpeedError):
            state_derivative(slow, ControlInput(), params)


class TestTireForces:
    def test_zero_slip(self, params):
        # vy = lr r and delta_f = (lf + lr) r / vx: both slip angles 0, so
        # only the kinematic term -r vx is left.
        assert_tire_forces(S(vy=0.105, r=0.1), 0.0225, 0.0, 0.0, params)

    def test_table_stiffness(self, params):
        # alpha_f = alpha_r = 0.01 at 12000 N/rad per axle
        assert_tire_forces(S(vy=0.1), 0.0, -120.0, -120.0, params)

    def test_sign_convention(self, params):
        # alpha_f = 0.02 - 0.03 = -0.01, alpha_r = 0.02
        assert_tire_forces(S(vy=0.2), 0.03, 120.0, -240.0, params)


class TestStateDerivative:
    def test_force_free_straight(self, params):
        d = state_derivative(S(), ControlInput(), params)
        assert d == (0.0, 0.0, 0.0, 10.0, 0.0, 0.0)

    def test_drive_torque(self, params):
        d = state_derivative(S(), ControlInput(Tr=100.0), params)
        assert d.vx == pytest.approx((2.0 / 2000.0) * (100.0 / 0.3), rel=1e-12)

    def test_heading_rotation(self, params):
        d = state_derivative(S(psi=math.pi / 2), ControlInput(), params)
        assert d.X == pytest.approx(0.0, abs=1e-12)
        assert d.Y == pytest.approx(10.0, rel=1e-12)


class TestStep:
    def test_exact_straight_advance(self, params):
        out = step(S(), ControlInput(), params, 0.1)
        assert out.X == 1.0  # exact for a constant derivative
        assert (out.vx, out.vy, out.r, out.Y, out.psi) == (10.0, 0.0, 0.0, 0.0, 0.0)

    def test_zero_dt_is_identity(self, params):
        s = S(vy=0.3, r=0.1, Y=2.0, psi=0.2)
        assert step(s, ControlInput(0.02, 30.0), params, 0.0) == s
        # Below the slip model's speed floor: nothing is evaluated.
        slow = VehicleState(vx=0.05)
        assert step(slow, ControlInput(0.02, 30.0), params, 0.0) is slow
        # Negative zeros stay negative: the state itself comes back.
        signed = VehicleState(vx=10.0, vy=-0.0, r=-0.0, X=-0.0, Y=-0.0,
                              psi=-0.0)
        out = step(signed, ControlInput(0.02, 30.0), params, 0.0)
        assert out is signed
        assert [math.copysign(1.0, v) for v in
                (out.vy, out.r, out.X, out.Y, out.psi)] == [-1.0] * 5

    def test_matches_fine_euler_reference(self, params):
        # Independent oracle: explicit Euler at dt=1e-5 over 1 s.
        u = ControlInput(delta_f=0.05, Tr=0.0)
        y = [10.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        n = 100000
        dt = 1.0 / n
        for _ in range(n):
            vx, vy, r, X, Y, psi = y
            fcf = -params.Caf * ((vy + params.lf * r) / vx - u.delta_f)
            fcr = -params.Car * ((vy - params.lr * r) / vx)
            y = [vx + (r * vy - (2 / params.m) * (fcf * math.sin(u.delta_f)
                                                  - u.Tr / params.Rw)) * dt,
                 vy + (-r * vx + (2 / params.m) * (fcf * math.cos(u.delta_f)
                                                   + fcr)) * dt,
                 r + ((2 / params.Iz) * (params.lf * fcf - params.lr * fcr)) * dt,
                 X + (vx * math.cos(psi) - vy * math.sin(psi)) * dt,
                 Y + (vx * math.sin(psi) + vy * math.cos(psi)) * dt,
                 psi + r * dt]
        s = S()
        for _ in range(10):
            s = step(s, u, params, 0.1)
        got = (s.vx, s.vy, s.r, s.X, s.Y, s.psi)
        for g, want in zip(got, y):
            assert g == pytest.approx(want, abs=1e-4)

    def test_zero_input_invariance_many_steps(self, params):
        s = S()
        for k in range(1, 51):
            s = step(s, ControlInput(), params, 0.1)
            assert s.Y == 0.0 and s.vy == 0.0 and s.r == 0.0 and s.psi == 0.0

    def test_fourth_order_convergence(self, params):
        # Halving dt must shrink the Richardson error by at least 8x.
        u = ControlInput(delta_f=0.05, Tr=20.0)

        def integrate(dt):
            s = S()
            for _ in range(round(2.0 / dt)):
                s = step(s, u, params, dt)
            return s

        states = [integrate(dt) for dt in (0.02, 0.01, 0.005)]

        def gap(a, b):
            return max(abs(x - y) for x, y in
                       zip((a.vx, a.vy, a.r, a.X, a.Y, a.psi),
                           (b.vx, b.vy, b.r, b.X, b.Y, b.psi)))

        e1 = gap(states[0], states[1])
        e2 = gap(states[1], states[2])
        assert e1 / e2 >= 8.0

    def test_negative_dt_rejected(self, params):
        with pytest.raises(ValueError):
            step(S(), ControlInput(), params, -0.1)


@settings(max_examples=60, deadline=None)
@given(vy=st.floats(-2, 2), r=st.floats(-0.8, 0.8), psi=st.floats(-1.5, 1.5),
       Y=st.floats(-5, 5), d=st.floats(-0.7, 0.7), tq=st.floats(-160, 200))
def test_mirror_symmetry_is_exact(vy, r, psi, Y, d, tq):
    # Negating delta_f, vy, r, psi, Y maps trajectories to mirror images,
    # bit for bit (every operation commutes with negation).
    params = VehicleParams()
    a = step(S(vy=vy, r=r, psi=psi, Y=Y), ControlInput(d, tq), params, 0.1)
    b = step(S(vy=-vy, r=-r, psi=-psi, Y=-Y), ControlInput(-d, tq), params, 0.1)
    assert (a.vx, a.X) == (b.vx, b.X)
    assert (a.vy, a.r, a.Y, a.psi) == (-b.vy, -b.r, -b.Y, -b.psi)


@settings(max_examples=60, deadline=None)
@given(vy1=st.floats(-1, 1), r1=st.floats(-0.5, 0.5), d1=st.floats(-0.5, 0.5),
       vy2=st.floats(-1, 1), r2=st.floats(-0.5, 0.5), d2=st.floats(-0.5, 0.5),
       a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_slip_to_force_linearity(vy1, r1, d1, vy2, r2, d2, a, b):
    # Linear slip angles and linear tires make the yaw-rate derivative
    # linear in (vy, r, delta_f) at fixed vx and zero torque.
    params = VehicleParams()

    def r_dot(vy, r, d):
        return state_derivative(S(vy=vy, r=r), ControlInput(delta_f=d),
                                params).r

    want = a * r_dot(vy1, r1, d1) + b * r_dot(vy2, r2, d2)
    got = r_dot(a * vy1 + b * vy2, a * r1 + b * r2, a * d1 + b * d2)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(m=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(mu=2.0)
    with pytest.raises(ValueError):
        VehicleState(vx=0.0)
    with pytest.raises(ValueError):
        VehicleState(vx=float("nan"))
    # a bool is not a number here, though Python counts True as 1
    with pytest.raises(ValueError, match="VehicleParams.m "):
        VehicleParams(m=True)
    with pytest.raises(ValueError, match="VehicleState.vx "):
        VehicleState(vx=True)
