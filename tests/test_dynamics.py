import math

import numpy as np
import pytest

from conftest import REST_STATE
from flybat.dynamics import (
    GRAVITY,
    ContactSolution,
    DynamicsError,
    VehicleParams,
    composite_params,
    contact_forces,
    contact_retained,
    inertia_rows,
    rk4_flat,
)

MAIN = dict(
    mass=0.820, max_thrust=27.0,
    inertia=np.diag([0.008, 0.008, 0.014]), k_p=164.4,
)
FB = dict(
    mass=0.320, max_thrust=8.0,
    inertia=np.diag([0.0007, 0.0007, 0.0012]), k_p=250.0,
)


def main_params(**over):
    return VehicleParams(**{**MAIN, **over})


def fb_params(**over):
    return VehicleParams(**{**FB, **over})


def two_body_contact_oracle(m_m, m_fb, thrust, f_ext):
    """Solve Newton's equations for the docked pair directly: unknowns
    (normal, friction) from zero relative acceleration along the thrust
    axis and the platform plane."""
    a = np.array([[1.0 / m_m + 1.0 / m_fb, 0.0], [0.0, 1.0 / m_m + 1.0 / m_fb]])
    b = np.array([thrust / m_m, f_ext / m_m])
    n, f = np.linalg.solve(a, b)
    return float(n), float(f)


def flat_state(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0), rates=(0.0, 0.0, 0.0)):
    return (*position, *velocity, 1.0, 0.0, 0.0, 0.0, *rates)


def step(state, p, dt, force=(0.0, 0.0, 0.0), torque=(0.0, 0.0, 0.0)):
    ii, jj = inertia_rows(p.inertia)
    return rk4_flat(state, dt, 1.0 / p.mass, ii, jj, *force, *torque)


# ---------------------------------------------------------------------------
# rk4_flat
# ---------------------------------------------------------------------------


def test_hover_holds_position():
    p = main_params()
    state = flat_state(position=(0.0, 0.0, 1.0))
    force = (0.0, 0.0, p.mass * GRAVITY)
    for _ in range(500):
        state = step(state, p, 0.001, force=force)
    assert max(abs(c) for c in (state[0], state[1], state[2] - 1.0)) < 1e-9
    assert max(abs(c) for c in state[3:6]) < 1e-9


def test_free_fall_velocity():
    p = main_params()
    state = REST_STATE
    for _ in range(100):
        state = step(state, p, 0.01)
    assert state[5] == pytest.approx(-9.81, abs=1e-6)


def test_constant_upward_force_altitude_gain():
    # closed-form oracle: z = 0.5 * a * t^2 with a = 0.2 g
    p = main_params()
    a = 0.2 * GRAVITY
    expected = 0.5 * a * 1.0**2
    assert expected == pytest.approx(0.981, abs=1e-12)
    force = (0.0, 0.0, p.mass * (GRAVITY + a))
    state = REST_STATE
    for _ in range(1000):
        state = step(state, p, 0.001, force=force)
    assert state[2] == pytest.approx(expected, abs=1e-4)


def test_torque_spins_body():
    p = main_params()
    state = REST_STATE
    for _ in range(100):
        state = step(state, p, 0.001, torque=(0.008, 0.0, 0.0))
    # w = (tau / Ixx) * t
    assert state[10] == pytest.approx(0.1, rel=1e-6)
    n = math.sqrt(sum(c * c for c in state[6:10]))
    assert n == pytest.approx(1.0, abs=1e-12)


def test_collapsed_quaternion_gives_nan_attitude():
    # a zero quaternion at zero rates stays zero through every stage, so
    # its norm collapses; the step returns NaN for the engine's finite
    # checks instead of raising ZeroDivisionError
    p = main_params()
    state = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    nxt = step(state, p, 0.001)
    assert all(math.isnan(c) for c in nxt[6:10])
    assert nxt[10:] == (0.0, 0.0, 0.0)


def test_zero_wrench_momentum_matches_gravity_impulse(rng):
    # horizontal momentum is conserved exactly; vertical changes by the
    # gravity impulse m*g*dt per step, with no numerical drift
    p = main_params()
    for _ in range(50):
        v0 = tuple(rng.normal(scale=3.0, size=3).tolist())
        w0 = tuple(rng.normal(scale=2.0, size=3).tolist())
        state = flat_state(velocity=v0, rates=w0)
        dt = 0.001
        nxt = step(state, p, dt)
        assert abs(p.mass * (nxt[3] - v0[0])) < 1e-9
        assert abs(p.mass * (nxt[4] - v0[1])) < 1e-9
        assert abs(p.mass * (nxt[5] - v0[2]) + p.mass * GRAVITY * dt) < 1e-9


# ---------------------------------------------------------------------------
# composite_params
# ---------------------------------------------------------------------------


def test_composite_mass_is_reference_docked_mass():
    comp = composite_params(main_params(), fb_params(), (0.0, 0.0, 0.15))
    assert comp.mass == pytest.approx(1.140, abs=1e-12)
    assert comp.max_thrust == 27.0
    assert comp.k_p == main_params().k_p


def test_composite_vanishing_second_mass_is_identity():
    # a zero-mass vehicle violates the params invariant, so probe the limit
    m = main_params()
    tiny = fb_params(mass=1e-12, inertia=np.eye(3) * 1e-15)
    comp = composite_params(m, tiny, (0.0, 0.0, 0.15))
    assert comp.mass == pytest.approx(m.mass, abs=1e-9)
    assert np.allclose(comp.inertia, m.inertia, atol=1e-9)


def test_composite_point_mass_parallel_axis_oracle():
    # two 1 kg point masses 0.1 m apart along z: the pair inertia about a
    # transverse axis through the COM is mu*d^2 with mu the reduced mass
    eps = np.eye(3) * 1e-9
    a = VehicleParams(1.0, 20.0, eps, 100.0)
    b = VehicleParams(1.0, 20.0, eps, 100.0)
    d = 0.1
    mu = 1.0 * 1.0 / (1.0 + 1.0)
    expected = mu * d * d
    comp = composite_params(a, b, (0.0, 0.0, d))
    assert comp.inertia[0, 0] == pytest.approx(expected, rel=1e-6)
    assert comp.inertia[1, 1] == pytest.approx(expected, rel=1e-6)
    assert comp.inertia[2, 2] == pytest.approx(0.0, abs=1e-8)


def test_composite_inertia_never_shrinks(rng):
    m = main_params()
    for _ in range(25):
        fb_mass = float(rng.uniform(0.05, 0.5))
        off = tuple(rng.uniform(-0.2, 0.2, size=3))
        comp = composite_params(m, fb_params(mass=fb_mass), off)
        ev_main = np.linalg.eigvalsh(m.inertia)
        ev_comp = np.linalg.eigvalsh(comp.inertia)
        assert np.all(ev_comp >= ev_main - 1e-12)
        assert comp.mass == pytest.approx(m.mass + fb_mass)


def test_vehicle_params_validation():
    with pytest.raises(DynamicsError, match="mass"):
        main_params(mass=-1.0)
    with pytest.raises(DynamicsError, match="hover"):
        main_params(max_thrust=5.0)
    with pytest.raises(DynamicsError, match="symmetric"):
        bad = np.diag([0.008, 0.008, 0.014])
        bad[0, 1] = 1.0
        main_params(inertia=bad)
    with pytest.raises(DynamicsError, match="positive definite"):
        main_params(inertia=np.diag([0.008, -0.008, 0.014]))


# ---------------------------------------------------------------------------
# contact_forces / contact_retained
# ---------------------------------------------------------------------------


def test_contact_hover_docked_needs_no_friction():
    thrust = 1.140 * GRAVITY
    sol = contact_forces(0.820, 0.320, thrust, 0.0)
    assert sol.normal_force == pytest.approx(0.320 * GRAVITY, abs=1e-12)
    assert sol.normal_force == pytest.approx(3.14, abs=0.01)
    assert sol.required_friction == 0.0
    assert sol.engaged


def test_contact_zero_thrust_boundary():
    sol = contact_forces(0.820, 0.320, 0.0, 0.0)
    assert sol.normal_force == 0.0
    assert sol.required_friction == 0.0
    assert sol.engaged


def test_contact_negative_thrust_disengages():
    sol = contact_forces(0.820, 0.320, -1.0, 0.0)
    assert not sol.engaged


def test_contact_planar_drag_matches_newton_oracle():
    n_oracle, f_oracle = two_body_contact_oracle(0.820, 0.320, 1.140 * GRAVITY, 2.0)
    sol = contact_forces(0.820, 0.320, 1.140 * GRAVITY, 2.0)
    assert sol.required_friction == pytest.approx(f_oracle, abs=1e-12)
    assert sol.required_friction == pytest.approx(2.0 * 0.320 / 1.140, abs=1e-12)
    assert sol.normal_force == pytest.approx(n_oracle, abs=1e-12)


def test_contact_zero_planar_force_zero_friction_property(rng):
    for _ in range(2000):
        m_m = float(rng.uniform(0.1, 5.0))
        m_fb = float(rng.uniform(0.05, 2.0))
        thrust = float(rng.uniform(0.0, 60.0))
        sol = contact_forces(m_m, m_fb, thrust, 0.0)
        assert sol.required_friction == 0.0
        assert sol.normal_force == pytest.approx(m_fb * thrust / (m_m + m_fb), abs=1e-9)


def test_contact_normal_force_scales_linearly(rng):
    m_m, m_fb = 0.820, 0.320
    base = contact_forces(m_m, m_fb, 10.0).normal_force
    for _ in range(200):
        k = float(rng.uniform(0.1, 10.0))
        assert contact_forces(m_m, m_fb, 10.0 * k).normal_force == pytest.approx(
            base * k, rel=1e-12
        )


def test_contact_retained_cases():
    ok = ContactSolution(normal_force=3.14, required_friction=0.0, engaged=True)
    assert contact_retained(ok, 0.3)
    no_normal = ContactSolution(normal_force=0.0, required_friction=0.1, engaged=True)
    assert not contact_retained(no_normal, 10.0)
    disengaged = ContactSolution(normal_force=1.0, required_friction=0.0, engaged=False)
    assert not contact_retained(disengaged, 0.5)
    with pytest.raises(DynamicsError):
        contact_retained(ok, -0.1)
