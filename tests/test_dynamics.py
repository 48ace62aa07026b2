import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REST_STATE
from flybat.dynamics import (
    GRAVITY,
    MOUNT_HEIGHT,
    MOUNT_OFFSET,
    DynamicsError,
    VehicleParams,
    body_constants,
    composite_params,
    contact_load,
    docked_mass_share,
    rk4_flat,
)

MAIN = dict(mass=0.820, max_thrust=27.0, inertia=(0.008, 0.008, 0.014), k_p=164.4)
FB = dict(mass=0.320, max_thrust=8.0, inertia=(0.0007, 0.0007, 0.0012), k_p=250.0)


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
    return rk4_flat(state, dt, *body_constants(p), *force, *torque)


# ---------------------------------------------------------------------------
# reference: the general-inertia kernel rk4_flat replaced, unchanged
# ---------------------------------------------------------------------------


def inertia_rows(inertia: np.ndarray):
    """Inertia and its inverse as flat row tuples for rk4_general."""
    inv = np.linalg.inv(inertia)
    i = tuple(float(x) for x in inertia.reshape(-1))
    j = tuple(float(x) for x in inv.reshape(-1))
    return i, j


def rk4_general(s, dt, inv_mass, ii, jj, fx, fy, fz, tx, ty, tz):
    """rk4_flat for a full 3x3 inertia, as it was before the kernel moved
    to principal axes. One fixed step with the wrench held constant.

    The force (fx, fy, fz) is world-frame and excludes gravity, which
    the integrator adds; the torque (tx, ty, tz) is body-frame. The
    rotational states (quaternion, body rates) take a classical RK4
    step (stages unrolled; this is the 1 kHz hot path); under a
    zero-order-hold force the translational RK4 stages collapse to the
    exact constant-acceleration update, which is applied in closed form.
    The attitude is renormalized after the combine."""
    ax = fx * inv_mass
    ay = fy * inv_mass
    az = fz * inv_mass - GRAVITY
    px, py, pz, vx, vy, vz = s[0], s[1], s[2], s[3], s[4], s[5]
    qw, qx, qy, qz, wx, wy, wz = s[6], s[7], s[8], s[9], s[10], s[11], s[12]

    half_dt2 = 0.5 * dt * dt
    npx = px + vx * dt + ax * half_dt2
    npy = py + vy * dt + ay * half_dt2
    npz = pz + vz * dt + az * half_dt2
    nvx = vx + ax * dt
    nvy = vy + ay * dt
    nvz = vz + az * dt

    i0, i1, i2, i3, i4, i5, i6, i7, i8 = ii
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = jj

    # stage 1
    lx = i0 * wx + i1 * wy + i2 * wz
    ly = i3 * wx + i4 * wy + i5 * wz
    lz = i6 * wx + i7 * wy + i8 * wz
    mx = tx - (wy * lz - wz * ly)
    my = ty - (wz * lx - wx * lz)
    mz = tz - (wx * ly - wy * lx)
    a_qw = 0.5 * (-qx * wx - qy * wy - qz * wz)
    a_qx = 0.5 * (qw * wx + qy * wz - qz * wy)
    a_qy = 0.5 * (qw * wy - qx * wz + qz * wx)
    a_qz = 0.5 * (qw * wz + qx * wy - qy * wx)
    a_wx = j0 * mx + j1 * my + j2 * mz
    a_wy = j3 * mx + j4 * my + j5 * mz
    a_wz = j6 * mx + j7 * my + j8 * mz

    # stage 2
    h = 0.5 * dt
    sqw = qw + h * a_qw
    sqx = qx + h * a_qx
    sqy = qy + h * a_qy
    sqz = qz + h * a_qz
    swx = wx + h * a_wx
    swy = wy + h * a_wy
    swz = wz + h * a_wz
    lx = i0 * swx + i1 * swy + i2 * swz
    ly = i3 * swx + i4 * swy + i5 * swz
    lz = i6 * swx + i7 * swy + i8 * swz
    mx = tx - (swy * lz - swz * ly)
    my = ty - (swz * lx - swx * lz)
    mz = tz - (swx * ly - swy * lx)
    b_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    b_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    b_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    b_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    b_wx = j0 * mx + j1 * my + j2 * mz
    b_wy = j3 * mx + j4 * my + j5 * mz
    b_wz = j6 * mx + j7 * my + j8 * mz

    # stage 3
    sqw = qw + h * b_qw
    sqx = qx + h * b_qx
    sqy = qy + h * b_qy
    sqz = qz + h * b_qz
    swx = wx + h * b_wx
    swy = wy + h * b_wy
    swz = wz + h * b_wz
    lx = i0 * swx + i1 * swy + i2 * swz
    ly = i3 * swx + i4 * swy + i5 * swz
    lz = i6 * swx + i7 * swy + i8 * swz
    mx = tx - (swy * lz - swz * ly)
    my = ty - (swz * lx - swx * lz)
    mz = tz - (swx * ly - swy * lx)
    c_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    c_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    c_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    c_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    c_wx = j0 * mx + j1 * my + j2 * mz
    c_wy = j3 * mx + j4 * my + j5 * mz
    c_wz = j6 * mx + j7 * my + j8 * mz

    # stage 4
    sqw = qw + dt * c_qw
    sqx = qx + dt * c_qx
    sqy = qy + dt * c_qy
    sqz = qz + dt * c_qz
    swx = wx + dt * c_wx
    swy = wy + dt * c_wy
    swz = wz + dt * c_wz
    lx = i0 * swx + i1 * swy + i2 * swz
    ly = i3 * swx + i4 * swy + i5 * swz
    lz = i6 * swx + i7 * swy + i8 * swz
    mx = tx - (swy * lz - swz * ly)
    my = ty - (swz * lx - swx * lz)
    mz = tz - (swx * ly - swy * lx)
    d_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    d_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    d_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    d_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    d_wx = j0 * mx + j1 * my + j2 * mz
    d_wy = j3 * mx + j4 * my + j5 * mz
    d_wz = j6 * mx + j7 * my + j8 * mz

    sixth = dt / 6.0
    nqw = qw + sixth * (a_qw + 2.0 * (b_qw + c_qw) + d_qw)
    nqx = qx + sixth * (a_qx + 2.0 * (b_qx + c_qx) + d_qx)
    nqy = qy + sixth * (a_qy + 2.0 * (b_qy + c_qy) + d_qy)
    nqz = qz + sixth * (a_qz + 2.0 * (b_qz + c_qz) + d_qz)
    nwx = wx + sixth * (a_wx + 2.0 * (b_wx + c_wx) + d_wx)
    nwy = wy + sixth * (a_wy + 2.0 * (b_wy + c_wy) + d_wy)
    nwz = wz + sixth * (a_wz + 2.0 * (b_wz + c_wz) + d_wz)
    qn = (nqw * nqw + nqx * nqx + nqy * nqy + nqz * nqz) ** 0.5
    # a collapsed norm means the state already blew up; propagate NaN to
    # the engine's finite checks instead of dividing by zero
    inv = 1.0 / qn if qn > 0.0 else float("nan")
    return (
        npx, npy, npz, nvx, nvy, nvz,
        nqw * inv, nqx * inv, nqy * inv, nqz * inv,
        nwx, nwy, nwz,
    )


def _bits(x):
    return struct.pack("<d", x)


def assert_matches_general(state, dt, inv_mass, moments, wrench):
    """rk4_flat on principal axes, with the inverse moments that
    body_constants computes, against rk4_general with the full diagonal
    inertia and its numpy inverse: every nonzero output bit for bit,
    zeros zero in both."""
    inverses = tuple(1.0 / i for i in moments)
    new = rk4_flat(state, dt, inv_mass, moments, inverses, *wrench)
    ref = rk4_general(state, dt, inv_mass, *inertia_rows(np.diag(moments)), *wrench)
    for k, (a, b) in enumerate(zip(new, ref)):
        if b == 0.0:
            assert a == 0.0, (k, a, b)
        elif math.isnan(b):
            assert math.isnan(a), (k, a, b)
        else:
            assert _bits(a) == _bits(b), (k, a, b)
    return new, ref


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1.0, -1.0])
_VALUE = _SPECIAL | st.floats(-20.0, 20.0, allow_nan=False)
_MOMENT = st.floats(1.0e-5, 2.0)


@settings(max_examples=400, deadline=None)
@given(
    moments=st.tuples(_MOMENT, _MOMENT, _MOMENT),
    state=st.tuples(*[_VALUE] * 13),
    wrench=st.tuples(*[_VALUE] * 6),
    inv_mass=st.floats(0.05, 50.0),
    dt=st.sampled_from([0.001, 0.0005, 0.01]),
)
def test_rk4_flat_matches_general_kernel_on_diagonal_inertia(moments, state, wrench, inv_mass, dt):
    # dropping the exactly-zero off-diagonal products may flip the sign
    # of a zero output, and nothing else
    assert_matches_general(state, dt, inv_mass, moments, wrench)


def test_rk4_flat_matches_general_kernel_bit_for_bit_without_zeros(rng):
    for p in (main_params(), fb_params(), composite_params(main_params(), fb_params(), MOUNT_HEIGHT)):
        for _ in range(200):
            state = tuple(rng.normal(scale=2.0, size=13).tolist())
            wrench = tuple(rng.normal(scale=5.0, size=6).tolist())
            new, ref = assert_matches_general(state, 0.001, 1.0 / p.mass, p.inertia, wrench)
            assert all(x != 0.0 for x in ref)
            assert [_bits(x) for x in new] == [_bits(x) for x in ref]


def numpy_composite_inertia(main, fb, mount_offset):
    """The docked pair's inertia matrix as composite_params built it with
    numpy, for a lateral offset too: the body inertias plus each
    vehicle's parallel-axis matrix m (|d|^2 E - d d^T)."""
    off = np.asarray(mount_offset, dtype=float)
    d_com = off * (fb.mass / (main.mass + fb.mass))

    def parallel_axis(m, d):
        return m * (float(d @ d) * np.eye(3) - np.outer(d, d))

    return (
        np.diag(main.inertia)
        + parallel_axis(main.mass, -d_com)
        + np.diag(fb.inertia)
        + parallel_axis(fb.mass, off - d_com)
    )


def test_body_constants_match_numpy_forms():
    # the host, the flying battery and the docked pair: the moments equal
    # the diagonal of the numpy matrix, whose products of inertia are
    # exactly zero, and the inverses the diagonal of np.linalg.inv
    main, fb = main_params(), fb_params()
    comp = composite_params(main, fb, MOUNT_HEIGHT)
    for p, matrix in (
        (main, np.diag(main.inertia)),
        (fb, np.diag(fb.inertia)),
        (comp, numpy_composite_inertia(main, fb, MOUNT_OFFSET)),
    ):
        inv_mass, ii, jj = body_constants(p)
        assert not np.any(matrix[~np.eye(3, dtype=bool)])
        assert [_bits(x) for x in ii] == [_bits(float(x)) for x in np.diag(matrix)]
        inv = np.linalg.inv(matrix)
        assert [_bits(x) for x in jj] == [_bits(float(x)) for x in np.diag(inv)]
        assert _bits(inv_mass) == _bits(1.0 / p.mass)


def test_composite_moments_match_numpy_parallel_axis_bit_for_bit(rng):
    main = main_params(max_thrust=100.0)
    for _ in range(2000):
        fb = fb_params(
            max_thrust=100.0,
            mass=float(rng.uniform(0.01, 2.0)),
            inertia=tuple(rng.uniform(1.0e-5, 0.05, size=3).tolist()),
        )
        height = float(rng.uniform(-0.5, 0.5))
        comp = composite_params(main, fb, height)
        ref = numpy_composite_inertia(main, fb, (0.0, 0.0, height))
        assert [_bits(x) for x in comp.inertia] == [_bits(float(x)) for x in np.diag(ref)]


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
    comp = composite_params(main_params(), fb_params(), 0.15)
    assert comp.mass == pytest.approx(1.140, abs=1e-12)
    assert comp.max_thrust == 27.0
    assert comp.k_p == main_params().k_p


def test_composite_vanishing_second_mass_is_identity():
    # a zero-mass vehicle violates the params invariant, so probe the limit
    m = main_params()
    tiny = fb_params(mass=1e-12, inertia=(1e-15, 1e-15, 1e-15))
    comp = composite_params(m, tiny, 0.15)
    assert comp.mass == pytest.approx(m.mass, abs=1e-9)
    assert np.allclose(comp.inertia, m.inertia, atol=1e-9)


def test_composite_point_mass_parallel_axis_oracle():
    # two 1 kg point masses 0.1 m apart along z: the pair inertia about a
    # transverse axis through the COM is mu*d^2 with mu the reduced mass
    eps = (1e-9, 1e-9, 1e-9)
    a = VehicleParams(1.0, 20.0, eps, 100.0)
    b = VehicleParams(1.0, 20.0, eps, 100.0)
    d = 0.1
    mu = 1.0 * 1.0 / (1.0 + 1.0)
    expected = mu * d * d
    comp = composite_params(a, b, d)
    assert comp.inertia[0] == pytest.approx(expected, rel=1e-6)
    assert comp.inertia[1] == pytest.approx(expected, rel=1e-6)
    assert comp.inertia[2] == pytest.approx(0.0, abs=1e-8)


def test_composite_inertia_never_shrinks(rng):
    m = main_params()
    for _ in range(25):
        fb_mass = float(rng.uniform(0.05, 0.5))
        height = float(rng.uniform(-0.2, 0.2))
        comp = composite_params(m, fb_params(mass=fb_mass), height)
        assert all(c >= i - 1e-12 for c, i in zip(comp.inertia, m.inertia))
        assert comp.mass == pytest.approx(m.mass + fb_mass)


def test_vehicle_params_validation():
    with pytest.raises(DynamicsError, match="mass"):
        main_params(mass=-1.0)
    with pytest.raises(DynamicsError, match="hover"):
        main_params(max_thrust=5.0)
    for bad in ((0.008, -0.008, 0.014), (0.008, 0.008, 0.0), (0.008, math.nan, 0.014)):
        with pytest.raises(DynamicsError, match="three positive moments"):
            main_params(inertia=bad)
    for bad in ((0.008, 0.014), (0.008, 0.008, 0.014, 0.0)):
        with pytest.raises(DynamicsError, match="three positive moments"):
            main_params(inertia=bad)


# ---------------------------------------------------------------------------
# docked_mass_share / contact_load
# ---------------------------------------------------------------------------

SHARE = docked_mass_share(0.820, 0.320)


def test_docked_mass_share_rejects_a_zero_mass():
    with pytest.raises(DynamicsError, match="masses must be positive"):
        docked_mass_share(0.820, 0.0)


def test_docked_mass_share_rejects_a_negative_mass():
    with pytest.raises(DynamicsError, match="masses must be positive"):
        docked_mass_share(-0.820, 0.320)


_RAW = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(share=_RAW, thrust=_RAW, ext_axial=_RAW, ext_planar=_RAW, mu=_RAW)
@example(SHARE, -0.0, 0.0, 0.0, 0.3)
@example(SHARE, 0.0, -0.0, 0.0, 0.3)
@example(SHARE, -1.0, 0.0, 0.0, 0.3)
@example(SHARE, 11.18, -0.5, 0.0, 0.0)
def test_contact_load_is_the_inline_rule_bit_for_bit(share, thrust, ext_axial, ext_planar, mu):
    # the rule written out in floats: contact_load gives the same bits,
    # and holds exactly when the slip test passes
    normal = share * (thrust + ext_axial)
    friction = share * ext_planar
    slipping = not (normal >= 0.0 and friction <= mu * normal)
    got_normal, got_friction, held = contact_load(share, thrust, ext_axial, ext_planar, mu)
    assert _bits(got_normal) == _bits(normal)
    assert _bits(got_friction) == _bits(friction)
    assert held is not slipping


def test_contact_hover_docked_needs_no_friction():
    thrust = 1.140 * GRAVITY
    normal, friction, held = contact_load(SHARE, thrust, 0.0, 0.0, 0.3)
    assert normal == pytest.approx(0.320 * GRAVITY, abs=1e-12)
    assert normal == pytest.approx(3.14, abs=0.01)
    assert friction == 0.0
    assert held


def test_contact_zero_thrust_boundary():
    normal, friction, held = contact_load(SHARE, 0.0, 0.0, 0.0, 0.3)
    assert normal == 0.0
    assert friction == 0.0
    assert held


def test_contact_negative_thrust_disengages():
    normal, _, held = contact_load(SHARE, -1.0, 0.0, 0.0, 10.0)
    assert normal < 0.0
    assert not held


def test_contact_planar_drag_matches_newton_oracle():
    n_oracle, f_oracle = two_body_contact_oracle(0.820, 0.320, 1.140 * GRAVITY, 2.0)
    normal, friction, _ = contact_load(SHARE, 1.140 * GRAVITY, 0.0, 2.0, 0.3)
    assert friction == pytest.approx(f_oracle, abs=1e-12)
    assert friction == pytest.approx(2.0 * 0.320 / 1.140, abs=1e-12)
    assert normal == pytest.approx(n_oracle, abs=1e-12)


def test_contact_zero_planar_force_zero_friction_property(rng):
    for _ in range(2000):
        m_m = float(rng.uniform(0.1, 5.0))
        m_fb = float(rng.uniform(0.05, 2.0))
        thrust = float(rng.uniform(0.0, 60.0))
        normal, friction, _ = contact_load(docked_mass_share(m_m, m_fb), thrust, 0.0, 0.0, 0.3)
        assert friction == 0.0
        assert normal == pytest.approx(m_fb * thrust / (m_m + m_fb), abs=1e-9)


def test_contact_normal_force_scales_linearly(rng):
    base = contact_load(SHARE, 10.0, 0.0, 0.0, 0.3)[0]
    for _ in range(200):
        k = float(rng.uniform(0.1, 10.0))
        assert contact_load(SHARE, 10.0 * k, 0.0, 0.0, 0.3)[0] == pytest.approx(
            base * k, rel=1e-12
        )


def test_contact_retained_cases():
    # held: a compressive normal and the planar load inside the friction cone
    assert contact_load(SHARE, 10.0, 0.0, 0.0, 0.3)[2]
    assert contact_load(SHARE, 10.0, 0.0, 2.9, 0.3)[2]
    assert not contact_load(SHARE, 10.0, 0.0, 3.1, 0.3)[2]
    # no normal force cannot carry a planar load, whatever mu
    assert not contact_load(SHARE, 0.0, 0.0, 0.1, 10.0)[2]
    # an axial load that pulls harder than the thrust lets go
    assert not contact_load(SHARE, 10.0, -10.5, 0.0, 0.5)[2]
