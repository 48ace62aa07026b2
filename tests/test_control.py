import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FF_EDGES, GAINS, REST_STATE, q_body_z
from flybat.aero import DownwashModel, downwash_force
from flybat.control import (
    POS_INT_LIMIT,
    YAW_INT_LIMIT,
    CascadedPid,
    ControlError,
    FeedforwardMap,
    build_ff_map,
    default_config,
    export_map_csv,
    feedforward_lookup,
    import_map_csv,
    map_from_model,
    zero_map,
)
from flybat.dynamics import GRAVITY, VehicleParams, body_constants, rk4_flat

PARAMS = VehicleParams(mass=0.820, max_thrust=27.0, inertia=(0.008, 0.008, 0.014), k_p=164.4)
CFG = default_config(PARAMS, *GAINS)


INV_MASS, II, JJ = body_constants(PARAMS)


def make_pid():
    return CascadedPid(CFG, PARAMS.mass)


def position(pid, state, dt, ref=(0.0, 0.0, 0.0), ff_thrust=0.0):
    """Hold a fixed reference point, no feedforward accel."""
    return pid.position_flat(*state[0:6], *ref, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ff_thrust, dt)


def attitude(pid, state, q_des, dt):
    return pid.attitude_flat(*state[6:13], q_des, dt)


def q_from_axis_angle(axis, angle):
    s = math.sin(0.5 * angle) / math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    return (math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def q_yaw(q):
    """Yaw angle (rotation about world z) of a body-to-world quaternion."""
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


# property tests draw the same examples on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def bits(*xs):
    return struct.pack(f"{len(xs)}d", *xs)


# ---------------------------------------------------------------------------
# reference control chain: the quaternion helpers that CascadedPid's
# position_flat and attitude_flat write out, composed as separate functions.
# The attitude construction takes any heading; position_flat is its
# heading-0 case, so ReferencePid calls it at yaw 0.0
# ---------------------------------------------------------------------------


def q_normalize(q):
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    inv = 1.0 / n
    return (q[0] * inv, q[1] * inv, q[2] * inv, q[3] * inv)


def q_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def q_conjugate(q):
    return (q[0], -q[1], -q[2], -q[3])


def q_from_yaw(yaw):
    half = 0.5 * yaw
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def q_error_rotvec(q_current, q_desired):
    """Body-frame axis-angle rotation taking q_current to q_desired,
    along the shortest arc."""
    e = q_multiply(q_conjugate(q_current), q_desired)
    w, x, y, z = e
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1.0e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    angle = 2.0 * math.atan2(s, w)
    k = angle / s
    return (x * k, y * k, z * k)


def matrix_to_quat(r0, r1, r2):
    """(quaternion, branch taken) of a rotation matrix given by rows."""
    m00, m01, m02 = r0
    m10, m11, m12 = r1
    m20, m21, m22 = r2
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = ((0.25 * s), (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
        return q_normalize(q), "trace"
    if m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        q = ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
        return q_normalize(q), "m00"
    if m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        q = ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
        return q_normalize(q), "m11"
    s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
    q = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
    return q_normalize(q), "m22"


def attitude_from_thrust_direction(f_des, yaw):
    """(quaternion whose body z axis points along f_des at the given yaw,
    path taken); pure yaw when f_des is near zero or points straight down."""
    fx, fy, fz = f_des
    n = math.sqrt(fx * fx + fy * fy + fz * fz)
    if n < 1.0e-9:
        return q_from_yaw(yaw), "zero_force"
    zx, zy, zz = fx / n, fy / n, fz / n
    if zz < -0.999999:
        return q_from_yaw(yaw), "straight_down"
    cx, cy = math.cos(yaw), math.sin(yaw)
    yx = zy * 0.0 - zz * cy
    yy = zz * cx - zx * 0.0
    yz = zx * cy - zy * cx
    yn = math.sqrt(yx * yx + yy * yy + yz * yz)
    yx, yy, yz = yx / yn, yy / yn, yz / yn
    xx = yy * zz - yz * zy
    xy = yz * zx - yx * zz
    xz = yx * zy - yy * zx
    return matrix_to_quat((xx, yx, zx), (xy, yy, zy), (xz, yz, zz))


class ReferencePid(CascadedPid):
    """CascadedPid with its control chain composed from the helpers
    above, at heading 0; path records the attitude construction's last
    branch."""

    path = None

    def retune(self, cfg, mass):
        super().retune(cfg, mass)
        self.cfg = cfg

    def position_flat(
        self, px, py, pz, vx, vy, vz, rx, ry, rz, rvx, rvy, rvz,
        ffx, ffy, ffz, ff_thrust, dt,
    ):
        cfg = self.cfg
        ex, ey, ez = rx - px, ry - py, rz - pz
        lim = POS_INT_LIMIT
        ix = self.ix + ex * dt
        iy = self.iy + ey * dt
        iz = self.iz + ez * dt
        self.ix = ix = lim if ix > lim else (-lim if ix < -lim else ix)
        self.iy = iy = lim if iy > lim else (-lim if iy < -lim else iy)
        self.iz = iz = lim if iz > lim else (-lim if iz < -lim else iz)
        ax = cfg.pos_p * ex + cfg.pos_i * ix + cfg.pos_d * (rvx - vx) + ffx
        ay = cfg.pos_p * ey + cfg.pos_i * iy + cfg.pos_d * (rvy - vy) + ffy
        az = cfg.pos_p * ez + cfg.pos_i * iz + cfg.pos_d * (rvz - vz) + ffz
        m = self.mass
        fx, fy, fz = m * ax, m * ay, m * (az + GRAVITY)
        thrust = math.sqrt(fx * fx + fy * fy + fz * fz) + ff_thrust
        if thrust < 0.0:
            thrust = 0.0
        elif thrust > cfg.max_thrust:
            thrust = cfg.max_thrust
        q_des, self.path = attitude_from_thrust_direction((fx, fy, fz), 0.0)
        return thrust, q_des

    def attitude_flat(self, qw, qx, qy, qz, wx, wy, wz, q_des, dt):
        cfg = self.cfg
        ex, ey, ez = q_error_rotvec((qw, qx, qy, qz), q_des)
        lim = YAW_INT_LIMIT
        iyaw = self.iyaw + ez * dt
        self.iyaw = iyaw = lim if iyaw > lim else (-lim if iyaw < -lim else iyaw)
        return (
            cfg.att_p[0] * ex - cfg.att_d[0] * wx,
            cfg.att_p[1] * ey - cfg.att_d[1] * wy,
            cfg.att_p[2] * ez - cfg.att_d[2] * wz + cfg.yaw_i * iyaw,
        )


# ---------------------------------------------------------------------------
# position loop
# ---------------------------------------------------------------------------


def test_equilibrium_commands_weight_and_level():
    pid = make_pid()
    thrust, q_des = position(pid, REST_STATE, 0.001)
    assert thrust == pytest.approx(PARAMS.mass * GRAVITY, rel=1e-12)
    err = q_error_rotvec((1.0, 0.0, 0.0, 0.0), q_des)
    assert max(abs(c) for c in err) < 1e-9


def test_feedforward_thrust_added_directly():
    pid = make_pid()
    thrust, _ = position(pid, REST_STATE, 0.001, ff_thrust=2.0)
    assert thrust == pytest.approx(PARAMS.mass * GRAVITY + 2.0, rel=1e-12)


def test_integrator_trims_constant_vertical_disturbance():
    # closed loop against a steady -1 N force: the integral term must
    # converge until the commanded thrust carries the extra newton
    pid = make_pid()
    state = (0.0, 0.0, 1.0, *REST_STATE[3:])
    ref = (0.0, 0.0, 1.0)
    dt = 0.001
    thrust = PARAMS.mass * GRAVITY
    for _ in range(30000):
        thrust, q_des = position(pid, state, dt, ref)
        torque = attitude(pid, state, q_des, dt)
        zb = q_body_z(state[6:10])
        state = rk4_flat(
            state, dt, INV_MASS, II, JJ,
            zb[0] * thrust, zb[1] * thrust, zb[2] * thrust - 1.0, *torque,
        )
    assert thrust - PARAMS.mass * GRAVITY == pytest.approx(1.0, rel=0.02)
    assert abs(state[2] - 1.0) < 0.01


def test_commanded_thrust_clamped():
    pid = make_pid()
    thrust, _ = position(pid, REST_STATE, 0.001, ref=(0.0, 0.0, 100.0))
    assert thrust == PARAMS.max_thrust
    pid.reset()
    thrust, _ = position(pid, REST_STATE, 0.001, ff_thrust=-100.0)
    assert thrust == 0.0


def test_integrators_bounded():
    pid = make_pid()
    ref = (50.0, -50.0, 50.0)
    for _ in range(20000):
        position(pid, REST_STATE, 0.001, ref)
    lim = POS_INT_LIMIT
    assert abs(pid.ix) <= lim and abs(pid.iy) <= lim and abs(pid.iz) <= lim


# ---------------------------------------------------------------------------
# attitude loop
# ---------------------------------------------------------------------------


def test_attitude_zero_error_zero_torque():
    pid = make_pid()
    torque = attitude(pid, REST_STATE, (1.0, 0.0, 0.0, 0.0), 0.001)
    assert max(abs(c) for c in torque) < 1e-12


def test_attitude_small_step_linear_gain():
    pid = make_pid()
    q_des = q_from_axis_angle((1.0, 0.0, 0.0), 0.1)
    torque = attitude(pid, REST_STATE, q_des, 0.001)
    assert torque[0] == pytest.approx(CFG.att_p[0] * 0.1, abs=1e-6)
    assert abs(torque[1]) < 1e-9


def _settle_time(ts, xs, final, band):
    last_out = 0.0
    for t, x in zip(ts, xs):
        if abs(x - final) > band:
            last_out = t
    return last_out


def test_attitude_step_settles_like_second_order_prediction():
    # oracle: the linearized loop about one axis is a second-order system
    # I*th'' = kp*(thd - th) - kd*th'; integrate it independently (small
    # fixed-step midpoint) and compare 2% settling times
    pid = make_pid()
    kp, kd = CFG.att_p[0], CFG.att_d[0]
    inertia = PARAMS.inertia[0]
    step = 0.1
    dt = 0.0005

    th, thd = 0.0, 0.0
    lin_ts, lin_xs = [], []
    for i in range(8000):
        acc = (kp * (step - th) - kd * thd) / inertia
        thd += acc * dt
        th += thd * dt
        lin_ts.append(i * dt)
        lin_xs.append(th)
    t_lin = _settle_time(lin_ts, lin_xs, step, 0.02 * step)

    q_des = q_from_axis_angle((1.0, 0.0, 0.0), step)
    state = REST_STATE
    sim_ts, sim_xs = [], []
    for i in range(8000):
        torque = attitude(pid, state, q_des, dt)
        state = rk4_flat(
            state, dt, INV_MASS, II, JJ, 0.0, 0.0, PARAMS.mass * GRAVITY, *torque
        )
        roll = q_error_rotvec((1.0, 0.0, 0.0, 0.0), state[6:10])[0]
        sim_ts.append(i * dt)
        sim_xs.append(roll)
    assert sim_xs[-1] == pytest.approx(step, rel=0.02)
    t_sim = _settle_time(sim_ts, sim_xs, step, 0.02 * step)
    assert t_sim == pytest.approx(t_lin, rel=0.2)


def test_yaw_integral_removes_steady_yaw_error():
    # constant body-z disturbance torque; integral action must pull the
    # steady-state yaw error under half a degree
    pid = make_pid()
    state = REST_STATE
    dt = 0.001
    for _ in range(20000):
        thrust, q_des = position(pid, state, dt)
        torque = attitude(pid, state, q_des, dt)
        zb = q_body_z(state[6:10])
        state = rk4_flat(
            state, dt, INV_MASS, II, JJ,
            zb[0] * thrust, zb[1] * thrust, zb[2] * thrust,
            torque[0], torque[1], torque[2] + 0.02,
        )
    assert abs(math.degrees(q_yaw(state[6:10]))) < 0.5


# ---------------------------------------------------------------------------
# the written-out control chain against ReferencePid, bit for bit
# ---------------------------------------------------------------------------

LEVEL = (1.0, 0.0, 0.0, 0.0)

# (desired force, heading, path of the composed attitude construction):
# only a heading other than 0 reaches the m11 and m22 branches
ATTITUDE_PATHS = [
    ((0.0, 0.0, 1.0), 0.0, "trace"),
    ((1.0, 0.0, -0.5), 0.0, "m00"),
    ((-0.5, 1.0, -0.5), 3.0, "m11"),
    ((0.0, 0.0, 1.0), 3.0, "m22"),
    ((0.0, 0.0, 0.0), 0.0, "zero_force"),
    ((0.0, 0.0, -1.0), 0.0, "straight_down"),
]

# (desired force, attitude path) at heading 0: with unit mass, zero
# errors and zero integrators, the feedforward acceleration
# (fx, fy, fz - g) asks position_flat for this force
FORCE_PATHS = [(force, path) for force, yaw, path in ATTITUDE_PATHS if yaw == 0.0]

# the paths the attitude construction can take at heading 0; a force
# along world x leaves the triad's y axis at zero length, where the
# composed reference divides by zero and position_flat holds heading 0
HEADING_0_PATHS = {"trace", "m00", "zero_force", "straight_down", "along_heading"}

# (current attitude, desired attitude, error path)
ERROR_PATHS = [
    ((0.6, 0.8, 0.0, 0.0), LEVEL, "plain"),
    ((-0.5, 0.5, 0.5, 0.5), LEVEL, "flip"),  # conj(q) * q_des has w < 0
    (LEVEL, LEVEL, "small_angle"),  # s == 0
    (LEVEL, (1.0, 0.0, 0.0, 1e-13), "small_angle"),  # 0 < s < 1e-12
]


def force_args(force):
    fx, fy, fz = force
    return (0.0,) * 12 + (fx, fy, fz - GRAVITY, 0.0)


def error_path(q, q_des):
    w, x, y, z = q_multiply(q_conjugate(q), q_des)
    if math.sqrt(x * x + y * y + z * z) < 1.0e-12:
        return "small_angle"
    return "flip" if w < 0.0 else "plain"


def run_chain(pid, ints, pos_args, att_args):
    """Bits of one position + attitude step from integrators ints (the
    thrust, attitude and torque), then of the integrators after it."""
    pid.ix, pid.iy, pid.iz, pid.iyaw = ints
    thrust, q_des = pid.position_flat(*pos_args)
    out = bits(thrust, *q_des, *pid.attitude_flat(*att_args, q_des, pos_args[-1]))
    return out, bits(pid.ix, pid.iy, pid.iz, pid.iyaw)


@pytest.mark.parametrize("force, yaw, path", ATTITUDE_PATHS)
def test_force_examples_reach_each_attitude_path(force, yaw, path):
    assert attitude_from_thrust_direction(force, yaw)[1] == path
    if yaw == 0.0:
        pid = ReferencePid(default_config(PARAMS, *GAINS), 1.0)
        pid.position_flat(*force_args(force), 0.001)
        assert pid.path == path


def _heading_0_path(force):
    try:
        return attitude_from_thrust_direction(force, 0.0)[1]
    except ZeroDivisionError:
        # only the triad's y axis, of squared length zy^2 + zz^2 at
        # heading 0, may divide by zero
        fx, fy, fz = force
        n = math.sqrt(fx * fx + fy * fy + fz * fz)
        zy, zz = fy / n, fz / n
        assert zy * zy + zz * zz == 0.0, force
        return "along_heading"


# any finite float, and floats with full mantissas near the unit sphere
_force_component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0).map(lambda v: v * 1.0123456789012345),
)


@settings(PROPERTY, max_examples=1000)
@given(force=st.tuples(*[_force_component] * 3))
@example(force=(1.0, 0.0, -0.5))
@example(force=(-1.0, 1e-200, -1e-300))
@example(force=(1e-300, 0.0, 5e-324))
def test_heading_0_reaches_only_the_trace_or_m00_branch_or_a_fallback(force):
    # position_flat keeps only these branches: at heading 0 and yn > 0,
    # x_b's x component xx = (zz/yn)*zz + (zy/yn)*zy is positive, and a
    # trace at or below zero forces zz < 0 and so y_b's y component
    # zz/yn < 0: xx is the largest diagonal entry
    assert _heading_0_path(force) in HEADING_0_PATHS


@pytest.mark.parametrize("q, q_des, path", ERROR_PATHS)
def test_error_examples_reach_each_error_path(q, q_des, path):
    assert error_path(q, q_des) == path


def _floats(bound):
    """Floats within +-bound, scaled off the round numbers hypothesis
    favours so that most carry full mantissas: a change in the order of
    float operations then shows in the last bit."""
    return st.floats(-1.0, 1.0).map(lambda v: v * (bound * 0.9876543210987654))


def _force_example(force):
    return example(mass=1.0, ints=(0.0,) * 4, pos=force_args(force), dt=0.001, att=REST_STATE[6:13])


@settings(PROPERTY, max_examples=200)
@given(
    mass=st.sampled_from([1.0, PARAMS.mass]),
    ints=st.tuples(*[_floats(3.0)] * 4),
    pos=st.tuples(*[_floats(20.0)] * 16),
    dt=st.sampled_from([0.001, 0.01]),
    att=st.tuples(*[_floats(1.0)] * 4, *[_floats(10.0)] * 3),
)
@_force_example(FORCE_PATHS[0][0])
@_force_example(FORCE_PATHS[1][0])
@_force_example(FORCE_PATHS[2][0])
@_force_example(FORCE_PATHS[3][0])
def test_position_and_attitude_match_reference_bit_for_bit(mass, ints, pos, dt, att):
    cfg = default_config(PARAMS, *GAINS)
    pos_args = (*pos, dt)
    fused = run_chain(CascadedPid(cfg, mass), ints, pos_args, att)
    assert fused == run_chain(ReferencePid(cfg, mass), ints, pos_args, att)


@pytest.mark.parametrize("fx", [1.0, -1.0])
def test_force_along_heading_falls_back_to_pure_yaw(fx):
    # a horizontal force along the heading, world x, leaves the triad's
    # y axis z_b x x_c at zero length: the composed reference divides by
    # zero, and position_flat holds the heading instead
    cfg = default_config(PARAMS, *GAINS)
    pos_args = (*force_args((fx, 0.0, 0.0)), 0.001)
    with pytest.raises(ZeroDivisionError):
        ReferencePid(cfg, 1.0).position_flat(*pos_args)
    assert CascadedPid(cfg, 1.0).position_flat(*pos_args) == (1.0, q_from_yaw(0.0))


def test_position_and_attitude_match_reference_on_uniform_draws():
    # hypothesis favours special values and small edits of one example;
    # uniform draws reach generic roundings in both matrix branches
    rnd = random.Random(7)
    cfg = default_config(PARAMS, *GAINS)
    for _ in range(4000):
        ints = tuple(rnd.uniform(-3.0, 3.0) for _ in range(4))
        pos_args = (*(rnd.uniform(-20.0, 20.0) for _ in range(16)), 0.001)
        att = (*(rnd.uniform(-1.0, 1.0) for _ in range(4)), *(rnd.uniform(-10.0, 10.0) for _ in range(3)))
        fused = run_chain(CascadedPid(cfg, PARAMS.mass), ints, pos_args, att)
        assert fused == run_chain(ReferencePid(cfg, PARAMS.mass), ints, pos_args, att), pos_args


def _error_example(q, q_des):
    return example(q=q, q_des=q_des, rates=(0.5, -0.25, 2.0), iyaw=0.1, dt=0.001)


@settings(PROPERTY, max_examples=200)
@given(
    q=st.tuples(*[_floats(1.0)] * 4),
    q_des=st.tuples(*[_floats(1.0)] * 4),
    rates=st.tuples(*[_floats(10.0)] * 3),
    iyaw=_floats(1.0),
    dt=st.sampled_from([0.001, 0.01]),
)
@_error_example(*ERROR_PATHS[0][:2])
@_error_example(*ERROR_PATHS[1][:2])
@_error_example(*ERROR_PATHS[2][:2])
@_error_example(*ERROR_PATHS[3][:2])
def test_attitude_matches_reference_bit_for_bit(q, q_des, rates, iyaw, dt):
    cfg = default_config(PARAMS, *GAINS)
    out = []
    for pid in (CascadedPid(cfg, PARAMS.mass), ReferencePid(cfg, PARAMS.mass)):
        pid.iyaw = iyaw
        out.append(bits(*pid.attitude_flat(*q, *rates, q_des, dt), pid.iyaw))
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# feedforward map
# ---------------------------------------------------------------------------


def map_with(cells, fill=0.0):
    """A map on FF_EDGES holding fill, and cells[(i, j)] at bin (i, j)."""
    lat, gap = FF_EDGES
    rows = [[cells.get((i, j), fill) for j in range(len(gap) - 1)] for i in range(len(lat) - 1)]
    return FeedforwardMap(lat, gap, rows)


def test_lookup_outside_grid_is_zero():
    m = map_with({}, fill=3.0)
    assert feedforward_lookup(m, (1.0, 0.0, 0.5)) == 0.0
    assert feedforward_lookup(m, (0.0, 0.0, 2.0)) == 0.0
    assert feedforward_lookup(m, (0.0, 0.0, -0.1)) == 0.0


def test_lookup_grid_node_exact():
    m = map_with({(3, 4): 1.75})
    lat = m.lat_centers[3]
    gap = m.gap_centers[4]
    assert feedforward_lookup(m, (lat, 0.0, gap)) == pytest.approx(1.75, abs=1e-12)
    assert feedforward_lookup(m, (0.0, lat, gap)) == pytest.approx(1.75, abs=1e-12)


def test_lookup_cell_center_averages_four_nodes():
    m = map_with({(2, 2): 1.0, (3, 2): 2.0, (2, 3): 3.0, (3, 3): 4.0})
    lat = 0.5 * (m.lat_centers[2] + m.lat_centers[3])
    gap = 0.5 * (m.gap_centers[2] + m.gap_centers[3])
    assert feedforward_lookup(m, (lat, 0.0, gap)) == pytest.approx(2.5, abs=1e-9)


def numpy_interp_axis(centers, x):
    if x <= centers[0]:
        return 0, 0, 0.0
    if x >= centers[-1]:
        n = len(centers) - 1
        return n, n, 0.0
    j = int(np.searchsorted(centers, x)) - 1
    t = (x - centers[j]) / (centers[j + 1] - centers[j])
    return j, j + 1, float(t)


def numpy_feedforward_lookup(ff_map, rel_pos):
    """feedforward_lookup on numpy arrays and numpy scalars built from
    the map's edges and values, with the bin centers computed in numpy."""
    lat_edges = np.array(ff_map.lat_edges)
    gap_edges = np.array(ff_map.gap_edges)
    gap = rel_pos[2]
    if gap < 0.0:
        return 0.0
    lateral = math.hypot(rel_pos[0], rel_pos[1])
    if lateral > lat_edges[-1] or gap > gap_edges[-1]:
        return 0.0
    i0, i1, ti = numpy_interp_axis(0.5 * (lat_edges[:-1] + lat_edges[1:]), lateral)
    j0, j1, tj = numpy_interp_axis(0.5 * (gap_edges[:-1] + gap_edges[1:]), gap)
    v = np.array(ff_map.values)
    a = v[i0, j0] * (1.0 - tj) + v[i0, j1] * tj
    b = v[i1, j0] * (1.0 - tj) + v[i1, j1] * tj
    return float(a * (1.0 - ti) + b * ti)


def _edges(max_bins):
    steps = st.lists(st.floats(0.01, 0.5), min_size=1, max_size=max_bins)
    return steps.map(lambda ds: tuple(np.cumsum([0.0, *ds]).tolist()))


def _axis_point(edges, centers):
    """On a center, on an edge, outside the support or anywhere."""
    marks = [*edges, *centers]
    return st.one_of(
        st.sampled_from(marks),
        st.floats(-0.5, float(edges[-1]) + 0.5),
        st.sampled_from([-1e-300, -0.0, 0.0, float(edges[-1]) * (1 + 1e-15), 1e9]),
    )


def test_float_lookup_matches_numpy_lookup_on_centers_and_edges():
    m = map_with({(2, 3): 1.5, (3, 3): 0.25, (8, 10): 2.0})
    for x in (*m.lat_centers, *m.lat_edges, -0.2, 0.45):
        for g in (*m.gap_centers, *m.gap_edges, -0.1, -0.0, 1.2):
            rel = (float(x), 0.0, float(g))
            assert bits(feedforward_lookup(m, rel)) == bits(numpy_feedforward_lookup(m, rel)), rel


@PROPERTY
@given(data=st.data())
def test_float_lookup_matches_numpy_lookup_bit_for_bit(data):
    lat = data.draw(_edges(9))
    gap = data.draw(_edges(11))
    shape = (len(lat) - 1, len(gap) - 1)
    n = shape[0] * shape[1]
    flat = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    m = FeedforwardMap(lat, gap, np.array(flat).reshape(shape))
    for _ in range(8):
        x = data.draw(_axis_point(m.lat_edges, m.lat_centers))
        g = data.draw(_axis_point(m.gap_edges, m.gap_centers))
        angle = data.draw(st.sampled_from([0.0, 0.5, 2.0]))
        rel = (x * math.cos(angle), x * math.sin(angle), g)
        assert bits(feedforward_lookup(m, rel)) == bits(numpy_feedforward_lookup(m, rel)), rel


def test_build_map_empty_telemetry_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="flybat.control"):
        m = build_ff_map([], *FF_EDGES)
    assert m.values == zero_map(*FF_EDGES).values
    assert any("zero map" in rec.message for rec in caplog.records)


def test_build_map_single_sample():
    m0 = zero_map(*FF_EDGES)
    lat = float(m0.lat_centers[1])
    gap = float(m0.gap_centers[2])
    m = build_ff_map([((lat, 0.0, gap), 0.8)], *FF_EDGES)
    assert m.values[1][2] == pytest.approx(0.8)
    total = float(np.sum(m.values))
    assert total == pytest.approx(0.8)


def test_build_map_round_trip_against_downwash_model(rng):
    # synthetic telemetry: integral offsets equal to the model's force
    # magnitude at random relative positions; bin averages must land
    # within 5% RMS of the model at the bin centers
    model = DownwashModel()
    thrust = 0.320 * GRAVITY
    samples = []
    for _ in range(40000):
        lat = float(rng.uniform(0.0, 0.4))
        gap = float(rng.uniform(0.0, 1.0))
        ang = float(rng.uniform(0.0, 2 * math.pi))
        rel = (lat * math.cos(ang), lat * math.sin(ang), gap)
        samples.append((rel, -downwash_force(model, rel, thrust)[2]))
    m = build_ff_map(samples, *FF_EDGES)
    ref = map_from_model(model, thrust, *FF_EDGES)
    err = np.array(m.values) - np.array(ref.values)
    rms = math.sqrt(float(np.mean(err**2)))
    scale = math.sqrt(float(np.mean(np.array(ref.values) ** 2)))
    assert rms < 0.05 * scale


def test_map_csv_round_trip(tmp_path):
    model = DownwashModel()
    m = map_from_model(model, 3.14, *FF_EDGES)
    path = tmp_path / "ffmap.csv"
    export_map_csv(m, path)
    back = import_map_csv(path)
    assert back == m


def test_map_validation():
    lat, gap = FF_EDGES
    nl, ng = len(lat) - 1, len(gap) - 1
    short_row = [[0.0] * ng] * (nl - 1) + [[0.0] * (ng - 1)]
    for values in (np.zeros((3, 3)), [[0.0] * ng] * (nl - 1), short_row):
        with pytest.raises(ControlError, match="do not match bins"):
            FeedforwardMap(lat, gap, values)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ControlError, match="finite and non-negative"):
            map_with({(1, 1): bad})


@pytest.mark.parametrize(
    "lat,gap",
    [
        ((0.4, 0.2, 0.0), (0.0, 0.5)),  # decreasing: every lookup would read 0
        ((0.0, 0.2, 0.2), (0.0, 0.5)),  # a repeated edge
        ((0.0, 0.2), (0.0, math.nan)),
        ((0.0, math.inf), (0.0, 0.5)),
        ((-math.inf, 0.2), (0.0, 0.5)),
        ((0.2,), (0.0, 0.5)),  # no bin
    ],
)
def test_map_rejects_edges_not_finite_and_strictly_increasing(lat, gap):
    values = [[1.0] * max(len(gap) - 1, 0)] * max(len(lat) - 1, 0)
    with pytest.raises(ControlError, match="must be two or more finite, strictly increasing edges"):
        FeedforwardMap(lat, gap, values)


# the cases test_cli.py's BAD_INPUTS does not run through `flybat run`
@pytest.mark.parametrize(
    "body,fault",
    [
        ("gap_edges,0,0.5\nlat_edges,0,0.2\n1\n", "lat_edges row missing or mislabelled"),
        ("lat_edges,0,0.2\ngap_edges,0,0.5\nx\n", "could not convert"),
    ],
)
def test_import_map_csv_names_the_file_and_the_fault(tmp_path, body, fault):
    path = tmp_path / "bad_map.csv"
    path.write_text("# ff_map schema=1\n" + body)
    with pytest.raises(ControlError, match=f"^{re.escape(str(path))}: .*{fault}"):
        import_map_csv(path)
