import math

import numpy as np
import pytest

from conftest import REST_STATE
from flybat.aero import DownwashModel, downwash_force
from flybat.control import (
    CascadedPid,
    ControlError,
    build_ff_map,
    default_config,
    default_edges,
    export_map_csv,
    feedforward_lookup,
    import_map_csv,
    map_from_model,
    zero_map,
)
from flybat.dynamics import GRAVITY, VehicleParams, inertia_rows, rk4_flat
from flybat.geom import q_body_z, q_error_rotvec

PARAMS = VehicleParams(
    mass=0.820, arm_length=0.165, prop_diameter=0.203, max_thrust=27.0,
    inertia=np.diag([0.008, 0.008, 0.014]), k_p=164.4,
)


INV_MASS = 1.0 / PARAMS.mass
II, JJ = inertia_rows(PARAMS.inertia)


def make_pid():
    return CascadedPid(default_config(PARAMS), PARAMS.mass)


def position(pid, state, dt, ref=(0.0, 0.0, 0.0), ff_thrust=0.0):
    """Hold a fixed reference point at zero yaw, no feedforward accel."""
    return pid.position_flat(
        *state[0:6], *ref, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ff_thrust, 0.0, dt
    )


def attitude(pid, state, q_des, dt):
    return pid.attitude_flat(*state[6:13], q_des, dt)


def q_from_axis_angle(axis, angle):
    s = math.sin(0.5 * angle) / math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
    return (math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def q_yaw(q):
    """Yaw angle (rotation about world z) of a body-to-world quaternion."""
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


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
    lim = pid.cfg.pos_int_limit
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
    assert torque[0] == pytest.approx(pid.cfg.att_p[0] * 0.1, abs=1e-6)
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
    kp, kd = pid.cfg.att_p[0], pid.cfg.att_d[0]
    inertia = float(PARAMS.inertia[0, 0])
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
# feedforward map
# ---------------------------------------------------------------------------


def test_lookup_outside_grid_is_zero():
    m = zero_map()
    m.values[:] = 3.0
    assert feedforward_lookup(m, (1.0, 0.0, 0.5)) == 0.0
    assert feedforward_lookup(m, (0.0, 0.0, 2.0)) == 0.0
    assert feedforward_lookup(m, (0.0, 0.0, -0.1)) == 0.0


def test_lookup_grid_node_exact():
    m = zero_map()
    m.values[3, 4] = 1.75
    lat = m.lat_centers[3]
    gap = m.gap_centers[4]
    assert feedforward_lookup(m, (lat, 0.0, gap)) == pytest.approx(1.75, abs=1e-12)
    assert feedforward_lookup(m, (0.0, lat, gap)) == pytest.approx(1.75, abs=1e-12)


def test_lookup_cell_center_averages_four_nodes():
    m = zero_map()
    m.values[2, 2] = 1.0
    m.values[3, 2] = 2.0
    m.values[2, 3] = 3.0
    m.values[3, 3] = 4.0
    lat = 0.5 * (m.lat_centers[2] + m.lat_centers[3])
    gap = 0.5 * (m.gap_centers[2] + m.gap_centers[3])
    assert feedforward_lookup(m, (lat, 0.0, gap)) == pytest.approx(2.5, abs=1e-9)


def test_build_map_empty_telemetry_warns(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="flybat.control"):
        m = build_ff_map([])
    assert np.all(m.values == 0.0)
    assert any("zero map" in rec.message for rec in caplog.records)


def test_build_map_single_sample():
    m0 = zero_map()
    lat = float(m0.lat_centers[1])
    gap = float(m0.gap_centers[2])
    m = build_ff_map([((lat, 0.0, gap), 0.8)])
    assert m.values[1, 2] == pytest.approx(0.8)
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
    m = build_ff_map(samples)
    ref = map_from_model(model, thrust)
    err = m.values - ref.values
    rms = math.sqrt(float(np.mean(err**2)))
    scale = math.sqrt(float(np.mean(ref.values**2)))
    assert rms < 0.05 * scale


def test_map_csv_round_trip(tmp_path):
    model = DownwashModel()
    m = map_from_model(model, 3.14)
    path = tmp_path / "ffmap.csv"
    export_map_csv(m, path)
    back = import_map_csv(path)
    assert np.array_equal(back.lat_edges, m.lat_edges)
    assert np.array_equal(back.gap_edges, m.gap_edges)
    assert np.allclose(back.values, m.values, rtol=0, atol=1e-12)


def test_map_validation():
    lat, gap = default_edges()
    with pytest.raises(ControlError):
        from flybat.control import FeedforwardMap

        FeedforwardMap(lat, gap, np.zeros((3, 3)))
