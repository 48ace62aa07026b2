import math

import pytest

from conftest import GAINS, REST_STATE, q_body_z
from flybat.aero import DownwashModel, align_torque, downwash_force
from flybat.control import CascadedPid, default_config
from flybat.dynamics import GRAVITY, VehicleParams, body_constants, rk4_flat
from flybat.scenario import ScenarioError, default_scenario

MODEL = DownwashModel()


def test_far_field_decay():
    f = downwash_force(MODEL, (0.0, 0.0, 10.0), 10.0)
    assert abs(f[2]) < 1e-4 * 10.0


def test_closed_form_at_one_decay_length():
    thrust = 3.1392
    f = downwash_force(MODEL, (0.0, 0.0, MODEL.vertical_decay), thrust)
    expected = MODEL.peak_force_ratio * thrust / math.e
    assert f[0] == 0.0 and f[1] == 0.0
    assert -f[2] == pytest.approx(expected, abs=1e-9)


def test_upper_vehicle_unaffected():
    # the vehicle above its neighbour feels nothing (rel z < 0)
    f = downwash_force(MODEL, (0.1, 0.0, -0.3), 10.0)
    assert f == (0.0, 0.0, 0.0)
    t = align_torque(MODEL, (0.1, 0.0, -0.3))
    assert t == (0.0, 0.0, 0.0)


def test_planar_components_structurally_zero(rng):
    for _ in range(500):
        rel = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(0, 2)))
        f = downwash_force(MODEL, rel, float(rng.uniform(0, 30)))
        assert f[0] == 0.0 and f[1] == 0.0
        assert f[2] <= 0.0


def test_force_maximal_at_zero_offset_and_continuous():
    gap = 0.4
    peak = -downwash_force(MODEL, (0.0, 0.0, gap), 10.0)[2]
    prev = peak
    for i in range(1, 60):
        lat = i * 0.01
        mag = -downwash_force(MODEL, (lat, 0.0, gap), 10.0)[2]
        assert mag <= prev + 1e-15
        assert abs(mag - prev) < 0.2 * peak  # no jumps on a 1 cm grid
        prev = mag


def test_align_torque_zero_at_center_and_decays():
    assert align_torque(MODEL, (0.0, 0.0, 0.3)) == (0.0, 0.0, 0.0)
    peak = MODEL.align_torque_gain * 0.05 * math.exp(-((0.05 / MODEL.lateral_decay) ** 2))
    far = align_torque(MODEL, (3.0 * MODEL.lateral_decay + 0.05, 0.0, 0.0))
    mag = math.sqrt(far[0] ** 2 + far[1] ** 2)
    assert mag < 0.02 * peak


def test_align_torque_sign_reduces_offset_in_closed_loop():
    # lower vehicle holds altitude and tries to stay level; the induced
    # torque alone must tilt it toward the point beneath the upper one
    params = VehicleParams(mass=0.820, max_thrust=27.0, inertia=(0.008, 0.008, 0.014), k_p=164.4)
    pid = CascadedPid(default_config(params, *GAINS), params.mass)
    upper = (0.08, 0.05, 0.4)  # offset in both axes
    inv_mass, ii, jj = body_constants(params)
    state = REST_STATE
    dt = 0.001
    offset0 = math.hypot(upper[0] - 0.0, upper[1] - 0.0)
    for _ in range(4000):
        rel = (
            upper[0] - state[0],
            upper[1] - state[1],
            upper[2] - state[2],
        )
        tq = align_torque(MODEL, rel)
        level_tq = pid.attitude_flat(*state[6:13], (1.0, 0.0, 0.0, 0.0), dt)
        thrust = params.mass * GRAVITY
        zb = q_body_z(state[6:10])
        state = rk4_flat(
            state, dt, inv_mass, ii, jj,
            zb[0] * thrust, zb[1] * thrust, zb[2] * thrust,
            tq[0] + level_tq[0], tq[1] + level_tq[1], tq[2] + level_tq[2],
        )
    offset_end = math.hypot(upper[0] - state[0], upper[1] - state[1])
    assert offset_end < 0.6 * offset0


def test_model_validation():
    # the model is the scenario's [downwash] section, checked with it
    for key, value in (
        ("peak_force_ratio", 1.5),
        ("lateral_decay", 0.0),
        ("vertical_decay", -0.5),
        ("align_torque_gain", -1.0),
    ):
        sc = default_scenario()
        setattr(sc.downwash, key, value)
        with pytest.raises(ScenarioError, match=rf"^downwash\.{key} must be"):
            sc.validate()
