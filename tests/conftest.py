import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import flybat
from flybat.control import CascadedPid
from flybat.scenario import ControlSection, Scenario, build_world_inputs, default_scenario

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = Path(flybat.__file__).resolve().parent.parent

# a vehicle at rest at the origin, level, as the flat 13-tuple
# (px,py,pz, vx,vy,vz, qw,qx,qy,qz, wx,wy,wz)
REST_STATE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

# the [control] section's default pole-placement gains, in default_config's
# argument order, and its feedforward map bin edges
_CONTROL = ControlSection()
GAINS = (_CONTROL.pos_wn, _CONTROL.pos_zeta, _CONTROL.att_wn, _CONTROL.att_zeta)
FF_EDGES = _CONTROL.ff_edges()


def q_body_z(q):
    """World-frame direction of the body z axis (thrust axis) of unit
    quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    return (2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@lru_cache(maxsize=1)
def full_scale_main_kp() -> float:
    """Host k_p calibrated against the full-size primary pack."""
    return build_world_inputs(default_scenario()).main_params.k_p


def scaled_mission_scenario(
    name: str = "scaled",
    fleet_size: int = 2,
    ground_recharge: bool = True,
    contact_failure_probability: float = 0.0,
    pack_scale: float = 0.08,
    seed: int = 3,
) -> Scenario:
    """Mission scenario with pack capacities scaled down so full missions
    run in a few simulated minutes. The host k_p stays at its full-scale
    calibration, so hover power is unchanged and all timing ratios
    shrink together."""
    sc = default_scenario(name)
    sc.vehicles.main.k_p = full_scale_main_kp()
    sc.batteries.primary.capacity_ah *= pack_scale
    sc.batteries.secondary.capacity_ah *= pack_scale
    sc.mission.fleet_size = fleet_size
    sc.mission.ground_recharge = ground_recharge
    sc.mission.turnaround_delay = 5.0
    sc.docking.contact_failure_probability = contact_failure_probability
    sc.sim.seed = seed
    sc.sim.duration = 2000.0
    return sc


def run_optimized(code: str, *args: str, env: dict[str, str] | None = None) -> None:
    """Run code in a fresh `python -O` interpreter (asserts stripped) that
    can import flybat and the test modules, with env's variables added to
    this process's environment; fail on a non-zero exit."""
    path = [str(SRC_DIR), str(TESTS_DIR)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *args],
        env=dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def golden_section_argmax(f, lo: float, hi: float, tol: float = 1.0e-12) -> float:
    """Golden-section search for the maximizer of a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class _ThrustProbe(CascadedPid):
    """A host controller that keeps the thrust of its last position step."""

    thrust = None

    def position_flat(self, *args):
        self.thrust, q_des = super().position_flat(*args)
        return self.thrust, q_des


def docked_contact_trace(world, steps: int) -> list[tuple[float, float, float, float]]:
    """Step a world whose unit stays docked, and give per step (thrust
    along the host z axis, planar load, contact_normal, contact_friction).
    The thrust is the host controller's output plus the axial part of the
    planar drag; the drag is rebuilt from the host state before the step."""
    pid = world.main_pid
    probe = _ThrustProbe(pid.cfg, pid.mass)
    probe.ix, probe.iy, probe.iz, probe.iyaw = pid.ix, pid.iy, pid.iz, pid.iyaw
    world.main_pid = probe
    coeff = world.planar_drag_coeff
    trace = []
    for _ in range(steps):
        ms = world.main_state
        probe.thrust = None
        world.step()
        assert probe.thrust is not None and world.docked_unit is not None
        vx, vy = ms[3], ms[4]
        vmag = math.sqrt(vx * vx + vy * vy)
        drag_fx = drag_fy = 0.0
        if coeff > 0.0 and vmag > 0.0:
            c = coeff * vmag
            drag_fx, drag_fy = -c * vx, -c * vy
        qw, qx, qy, qz = ms[6], ms[7], ms[8], ms[9]
        zx = 2.0 * (qx * qz + qw * qy)
        zy = 2.0 * (qy * qz - qw * qx)
        axial = drag_fx * zx + drag_fy * zy
        pl2 = drag_fx * drag_fx + drag_fy * drag_fy - axial * axial
        planar = math.sqrt(pl2) if pl2 > 0.0 else 0.0
        trace.append((probe.thrust + axial, planar, world.contact_normal, world.contact_friction))
    return trace
