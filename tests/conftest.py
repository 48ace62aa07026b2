import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import flybat
from flybat.scenario import Scenario, build_world_inputs, default_scenario

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = Path(flybat.__file__).resolve().parent.parent

# a vehicle at rest at the origin, level, as the flat 13-tuple
# (px,py,pz, vx,vy,vz, qw,qx,qy,qz, wx,wy,wz)
REST_STATE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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


def run_optimized(code: str, *args: str) -> None:
    """Run code in a fresh `python -O` interpreter (asserts stripped) that
    can import flybat and the test modules; fail on a non-zero exit."""
    path = [str(SRC_DIR), str(TESTS_DIR)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
