import math
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import flybat
from flybat.control import CascadedPid
from flybat.docking import TRANSITIONS, DockPhase
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


# three units, unit 0 docked on a 0.002 Ah secondary: a contact draw
# about every 7.8 s, the first at 7.95 s
DRAWS_CFG = """\
[batteries]
secondary.capacity_ah = 0.002
[docking]
contact_failure_probability = 0.5
home_radius = 0.5
[mission]
fleet_size = 3
start_docked = true
turnaround_delay = 1.0
[sim]
seed = 1000
duration = 32
"""


def contact_outcomes(world) -> list[bool]:
    """The outcome of every contact draw world made, in order: True for an
    electrical contact. Each capture that engages draws once and logs
    contact or contact_failure; the start-docked attach logs a contact
    without a draw."""
    kinds = ("contact", "contact_failure")
    outcomes = [e.kind == "contact" for e in world.log.events if e.kind in kinds]
    return outcomes[1:] if world.mission.start_docked else outcomes


def start_optimized(code: str, *args: str, env: dict[str, str] | None = None) -> subprocess.Popen:
    """Start code in a fresh `python -O` interpreter (asserts stripped)
    that can import flybat and the test modules, with env's variables
    added to this process's environment; its output is piped as text."""
    path = [str(SRC_DIR), str(TESTS_DIR)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.Popen(
        [sys.executable, "-O", "-c", code, *args],
        env=dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(path)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen, timeout: float = 300) -> None:
    """Wait for a started interpreter; fail on a non-zero exit."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, out + err


def run_optimized(code: str, *args: str, env: dict[str, str] | None = None) -> None:
    """Run code as start_optimized does and wait for it; fail on a
    non-zero exit."""
    finish(start_optimized(code, *args, env=env))


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


def maneuver_durations(trace) -> tuple[float | None, float | None]:
    """(dock_time, undock_time) measured from a phase-entry trace.

    trace is an iterable of (t, phase) entries for one unit. Dock time
    runs from the first TAKEOFF entry to the first DOCKED entry after
    it; undock time from the first UNDOCK_ASCEND entry to the next
    GROUNDED entry. Missing legs yield None."""
    events = [(float(t), DockPhase(p)) for t, p in trace]
    dock_time = None
    undock_time = None
    t_takeoff = None
    t_undock = None
    for t, phase in events:
        if phase is DockPhase.TAKEOFF and t_takeoff is None:
            t_takeoff = t
        elif phase is DockPhase.DOCKED and t_takeoff is not None and dock_time is None:
            dock_time = t - t_takeoff
        elif phase is DockPhase.UNDOCK_ASCEND and t_undock is None:
            t_undock = t
        elif phase is DockPhase.GROUNDED and t_undock is not None and undock_time is None:
            undock_time = t - t_undock
    return dock_time, undock_time


# Predicates that hold for any finished mission; each takes its MissionLog,
# whose totals are the world's summary_totals().


def check_phase_walk(log) -> None:
    """Each unit's phase events walk TRANSITIONS from GROUNDED, or from
    DOCKED for a unit attached at t = 0 (start_docked): a capture needs a
    flight first. A crash grounds a unit for good, so no phase follows it."""
    walks: dict[int, list] = {}
    for e in log.events:
        if e.kind in ("phase", "crash"):
            walks.setdefault(e.uid, []).append(e)
    for uid, walk in walks.items():
        prev = DockPhase.GROUNDED
        if (walk[0].t, walk[0].detail) == (0.0, DockPhase.DOCKED.value):
            prev = DockPhase.DOCKED
            walk = walk[1:]
        for i, e in enumerate(walk):
            if e.kind == "crash":
                assert i == len(walk) - 1, (uid, e.t, "phase after crash")
                break
            phase = DockPhase(e.detail)
            assert phase in TRANSITIONS[prev], (uid, e.t, prev, phase)
            prev = phase


def check_event_order(log) -> None:
    """The log is in (t, seq) order, nothing follows a mission_end, and
    each switch to the secondary follows a contact at its own instant."""
    events = log.events
    keys = [(e.t, e.seq) for e in events]
    assert keys == sorted(keys)
    ends = [e.seq for e in events if e.kind == "mission_end"]
    # an event's seq is its index in the log
    assert ends in ([], [len(events) - 1]), ("logged after mission_end", ends)
    contact_t = None
    for e in events:
        if e.kind == "contact":
            contact_t = e.t
        elif (e.kind, e.detail) == ("switch", "secondary"):
            assert contact_t == e.t, (e.t, "switch without a contact at its instant")


def check_summary_bookkeeping(log) -> None:
    """The summary's counts agree with the event log: each dock draws one
    contact outcome, each electrical contact is followed by exactly one
    switch to the secondary before any undock, and each undock detaches
    its unit in the same instant: its undock_ascend phase follows, with
    at most the replacement's dispatch between them."""
    totals = log.totals
    events = log.events
    n = Counter((e.kind, e.detail) for e in events)
    assert totals["switch_count"] == n["switch", "secondary"] == n["contact", ""]
    assert totals["contact_failures"] == n["contact_failure", ""]
    assert totals["dock_count"] == n["dock", ""] == n["contact", ""] + n["contact_failure", ""]
    undocks = totals["undock_count"]
    assert undocks == n["undock", ""] == n["phase", DockPhase.UNDOCK_ASCEND.value]
    assert undocks <= n["dock", ""]
    for i, e in enumerate(events):
        if e.kind == "undock":
            after = events[i + 1 : i + 3]
            if after and after[0].kind == "dispatch":
                after = after[1:]
            assert after, (e.t, "undock without a detach")
            f = after[0]
            assert (f.t, f.kind, f.uid, f.detail) == (
                e.t, "phase", e.uid, DockPhase.UNDOCK_ASCEND.value
            ), (e.t, "undock without a detach")
    contact_live = False
    for e in events:
        if e.kind == "contact":
            contact_live = True
        elif e.kind in ("undock", "mission_end"):
            contact_live = False
        elif (e.kind, e.detail) == ("switch", "secondary"):
            assert contact_live, (e.t, "switch without a live contact")
            contact_live = False


def check_unit_lists(world) -> None:
    """The fleet's lists of a running mission hold what the engine's
    unguarded code takes them to: active_units names each unit once and
    no grounded one, and the docked and incoming units are in it, the
    docked one DOCKED. A mission that has ended may keep a unit it
    dispatched on its last step grounded, so an ended one is not
    checked."""
    if world.termination_reason:
        return
    active = world.active_units
    assert len(set(active)) == len(active), [u.uid for u in active]
    assert all(u.phase is not DockPhase.GROUNDED for u in active), [u.uid for u in active]
    docked = world.docked_unit
    assert docked is None or (docked in active and docked.phase is DockPhase.DOCKED)
    assert world.incoming is None or world.incoming in active


def check_primary_conduction(log, rows) -> None:
    """The primary conducts only from the mission's start and from each
    switch back to it until the next electrical contact: a docked unit on
    a live contact carries the whole load, on a quiet step too. rows are
    the mission's telemetry rows."""
    windows = []
    open_t = 0.0
    for e in log.events:
        if e.kind == "contact" and open_t is not None:
            windows.append((open_t, e.t))
            open_t = None
        elif (e.kind, e.detail) == ("switch", "primary"):
            open_t = e.t
    if open_t is not None:
        windows.append((open_t, math.inf))
    eps = 1e-9
    for r in rows:
        if r.current_primary > eps:
            assert any(a - eps <= r.time <= b + eps for a, b in windows), r.time


def check_one_conducting_pack(rows) -> None:
    """On every step one pack at most conducts: the primary or the docked
    unit's secondary, never both through the diode-OR split. rows are the
    mission's telemetry rows."""
    for r in rows:
        assert r.active_source != "both", r.time
        assert not (r.current_primary > 0.0 and r.current_secondary > 0.0), r.time


# The host's altitude error bound of a finished mission, m: the largest
# error of a generated mission is 0.06 m, after a capture adds the unit's
# mass to the host
ALTITUDE_BAND_M = 0.25


def check_altitude_band(log) -> None:
    """The host holds its hover altitude within ALTITUDE_BAND_M all
    mission long, docked or not."""
    assert log.totals["max_altitude_error_m"] < ALTITUDE_BAND_M


# The relative tolerance of check_energy_matches_telemetry, derived for
# std_run and the 10-20 s generated missions. The packs drain on every
# 1 ms step, at the rate of that step's row: the bus power plus each
# pack's I^2 R loss. Rows come every 10 ms and on event steps.
# - The integral runs on past the last row at its rate, so a constant
#   rate is integrated exactly. Without that it misses up to 9 steps,
#   9e-4 of a 10 s mission; measured misses were 1.0e-3 to 1.3e-3.
# - Where the rate only creeps with the bus voltage (a solo or docked
#   hover, a unit flying in under the host), the trapezoid misses less
#   than 1e-6 of the energy drawn (measured on 45 generated missions).
# - A capture or an undock steps the host's mass and gains. Its rotor
#   power then swings by up to 110 W within a second, faster than the
#   rows sample it. Measured on the pinned generated missions, the
#   trapezoid misses 0.35 J over a capture and at most 0.07 J over an
#   undock.
# - A 10-20 s mission has at most 2 captures, since one unit at a time
#   flies in, whatever the fleet size, taking about 7.5 s from its
#   dispatch to its capture, and at most 3 undocks.
#   That is at most 0.9 J, while the host alone draws at least 121 W,
#   so 1,216 J in 10 s: 7.4e-4. The largest miss measured on 45
#   generated missions was 3.4e-4, and 3.4e-4 again on the 23 that the
#   generated-mission tests fly with fleets of up to 4.
ENERGY_REL_TOL = 1e-3


def check_energy_matches_telemetry(world) -> None:
    """The primary and secondary energy that world's finished mission
    drew is its telemetry's drain rate integrated over the mission. The
    rate is the bus power plus each pack's I^2 R loss at its own internal
    resistance. It is integrated by the trapezoid rule over the kept rows
    and past the last row at that row's rate, to the mission's end (see
    ENERGY_REL_TOL)."""
    rows = world.writer.rows
    totals = world.log.totals
    r_p = world.primary.internal_resistance
    r_s = world.secondary.internal_resistance
    t = np.array([r.time for r in rows])
    rate = np.array(
        [r.power + r.current_primary**2 * r_p + r.current_secondary**2 * r_s for r in rows]
    )
    joules = np.trapezoid(rate, t) + rate[-1] * (totals["total_time_s"] - t[-1])
    drawn = totals["primary_energy_wh"] + totals["secondary_energy_wh"]
    assert joules / 3600.0 == pytest.approx(drawn, rel=ENERGY_REL_TOL)


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
    probe = _ThrustProbe(world.comp_cfg, pid.mass)
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
