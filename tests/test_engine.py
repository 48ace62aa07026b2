import copy
import functools
import importlib
import importlib.util
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import flybat.engine
import flybat.powertrain
from conftest import (
    DRAWS_CFG,
    check_altitude_band,
    check_energy_matches_telemetry,
    check_event_order,
    check_one_conducting_pack,
    check_phase_walk,
    check_primary_conduction,
    check_summary_bookkeeping,
    check_unit_lists,
    contact_outcomes,
    docked_contact_trace,
    full_scale_main_kp,
    run_optimized,
    scaled_mission_scenario,
)
from flybat.docking import DESCEND, DOCKED, FREE_FALL, GROUNDED, Pcg64
from flybat.dynamics import GRAVITY, contact_load, docked_mass_share
from flybat.engine import LEG_HEIGHT, SimNumericsError, World
from flybat.powertrain import _OCV_SEGMENTS, PowertrainError, hover_power
from flybat.scenario import (
    ScenarioError,
    bundled_scenario,
    default_scenario,
    parse_scenario,
    set_scenario_value,
)
from flybat.telemetry import _HEAD_FORMAT, _ROW_FORMAT, _TAIL_FORMAT, dump_telemetry, format_row


def solo_scenario(duration=10.0, telemetry_hz=None):
    sc = default_scenario("engine_solo")
    sc.mission.fleet_size = 0
    sc.mission.termination = "wall_clock"
    sc.sim.duration = duration
    if telemetry_hz is not None:
        sc.sim.telemetry_hz = telemetry_hz
    return sc


def test_two_hover_steps_identical_rows_except_time():
    # steady state: all kinematic and power columns repeat exactly; the
    # battery-side columns (voltage, currents) creep by the one-step
    # discharge, which at hover is below a part per million
    sc = solo_scenario(duration=1.0, telemetry_hz=1000.0)
    w = World(sc, keep_rows=True)
    w.step()
    w.step()
    a, b = w.writer.rows
    assert a.time != b.time
    from flybat.telemetry import COLUMNS

    fa = format_row(a).split(",")
    fb = format_row(b).split(",")
    battery_cols = {"time", "bus_voltage", "current_total", "current_primary"}
    for name, va, vb in zip(COLUMNS, fa, fb):
        if name not in battery_cols:
            assert va == vb, name
    assert b.bus_voltage == pytest.approx(a.bus_voltage, rel=1e-6)
    assert b.bus_voltage <= a.bus_voltage
    assert b.current_total == pytest.approx(a.current_total, rel=1e-6)


def test_exact_row_count_at_full_rate():
    sc = solo_scenario(duration=1.0, telemetry_hz=1000.0)
    w = World(sc, keep_rows=True)
    w.run(1.0)
    assert len(w.writer.rows) == 1000
    times = [r.time for r in w.writer.rows]
    assert times == sorted(times)
    assert len(set(times)) == 1000


def test_replay_same_seed_bitwise_identical():
    sc = scaled_mission_scenario(name="replay", fleet_size=2, pack_scale=0.05, seed=11)
    sc.sim.duration = 120.0
    rows_a = World(sc, keep_rows=True)
    rows_a.run(120.0)
    rows_b = World(sc, keep_rows=True)
    rows_b.run(120.0)
    a = "\n".join(format_row(r) for r in rows_a.writer.rows)
    b = "\n".join(format_row(r) for r in rows_b.writer.rows)
    assert a == b


def test_hover_mean_power_matches_model():
    sc = solo_scenario(duration=20.0)
    w = World(sc, keep_rows=True)
    w.run(20.0)
    rows = [r for r in w.writer.rows if r.time > 1.0]
    mean_power = sum(r.power for r in rows) / len(rows)
    expected = hover_power(0.820, w.main_params.k_p)
    assert mean_power == pytest.approx(expected, rel=0.01)


def test_docked_hover_mean_power_matches_combined_mass():
    sc = solo_scenario(duration=20.0)
    sc.mission.fleet_size = 1
    sc.mission.start_docked = True
    w = World(sc, keep_rows=True)
    w.run(20.0)
    rows = [r for r in w.writer.rows if r.time > 2.0]
    mean_power = sum(r.power for r in rows) / len(rows)
    expected = hover_power(1.140, w.main_params.k_p)
    assert mean_power == pytest.approx(expected, rel=0.01)
    # the contact diagnostic carries the docked weight
    normals = [r.contact_normal_force for r in rows]
    assert np.mean(normals) == pytest.approx(0.320 * GRAVITY, rel=0.01)


def test_energy_audit_short_run():
    sc = scaled_mission_scenario(name="audit", fleet_size=1, pack_scale=0.06, seed=5)
    sc.sim.duration = 90.0
    w = World(sc, keep_rows=True)
    w.run(90.0)
    rows = w.writer.rows
    t = np.array([r.time for r in rows])
    p = np.array([r.power for r in rows])
    ip = np.array([r.current_primary for r in rows])
    isec = np.array([r.current_secondary for r in rows])
    r_p = w.primary.internal_resistance
    r_s = w.secondary.internal_resistance
    integral_wh = (
        np.trapezoid(p, t) + np.trapezoid(ip**2 * r_p + isec**2 * r_s, t)
    ) / 3600.0
    drawn = sum(v for k, v in w.energy_drawn.items() if not k.endswith(".own"))
    assert integral_wh == pytest.approx(drawn, rel=1e-3)


def test_nan_halts_with_step_and_subsystem():
    sc = solo_scenario(duration=5.0)
    w = World(sc)
    for _ in range(10):
        w.step()
    w.main_state = (0.0, 0.0, float("nan")) + w.main_state[3:]
    with pytest.raises(SimNumericsError) as exc:
        for _ in range(20):
            w.step()
    assert exc.value.subsystem == "host dynamics"
    assert exc.value.step_index >= 10
    assert "host dynamics" in str(exc.value)


def test_nan_in_flying_battery_halts_on_its_step():
    # caught right after the unit's integration, before the feedforward
    # and downwash lookups take the non-finite position
    sc = solo_scenario(duration=10.0)
    sc.mission.fleet_size = 1
    w = World(sc)
    while w.step_index < 2000:  # dispatched at 1 s, climbing at 2 s
        w.step()
    u = w.units[0]
    assert u.airborne
    u.state = u.state[:3] + (float("nan"),) + u.state[4:]
    with pytest.raises(SimNumericsError) as exc:
        w.step()
    assert exc.value.step_index == 2000
    assert exc.value.subsystem == "unit 0 dynamics"


def test_contact_slip_logged_once_per_slip_episode():
    # criterion 6's docked 12 m/s^2 maneuver on a slippery mount: the
    # contact slips and holds many times, and each slip episode is one
    # event and at most one extra telemetry row
    sc = default_scenario("maneuver")
    sc.mission.fleet_size = 1
    sc.mission.start_docked = True
    sc.mission.termination = "wall_clock"
    sc.mission.oscillation_omega = 3.0
    sc.mission.oscillation_amplitude = 12.0 / 3.0**2
    sc.sim.duration = 15.0
    sc.sim.planar_drag_coeff = 0.08
    sc.docking.contact_failure_probability = 0.0
    sc.docking.mu = 0.02
    world = World(sc, keep_rows=True)
    trace = docked_contact_trace(world, 15_000)

    assert not world.log.of_kind("undock")
    share = docked_mass_share(world.main_params.mass, world.fb_params.mass)
    held = [
        contact_load(share, thrust, 0.0, planar, sc.docking.mu)[2] for thrust, planar, _, _ in trace
    ]
    assert len(held) == 15000
    onsets = sum(
        1 for i, ok in enumerate(held) if not ok and (i == 0 or held[i - 1])
    )
    assert onsets >= 2
    assert len(world.log.of_kind("contact_slip")) == onsets
    assert len(world.writer.rows) <= 1500 + onsets


def test_events_column_token_forms():
    from flybat.engine import MissionEvent, events_column

    events = [
        MissionEvent(1.0, 0, "dispatch", 0),
        MissionEvent(1.0, 1, "phase", 0, "takeoff"),
        MissionEvent(1.0, 2, "switch", detail="secondary"),
        MissionEvent(1.0, 3, "contact_slip", 1),
        MissionEvent(1.0, 4, "depleted", detail="primary"),
        MissionEvent(1.0, 5, "depleted", 2, "secondary"),
        MissionEvent(1.0, 6, "depleted", 1, "own"),
        MissionEvent(1.0, 7, "recharged", 1, in_column=False),
        MissionEvent(1.0, 8, "mission_end", detail="primary_depleted"),
    ]
    assert events_column(events) == (
        "dispatch:0;phase:0:takeoff;switch:secondary;contact_slip;depleted:primary;"
        "depleted:secondary:2;depleted:own:1;mission_end:primary_depleted"
    )
    assert events_column(events[7:8]) == ""


def test_run_rejects_bad_duration():
    # a non-finite duration is a ValueError too, which the cli maps to exit 2
    w = World(solo_scenario())
    for duration in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"finite and positive, got {duration}$"):
            w.run(duration)


def test_world_rejects_unreachable_solo_flight_time():
    # a 0.05 Ah primary cannot hold a 5 kg host up for the 720 s solo
    # flight that calibrates its k_p; 60 N of thrust would lift it
    sc = solo_scenario()
    set_scenario_value(sc, "batteries.primary.capacity_ah", "0.05")
    set_scenario_value(sc, "vehicles.main.max_thrust", "60")
    set_scenario_value(sc, "vehicles.main.mass", "5")
    with pytest.raises(PowertrainError, match="720 s hover"):
        World(sc)


def test_platform_acceleration_warning_during_free_fall():
    # drop assumes a quasi-static platform: a hard host acceleration
    # while a unit is falling must be flagged
    from flybat.docking import DockPhase
    from flybat.engine import LEG_HEIGHT, PLATFORM_HEIGHT

    sc = solo_scenario(duration=5.0)
    sc.mission.fleet_size = 1
    sc.mission.dispatch_delay = 1e9
    w = World(sc)
    u = w.units[0]
    plat_z = sc.mission.hover_z + PLATFORM_HEIGHT
    # displace the host so its controller demands > 2 m/s^2; the unit
    # falls centered above the displaced platform
    w.main_state = (2.0, 0.0, sc.mission.hover_z) + w.main_state[3:]
    u.state = (2.0, 0.0, plat_z + 0.03 + LEG_HEIGHT, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    u.phase = DockPhase.FREE_FALL
    w.active_units.append(u)
    w.step()
    assert w.log.of_kind("platform_accel_warning")


def test_contact_diagnostic_nonnegative_through_mission():
    sc = scaled_mission_scenario(name="diag", fleet_size=1, pack_scale=0.05, seed=2)
    sc.sim.duration = 90.0
    w = World(sc, keep_rows=True)
    w.run(90.0)
    assert all(r.contact_normal_force >= 0.0 for r in w.writer.rows)
    assert any(r.contact_normal_force > 2.0 for r in w.writer.rows)  # docked at some point


@pytest.mark.parametrize("start_docked", [False, True], ids=["grounded", "start_docked"])
def test_phase_events_walk_the_fsm_graph(start_docked):
    # seed 2 fails two of its contact draws at p = 0.3, so the walk takes
    # in the undock and redispatch after a failed contact
    sc = scaled_mission_scenario(
        name="graph", fleet_size=3, contact_failure_probability=0.3, seed=2
    )
    sc.mission.start_docked = start_docked
    log = World(sc).run()
    assert log.of_kind("contact_failure")
    phases = log.of_kind("phase")
    # ground recharge turns units 0 and 1 around; unit 2 stays grounded
    assert {e.uid for e in phases} == {0, 1}
    if start_docked:
        # attached at t = 0, never grounded first
        assert (phases[0].uid, phases[0].t, phases[0].detail) == (0, 0.0, DOCKED.value)
    check_phase_walk(log)


def test_unit_whose_own_pack_empties_in_the_air_crashes_and_is_replaced():
    # unit 0's own pack empties at 6.773 s on its approach: it falls,
    # rests where it hit the ground, and unit 1 is sent in its place
    sc = default_scenario()
    sc.batteries.fb.capacity_ah = 0.01
    w = World(sc)
    w.run(60.0)
    crashes = w.log.of_kind("crash")
    assert crashes[0].uid == 0 and [e.uid for e in crashes].count(0) == 1
    dispatched = [e.uid for e in w.log.of_kind("dispatch") if e.seq > crashes[0].seq]
    assert dispatched[:1] == [1]
    assert all(u.state[2] >= LEG_HEIGHT for u in w.units)
    crashed = w.units[0]
    assert crashed.phase is GROUNDED and crashed.available_at == math.inf
    assert crashed not in w.active_units and w.incoming is not crashed
    check_phase_walk(w.log)


def test_world_without_path_keeps_no_rows_unless_asked():
    w = World(solo_scenario(duration=1.0))
    w.run(1.0)
    assert w.writer.rows is None


@pytest.mark.parametrize("inject", ["nan", "error"])
def test_run_closes_telemetry_file_when_a_step_raises(tmp_path, inject):
    w = World(solo_scenario(duration=5.0), telemetry_path=tmp_path / "t.csv")
    fh = w.writer._fh
    step = w.step

    def faulty_step():
        if w.step_index == 100:
            if inject == "nan":
                w.main_state = (0.0, 0.0, float("nan")) + w.main_state[3:]
            else:
                raise RuntimeError("injected")
        step()

    w.step = faulty_step
    with pytest.raises(SimNumericsError if inject == "nan" else RuntimeError):
        w.run(5.0)
    assert fh.closed


# --- quiescent-host fast path -----------------------------------------------


@pytest.fixture
def rk4_calls(monkeypatch):
    """One-element list counting the engine's rk4_flat calls."""
    calls = [0]
    rk4 = flybat.engine.rk4_flat

    def counted(*args):
        calls[0] += 1
        return rk4(*args)

    monkeypatch.setattr(flybat.engine, "rk4_flat", counted)
    return calls


def _solo_1khz():
    return solo_scenario(duration=5.0, telemetry_hz=1000.0), 5.0


def _start_docked():
    sc = solo_scenario(duration=5.0)
    sc.mission.fleet_size = 1
    sc.mission.start_docked = True
    return sc, 5.0


def _oscillating():
    sc = solo_scenario(duration=5.0)
    sc.mission.oscillation_amplitude = 0.3
    sc.mission.oscillation_omega = 2.0
    return sc, 5.0


def _dock_and_undock():
    # docks at 21.3 s, undocks at 36.0 s, lands at 43.7 s
    sc = scaled_mission_scenario(name="fastpath", fleet_size=1, pack_scale=0.05, seed=2)
    return sc, 45.0


def _churn_start_docked():
    # unit 0 starts docked on a 0.05 Ah secondary that empties at 9.8 s;
    # it undocks and lands while unit 1 flies in, and unit 1's capture
    # draws the contact outcome at 30.1 s
    sc = default_scenario("churn")
    sc.batteries.secondary.capacity_ah = 0.05
    sc.docking.contact_failure_probability = 0.3
    sc.mission.fleet_size = 4
    sc.mission.start_docked = True
    sc.sim.seed = 1000
    return sc, 31.0


# cases that end a quiet span each way: a dispatch, a secondary that
# empties while docked, a primary that empties and ends the mission, and
# a docked host under planar drag; and a wall-clock mission stepped by
# hand past its end, which only World.run ends


def _paper_demo_dispatch():
    # the host hovers alone until the dispatch at 1.0 s
    return bundled_scenario("paper_demo"), 2.0


def _churn_secondary_empties():
    return _churn_start_docked()[0], 12.0


def _small_primary():
    # the primary empties at 2.88 s
    sc = solo_scenario(duration=10.0)
    sc.mission.termination = "primary_depleted"
    sc.vehicles.main.k_p = full_scale_main_kp()
    sc.batteries.primary.capacity_ah *= 0.004
    return sc, 10.0


def _wall_clock_past_duration():
    # a 3 s wall-clock mission, stepped for 5 s
    return solo_scenario(duration=3.0), 5.0


def _planar_drag():
    sc, duration = _start_docked()
    sc.sim.planar_drag_coeff = 0.2
    return sc, duration


# (kind, detail) of an event each of those cases must log
QUIET_EXITS = {
    _paper_demo_dispatch: ("dispatch", ""),
    _churn_secondary_empties: ("depleted", "secondary"),
    _small_primary: ("mission_end", "primary_depleted"),
}


def _stepped(sc, duration, full_path, telemetry_path=None, check=None):
    """The world after stepping sc for duration, on the full path if
    full_path; check, if given, is called with it after every step."""
    w = World(sc, telemetry_path=telemetry_path, keep_rows=True)
    n = round(duration / w.dt)
    try:
        while w.step_index < n and not w.termination_reason:
            if full_path:
                # an equal but fresh tuple never matches the memo by identity
                w.main_state = tuple(list(w.main_state))
            w.step()
            if check is not None:
                check(w)
    finally:
        w.writer.close()
    return w


def _host_bits(w):
    pid = w.main_pid
    return [x.hex() for x in (*w.main_state, pid.ix, pid.iy, pid.iz, pid.iyaw)]


@pytest.mark.parametrize(
    "case,engages",
    [
        (_solo_1khz, True),
        (_start_docked, True),
        (_oscillating, False),
        (_dock_and_undock, True),
        (_paper_demo_dispatch, True),
        (_churn_secondary_empties, True),
        (_small_primary, True),
        (_wall_clock_past_duration, True),
        (_planar_drag, True),
    ],
    ids=[
        "solo_1khz",
        "start_docked",
        "oscillating",
        "dock_and_undock",
        "dispatch",
        "secondary_empties",
        "primary_empties",
        "wall_clock_past_duration",
        "planar_drag",
    ],
)
def test_fast_path_rows_match_full_path(rk4_calls, case, engages):
    sc, duration = case()
    fast = _stepped(sc, duration, full_path=False)
    fast_calls, rk4_calls[0] = rk4_calls[0], 0
    full = _stepped(sc, duration, full_path=True)
    assert fast.step_index == full.step_index
    assert [format_row(r) for r in fast.writer.rows] == [
        format_row(r) for r in full.writer.rows
    ]
    assert fast.summary_totals() == full.summary_totals()
    assert _host_bits(fast) == _host_bits(full)
    # the case exercises the fast path (fewer host integrations) or, with
    # a moving setpoint, never takes it
    assert (fast_calls < rk4_calls[0]) is engages
    if case is _dock_and_undock:
        totals = fast.summary_totals()
        assert totals["dock_count"] >= 1 and totals["undock_count"] >= 1
    if case in QUIET_EXITS:
        assert QUIET_EXITS[case] in {(e.kind, e.detail) for e in fast.log.events}
    if case is _wall_clock_past_duration:
        # the clock is run's: it stops the mission at sim.duration
        ran = World(sc, keep_rows=True)
        ran.run(2 * sc.sim.duration)
        assert ran.step_index == round(sc.sim.duration / ran.dt)
        last = ran.log.events[-1]
        assert (last.kind, last.detail) == ("mission_end", "wall_clock")
        rows = [format_row(r) for r in ran.writer.rows]
        assert rows == [format_row(r) for r in fast.writer.rows][: len(rows)]


def _pack_bits(w):
    """Every pack energy and its ledger entry, the time split and the bus
    sample, as bits."""
    floats = (
        w.primary_wh,
        *(u.secondary_wh for u in w.units),
        w.time_on_primary,
        w.time_on_secondary,
        *w.bus[:3],
    )
    drawn = {k: v.hex() for k, v in w.energy_drawn.items()}
    return [x.hex() for x in floats], w.bus[3], drawn


def _draining_soc(w):
    """State of charge of the pack that carries the host's load."""
    if w.docked_unit is None:
        return w.primary_wh / w.primary.capacity_wh
    return w.docked_unit.secondary_wh / w.secondary.capacity_wh


def _events(w):
    return [(e.t, e.kind, e.uid, e.detail) for e in w.log.events]


@pytest.mark.parametrize(
    "case,raise_at",
    [(_small_primary, None), (_churn_secondary_empties, None), (_small_primary, 1500)],
    ids=["primary_empties", "secondary_empties", "primary_refilled_while_quiet"],
)
def test_quiet_steps_drain_the_pack_bit_for_bit(monkeypatch, case, raise_at):
    # a quiet step drains its pack inline, one OCV segment at a time; in
    # lockstep with the full path (a fresh state tuple every step) every
    # pack bit, ledger entry, time split and bus field agrees after every
    # step, through each segment's lower knot and the depletion
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    for name in ("solve_bus", "discharge", "ocv_per_cell"):
        monkeypatch.setattr(flybat.powertrain, name, counted(getattr(flybat.powertrain, name)))
    sc, duration = case()
    fast, full = World(sc), World(sc)
    fast._finish_step = counted(fast._finish_step)
    n = round(duration / fast.dt)
    crossed = {}  # step -> the knots a quiet step crossed on it
    full_steps = []
    first_quiet = None
    while fast.step_index < n and not fast.termination_reason:
        if fast.step_index == raise_at:
            # an energy set from outside: back to full, above the segment
            # the quiet steps were in, on both worlds
            assert fast._quiet_until > fast.step_index * fast.dt
            assert _draining_soc(fast) < 0.9
            fast.primary_wh = full.primary_wh = fast.primary.capacity_wh
        before = _draining_soc(fast)
        logged = len(fast.log.events)
        calls[0] = 0
        fast.step()
        if calls[0]:
            full_steps.append(fast.step_index - 1)
        elif not fast.termination_reason:
            # a quiet step logs no event
            assert len(fast.log.events) == logged
            if first_quiet is None:
                first_quiet = fast.step_index - 1
            after = _draining_soc(fast)
            knots = {s0 for s0, *_ in _OCV_SEGMENTS if after <= s0 < before}
            if knots:
                crossed[fast.step_index - 1] = knots
        full.main_state = tuple(list(full.main_state))
        full.step()
        assert _pack_bits(fast) == _pack_bits(full), f"step {fast.step_index - 1}"
        assert _events(fast) == _events(full), f"step {fast.step_index - 1}"
    assert fast.step_index == full.step_index
    # quiet steps cross every knot above empty; the depletion is a full step
    assert set().union(*crossed.values()) == {s0 for s0, *_ in _OCV_SEGMENTS} - {0.0}
    depleted = fast.log.of_kind("depleted")
    assert len(depleted) == 1
    step = round(depleted[0].t / fast.dt)
    assert depleted[0].t == step * fast.dt and step in full_steps
    # nearly every step up to the depletion was quiet: after the first
    # quiet step, the full steps up to the depletion are the step after
    # each crossing, the refill and the step after it, and the depletion
    assert first_quiet < 0.1 * step
    refill = set() if raise_at is None else {raise_at, raise_at + 1}
    expected = {s + 1 for s in crossed} | refill | {step}
    assert {s for s in full_steps if first_quiet < s <= step} == expected


def test_row_head_and_tail_formats_split_the_row_format():
    # a quiet row writes its six changing fields and its frame's text
    # apart; the two formats are the row format's conversions
    assert ",".join((_HEAD_FORMAT, _TAIL_FORMAT)) == _ROW_FORMAT


@pytest.mark.parametrize(
    "case",
    [
        _small_primary,
        _churn_secondary_empties,
        lambda: (bundled_scenario("solo_hover"), 60.0),
        _churn_start_docked,
    ],
    ids=["primary_empties", "secondary_empties", "solo_hover_60s", "churn_start_docked_31s"],
)
def test_quiet_rows_come_from_a_few_frames_and_are_the_kept_rows(monkeypatch, tmp_path, case):
    # a quiet stretch formats its fixed columns once, when it is armed,
    # and its rows go to the file from that frame; the file is still the
    # kept rows, byte for byte
    builds = [0]
    format_tail = flybat.engine.format_tail

    def counted(tail):
        builds[0] += 1
        return format_tail(tail)

    monkeypatch.setattr(flybat.engine, "format_tail", counted)
    sc, duration = case()
    path = tmp_path / "telemetry.csv"
    w = World(sc, telemetry_path=path, keep_rows=True)
    w.run(duration)
    assert path.read_text(encoding="utf-8") == dump_telemetry(w.writer.rows)
    assert 1 <= builds[0] <= 5


# worlds whose quiet stretches a copy test enters, with kept rows and no
# file: the golden solo hover and the start-docked churn (dock_churn case
# 0), each with the step of a quiet stretch to copy it at
QUIET_COPY_WORLDS = {
    "solo_hover_60s": (lambda: (bundled_scenario("solo_hover"), 60.0), 30_000),
    "churn_start_docked_31s": (_churn_start_docked, 5_000),
}
COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda w: pickle.loads(pickle.dumps(w))}


@functools.cache
def _straight_quiet_run(name):
    """The straight run of QUIET_COPY_WORLDS[name]: its formatted rows,
    its events and its summary totals, and the first step that drains
    the pack across the 0.9 knot (None if none does)."""
    sc, duration = QUIET_COPY_WORLDS[name][0]()
    w = World(sc, keep_rows=True)
    crossings = []

    def step():
        before = _draining_soc(w)
        w.step()
        if not crossings and _draining_soc(w) <= 0.9 < before:
            crossings.append(w.step_index - 1)

    w.run(duration, step=step)
    rows = [format_row(r) for r in w.writer.rows]
    return rows, w.log.events, w.log.totals, (crossings or [None])[0]


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize(
    "name,point",
    [
        ("solo_hover_60s", "mid"),
        ("churn_start_docked_31s", "mid"),
        ("churn_start_docked_31s", "knot"),
    ],
)
def test_world_copied_inside_a_quiet_stretch_resumes_quiet_and_identical(
    monkeypatch, name, point, how
):
    # a copy keeps the host memo's state tuple, which the quiet entry test
    # matches by identity, and the docked unit's tuple that the row frame
    # checked: its next step is quiet, and it flies on to the straight
    # run's rows, events and totals. Copied on the quiet step that crosses
    # the first knot, it takes the full step after it and re-arms there
    rows, events, totals, crossing = _straight_quiet_run(name)
    case, mid = QUIET_COPY_WORLDS[name]
    at = mid if point == "mid" else crossing
    sc, duration = case()
    w = World(sc, keep_rows=True)
    while w.step_index < at:
        w.step()
    assert w._quiet_until > at * w.dt
    c = COPIES[how](w)
    calls = [0]
    solve_bus = flybat.powertrain.solve_bus

    def counted(*args):
        calls[0] += 1
        return solve_bus(*args)

    monkeypatch.setattr(flybat.powertrain, "solve_bus", counted)
    c.step()
    assert calls[0] == 0
    if point == "knot":
        armed = c._quiet
        c.step()
        assert calls[0] == 1 and c._quiet_until == math.inf and c._quiet[5:] != armed[5:]
    c.run(duration)
    assert [format_row(r) for r in c.writer.rows] == rows
    assert c.log.events == events and c.log.totals == totals


def _nan_unit_state_errors(worlds, full_path, at):
    """(step, subsystem) by name of the error each of worlds, built from
    the start-docked churn, raises when at step at (in a quiet stretch of
    the fast path) its docked unit's state becomes a tuple holding a NaN.
    They step in lockstep, the ones named in full_path on the full path.
    Raises RuntimeError if one on the fast path is not quiet there or any
    runs on to the end."""
    _, duration = _churn_start_docked()
    dt = next(iter(worlds.values())).dt
    errors = {}
    for _ in range(round(duration / dt)):
        for name, w in worlds.items():
            if name in errors:
                continue
            if w.step_index == at:
                if name not in full_path and not w._quiet_until > at * w.dt:
                    raise RuntimeError(f"step {at} is not quiet")
                s = w.docked_unit.state
                w.docked_unit.state = (*s[:6], math.nan, *s[7:])
            if name in full_path:
                w.main_state = tuple(list(w.main_state))
            try:
                w.step()
            except SimNumericsError as exc:
                errors[name] = (exc.step_index, exc.subsystem)
        if len(errors) == len(worlds):
            return errors
    raise RuntimeError(f"only {sorted(errors)} raised")


def nan_unit_state_errors(at=3005):
    """(step, subsystem) of the errors that the fast path and the full
    path each raise (see _nan_unit_state_errors)."""
    sc, _ = _churn_start_docked()
    errors = _nan_unit_state_errors({"fast": World(sc), "full": World(sc)}, {"full"}, at)
    return errors["fast"], errors["full"]


def nan_unit_state_errors_by_sink(directory, at=3005):
    """On the fast path, then on the full path: (step, subsystem) of the
    errors that a world writing its telemetry to a file in directory and
    a world with no sink each raise (see _nan_unit_state_errors)."""
    sc, _ = _churn_start_docked()
    out = []
    for full_path in (set(), {"file", "none"}):
        worlds = {"file": World(sc, telemetry_path=Path(directory) / "t.csv"), "none": World(sc)}
        try:
            errors = _nan_unit_state_errors(worlds, full_path, at)
        finally:
            worlds["file"].writer.close()
        out.append((errors["file"], errors["none"]))
    return out


_OPTIMIZED_NAN_UNIT = """
import sys
from test_engine import nan_unit_state_errors
with open(sys.argv[1], "w") as fh:
    fh.write(repr(nan_unit_state_errors()))
"""


def test_unit_state_set_to_nan_while_quiet_raises_as_on_the_full_path(tmp_path):
    # the frame checks the docked unit's state once per stretch; a quiet
    # row finds that the unit holds another tuple and checks it, so both
    # paths raise on the next row step and name the unit, also under -O
    fast, full = nan_unit_state_errors()
    assert fast == full == (3010, "unit 0 dynamics")
    run_optimized(_OPTIMIZED_NAN_UNIT, str(tmp_path / "errors.txt"))
    assert (tmp_path / "errors.txt").read_text() == repr((fast, full))


def _draws_mission():
    return parse_scenario(DRAWS_CFG), 32.0


@pytest.mark.parametrize(
    "case",
    [lambda: (bundled_scenario("paper_demo"), 25.0), _draws_mission, _churn_start_docked],
    ids=["paper_demo_25s", "draws", "churn_start_docked"],
)
def test_world_without_a_sink_is_the_world_with_a_file(tmp_path, case):
    # a world with no telemetry file and no kept rows builds no row, yet
    # keeps the row steps' checks and marks: it logs the same events and
    # ends in the same state (the churn is dock_churn case 0)
    sc, duration = case()
    with_file = World(sc, telemetry_path=tmp_path / "telemetry.csv")
    without = World(sc)
    assert with_file.writer.sink and not without.writer.sink
    for w in (with_file, without):
        w.run(duration)
    assert without.log.events == with_file.log.events
    assert without.summary_totals() == with_file.summary_totals()
    assert without.bus == with_file.bus
    assert without.step_index == with_file.step_index


_OPTIMIZED_NAN_BY_SINK = """
import sys
from test_engine import nan_unit_state_errors_by_sink
errors = nan_unit_state_errors_by_sink(sys.argv[2])
with open(sys.argv[1], "w") as fh:
    fh.write(repr(errors))
"""


def test_unit_state_set_to_nan_raises_as_with_a_file_without_a_sink(tmp_path):
    # a row step with no sink still checks the states, on a quiet step and
    # on a full one: the NaN raises at the next row step and names the
    # unit, as with a telemetry file, also under -O
    errors = nan_unit_state_errors_by_sink(tmp_path)
    assert errors == [((3010, "unit 0 dynamics"),) * 2] * 2
    run_optimized(_OPTIMIZED_NAN_BY_SINK, str(tmp_path / "errors.txt"), str(tmp_path))
    assert (tmp_path / "errors.txt").read_text() == repr(errors)


@pytest.mark.parametrize(
    "case", [_small_primary, _wall_clock_past_duration], ids=["primary_empties", "wall_clock"]
)
def test_run_stops_at_the_step_where_the_mission_ends(case):
    # run counts the steps left and breaks once the mission has ended:
    # at the primary's depletion, or at sim.duration for a wall-clock
    # mission run for longer
    sc, duration = case()
    plain = World(sc, keep_rows=True)
    plain.run(duration)
    end = plain.log.events[-1]
    assert end.kind == "mission_end"
    assert plain.step_index == round(end.t / plain.dt) < round(duration / plain.dt)
    # a hook that calls step once ends where no hook does; the step that
    # the mission policy ends writes its row and is not counted
    hooked = World(sc, keep_rows=True)
    calls = [0]

    def hook():
        calls[0] += 1
        hooked.step()

    hooked.run(duration, step=hook)
    assert hooked.step_index == plain.step_index
    assert calls[0] == plain.step_index + (end.detail != "wall_clock")
    assert [format_row(r) for r in hooked.writer.rows] == [format_row(r) for r in plain.writer.rows]
    assert hooked.summary_totals() == plain.summary_totals()
    # a run of the ended mission takes no step and writes no row
    rows = len(hooked.writer.rows)
    hooked.run(duration, step=hook)
    assert calls[0] == plain.step_index + (end.detail != "wall_clock")
    assert hooked.step_index == plain.step_index and len(hooked.writer.rows) == rows
    assert hooked.log.events[-1] == end


def _generated_mission(
    fleet_size, failure_probability, seed, start_docked, mu, secondary_ah, fb_ah, drag, oscillating,
    duration,
):
    """(scenario, duration) of one generated mission (see
    generated_missions) from its drawn values."""
    sc = scaled_mission_scenario(
        name="generated",
        fleet_size=fleet_size,
        contact_failure_probability=failure_probability,
        seed=seed,
    )
    sc.mission.start_docked = start_docked
    sc.mission.turnaround_delay = 1.0
    sc.docking.home_radius = 0.5
    sc.docking.mu = mu
    sc.batteries.secondary.capacity_ah = secondary_ah
    sc.batteries.fb.capacity_ah = fb_ah
    if drag:
        sc.sim.planar_drag_coeff = 0.2
    if oscillating:
        sc.mission.oscillation_amplitude = 0.3
        sc.mission.oscillation_omega = 2.0
    return sc, float(duration)


@st.composite
def generated_missions(draw):
    """(scenario, duration) of a short generated mission: up to four units,
    docked from the start or flown in from 0.5 m away (a capture within
    about 8 s), with contact draws, slipping contacts, small secondaries,
    own packs that empty in the air (0.01 Ah lasts about 6 s of flight),
    planar drag and oscillation each on or off."""
    fleet_size = draw(st.sampled_from([4, 3, 2, 1, 0]))
    return _generated_mission(
        fleet_size,
        draw(st.sampled_from([1.0, 0.5, 0.0])),
        draw(st.integers(0, 2**32 - 1)),
        # only a fleet can start docked
        fleet_size > 0 and draw(st.booleans()),
        draw(st.sampled_from([0.02, 0.05, 0.2, 0.5])),
        draw(st.sampled_from([0.02, 0.05, 0.12])),
        draw(st.sampled_from([0.8, 0.01])),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.integers(10, 20)),
    )


# generated missions that both generated-mission tests fly as examples,
# whatever hypothesis draws, by the event each is named for (see
# test_pinned_missions_show_what_they_are_named_for)
PINNED_MISSIONS = {
    # unit 0's contact fails at 8.6 s; it is shed and unit 1 sent at 9.6 s
    "failed_contact_redispatch": (2, 1.0, 0, False, 0.02, 0.02, 0.8, False, False, 10),
    # unit 0's 0.01 Ah own pack empties on the approach at 6.8 s; it
    # falls and crashes at 7.4 s, and unit 1 is sent in its place
    "crash": (2, 0.0, 0, False, 0.5, 0.12, 0.01, False, False, 10),
    # unit 0 starts docked on a held electrical contact: a docked quiet
    # stretch until its 0.02 Ah secondary empties at 3.9 s
    "docked_quiet_stretch": (1, 0.0, 0, True, 0.5, 0.02, 0.8, False, False, 10),
}


def pinned_examples(test):
    for args in PINNED_MISSIONS.values():
        test = example(mission=_generated_mission(*args))(test)
    return test


def _stepped_outcome(sc, duration, full_path):
    """What a stepped run shows: its rows, telemetry file, totals and host
    bits, or the error it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.csv"
        try:
            w = _stepped(sc, duration, full_path, path, check_unit_lists)
        except (ScenarioError, SimNumericsError) as exc:
            return type(exc), str(exc)
        text = path.read_text(encoding="utf-8")
    rows = [format_row(r) for r in w.writer.rows]
    return w.step_index, rows, text, w.summary_totals(), _host_bits(w)


@settings(deadline=None, derandomize=True, database=None, max_examples=20)
@given(generated_missions())
@pinned_examples
def test_generated_missions_fast_path_matches_full_path(mission):
    sc, duration = mission
    assert _stepped_outcome(sc, duration, False) == _stepped_outcome(sc, duration, True)


@settings(deadline=None, derandomize=True, database=None, max_examples=20)
@given(generated_missions())
@pinned_examples
def test_generated_missions_keep_the_mission_predicates(mission):
    # a finished mission walks the FSM graph, logs its events in order,
    # keeps its books, draws the primary only while no live contact
    # carries the load, draws one pack at a time, draws the energy its
    # telemetry shows and holds its altitude band; while it runs, its
    # unit lists hold, and no unit stays below the ground: one that falls
    # through it on a step rests on it from the next (a landing or a crash)
    sc, duration = mission
    try:
        w = World(sc, keep_rows=True)
    except ScenarioError:
        return
    below = set()

    def step():
        w.step()
        check_unit_lists(w)
        now = {u.uid for u in w.units if u.state[2] < LEG_HEIGHT}
        assert not now & below, (w.step_index, now & below)
        below.clear()
        below.update(now)

    try:
        log = w.run(duration, step=step)
    except SimNumericsError:
        return
    check_phase_walk(log)
    check_event_order(log)
    check_summary_bookkeeping(log)
    check_primary_conduction(log, w.writer.rows)
    check_one_conducting_pack(w.writer.rows)
    check_energy_matches_telemetry(w)
    check_altitude_band(log)


def _api_outcome(w):
    """What a user reads of a world: its events, totals, bus sample, step
    index and rows, floats by their repr so that every bit counts."""
    return (
        w.log.events,
        repr(w.summary_totals()),
        repr(w.bus),
        w.step_index,
        [format_row(r) for r in w.writer.rows],
    )


class WorldApiMachine(RuleBasedStateMachine):
    """A generated mission's world, kept rows and no file, stepped by hand,
    deep-copied and pickled in any order, then run to its end; it ends as
    one straight run() of the same mission does. run() ends a mission at
    its duration, so it cannot resume and comes last, in teardown."""

    world = None

    @initialize(mission=generated_missions())
    def fly_straight(self, mission):
        sc, self.duration = mission
        try:
            straight = World(copy.deepcopy(sc), keep_rows=True)
            straight.run(self.duration)
            self.world = World(sc, keep_rows=True)
        except (ScenarioError, SimNumericsError):
            reject()
        self.want = _api_outcome(straight)
        self.last_step = straight.step_index

    # one step, a row period less three, and spans of about 1, 3 and 9 s
    @rule(n=st.sampled_from([1, 7, 997, 3000, 9000]))
    def step(self, n):
        w = self.world
        for _ in range(min(n, self.last_step - w.step_index)):
            w.step()

    @rule()
    def deep_copy(self):
        self.world = copy.deepcopy(self.world)

    @rule()
    def pickle_round_trip(self):
        self.world = pickle.loads(pickle.dumps(self.world))

    @invariant()
    def events_so_far_are_the_straight_runs(self):
        if self.world is not None:
            events = self.world.log.events
            assert events == self.want[0][: len(events)]

    def teardown(self):
        w = self.world
        if w is None:
            return
        log = w.run(self.duration)
        assert _api_outcome(w) == self.want
        check_phase_walk(log)
        check_event_order(log)
        check_summary_bookkeeping(log)
        check_primary_conduction(log, w.writer.rows)
        check_one_conducting_pack(w.writer.rows)
        check_energy_matches_telemetry(w)
        check_altitude_band(log)


# 8 missions of up to 8 rules each, about 10 s
TestWorldApiMachine = WorldApiMachine.TestCase
TestWorldApiMachine.settings = settings(
    deadline=None, derandomize=True, database=None, max_examples=8, stateful_step_count=8
)


def test_world_api_machine_resumes_the_draws_and_the_row_mark():
    # two units at p = 0.5 whose seed draws a failed contact at 8.55 s and
    # a contact at 17.12 s: pickled before the first draw and deep-copied
    # between the two, the world must resume its contact draws' stream
    # and its rows' event mark
    m = WorldApiMachine()
    m.fly_straight(_generated_mission(2, 0.5, 8, False, 0.02, 0.02, 0.8, False, False, 20))
    assert [e.kind for e in m.want[0] if e.kind.startswith("contact")] == [
        "contact_failure", "contact"
    ]
    for rule in (lambda: m.step(5000), m.pickle_round_trip, lambda: m.step(7000), m.deep_copy):
        rule()
        m.events_so_far_are_the_straight_runs()
    m.teardown()


@pytest.mark.parametrize("name", sorted(PINNED_MISSIONS))
def test_pinned_missions_show_what_they_are_named_for(name):
    # each mission pinned as an example of the generated-mission tests
    # keeps covering what it is named for
    sc, duration = _generated_mission(*PINNED_MISSIONS[name])
    w = World(sc)
    n = round(duration / w.dt)
    docked_quiet = 0
    while w.step_index < n and not w.termination_reason:
        w.step()
        if w.docked_unit is not None and w._quiet_until == math.inf:
            docked_quiet += 1
    log = w.log
    if name == "failed_contact_redispatch":
        failed = log.of_kind("contact_failure")
        assert failed and any(
            e.seq > failed[0].seq and e.uid != failed[0].uid for e in log.of_kind("dispatch")
        )
    elif name == "crash":
        crashed = log.of_kind("crash")
        assert crashed and any(
            e.seq > crashed[0].seq and e.uid != crashed[0].uid for e in log.of_kind("dispatch")
        )
    else:
        assert [(e.t, e.uid) for e in log.of_kind("contact")] == [(0.0, 0)]
        assert docked_quiet > 1000


def test_a_mission_that_ends_on_an_undock_logs_its_detach():
    # the primary empties on the step before a failed contact's unit is
    # shed: the step that sheds it detaches it, then ends the mission
    sc, duration = _generated_mission(*PINNED_MISSIONS["failed_contact_redispatch"])
    w = World(sc)
    while not w.log.of_kind("contact_failure"):
        w.step()
    while w.step_index * w.dt - w.docked_at < sc.mission.failure_redispatch_delay:
        w.step()
    w.primary_wh = 0.0
    log = w.run(duration)
    assert [(e.kind, e.uid, e.detail) for e in log.events[-4:]] == [
        ("undock", 0, ""),
        ("dispatch", 1, ""),
        ("phase", 0, "undock_ascend"),
        ("mission_end", None, "primary_depleted"),
    ]
    assert log.totals["undock_count"] == 1
    check_event_order(log)
    check_summary_bookkeeping(log)


def test_memo_hit_steps_reuse_the_rotor_load(monkeypatch, rk4_calls):
    # the memo carries the host's rotor load, so only a step that
    # integrates the host computes it; the rows are those of the full path
    loads = [0]
    total_rotor_power = flybat.powertrain.total_rotor_power

    def counted(*args):
        loads[0] += 1
        return total_rotor_power(*args)

    monkeypatch.setattr(flybat.powertrain, "total_rotor_power", counted)
    sc, duration = _solo_1khz()
    fast = _stepped(sc, duration, full_path=False)
    assert loads[0] == rk4_calls[0] < fast.step_index // 100
    loads[0] = rk4_calls[0] = 0
    full = _stepped(sc, duration, full_path=True)
    assert loads[0] == rk4_calls[0] == full.step_index == fast.step_index
    assert [format_row(r) for r in fast.writer.rows] == [format_row(r) for r in full.writer.rows]


def test_quiescent_solo_hover_integrates_host_a_handful_of_times(rk4_calls):
    w = World(solo_scenario(duration=2.0))
    w.run(2.0)
    assert w.step_index == 2000
    assert rk4_calls[0] <= 5


@pytest.mark.parametrize(
    "case",
    [lambda: (bundled_scenario("solo_hover"), 60.0), lambda: (_churn_start_docked()[0], 9.0)],
    ids=["solo_hover_60s", "churn_start_docked_9s"],
)
def test_quiet_steps_skip_the_mission_policy(monkeypatch, case):
    # a quiet step (host memo holding, nothing flying, a docked unit on a
    # held electrical contact) only drains the packs and writes telemetry;
    # only the full step runs the mission policy, and only a full row (or
    # the frame, once per stretch) checks the states and builds the
    # host's and the unit's columns
    calls = {}

    def counted(name):
        method = getattr(World, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in ("_orchestrate", "_check_finite", "main_position", "_telemetry_unit"):
        calls[name] = 0
        monkeypatch.setattr(World, name, counted(name))
    sc, duration = case()
    # kept rows, so that a row is built (a world with no sink builds none)
    w = World(sc, keep_rows=True)
    w.run(duration)
    assert w.step_index == round(duration / w.dt)
    assert max(calls.values()) <= 5, calls


def _host_key(w):
    """The host's gains, mass and integrators as bits, and its docked unit."""
    pid = w.main_pid
    floats = (*pid.pos_gains, *pid.att_gains, pid.mass, pid.ix, pid.iy, pid.iz, pid.iyaw)
    return [x.hex() for x in floats], w.docked_unit


@pytest.mark.parametrize(
    "case", [_dock_and_undock, _churn_start_docked], ids=["dock_and_undock", "churn_start_docked"]
)
def test_a_step_that_keeps_the_state_tuple_keeps_the_rest_of_the_host(case):
    # the host memo is keyed by the state tuple alone, which holds only
    # while every change to gains, mass, integrators or the docked unit
    # also assigns a new tuple
    sc, duration = case()
    w = World(sc)
    n = round(duration / w.dt)
    kept = 0
    while w.step_index < n and not w.termination_reason:
        ms, before = w.main_state, _host_key(w)
        w.step()
        if w.main_state is ms:
            kept += 1
            assert _host_key(w) == before, f"step {w.step_index - 1}"
    assert kept > 1000


def test_energy_ledger_lists_packs_in_first_delivery_order():
    # units that recharge on landing swap in on 0.002 Ah secondaries, so
    # own packs and secondaries first deliver interleaved
    w = draw_world(0.5, 1000)
    packs = {"primary": lambda: w.primary_wh}
    for u in w.units:
        packs[u.own_key] = lambda u=u: u.own_wh
        packs[u.secondary_key] = lambda u=u: u.secondary_wh
    # the primary's entry is there from the start; this world starts on
    # unit 0's secondary
    first = ["primary"]
    n = round(w.duration / w.dt)
    while w.step_index < n and not w.termination_reason:
        before = {k: f() for k, f in packs.items()}
        w.step()
        first += [k for k, f in packs.items() if f() < before[k] and k not in first]
    assert list(w.energy_drawn) == first
    assert len(first) > 4 and first[1:] != sorted(first[1:])
    totals = w.summary_totals()
    secondaries = [v for k, v in w.energy_drawn.items() if k.endswith(".secondary")]
    assert len(secondaries) > 1
    assert totals["secondary_energy_wh"] == sum(secondaries)
    assert totals["primary_energy_wh"] == w.energy_drawn["primary"]
    assert totals["energy_drawn"] == w.energy_drawn


OPTIMIZE_CASES = {
    "solo_hover": lambda: (solo_scenario(duration=2.0, telemetry_hz=1000.0), 2.0),
    "paper_demo_25s": lambda: (bundled_scenario("paper_demo"), 25.0),
    "paper_demo_60s": lambda: (bundled_scenario("paper_demo"), 60.0),
    "churn_start_docked": _churn_start_docked,
}


def write_case_telemetry(case, path):
    sc, duration = OPTIMIZE_CASES[case]()
    World(sc, telemetry_path=path).run(duration)


_OPTIMIZED_RUN = """
import sys
from test_engine import write_case_telemetry
write_case_telemetry(sys.argv[1], sys.argv[2])
"""


def _check_same_under_optimize(tmp_path, case):
    write_case_telemetry(case, tmp_path / "a.csv")
    run_optimized(_OPTIMIZED_RUN, case, str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solo_hover_telemetry_same_under_optimize(tmp_path):
    _check_same_under_optimize(tmp_path, "solo_hover")


@pytest.mark.parametrize("case", ["paper_demo_60s", "churn_start_docked"])
def test_mission_telemetry_same_under_optimize(tmp_path, case):
    _check_same_under_optimize(tmp_path, case)


@pytest.mark.parametrize("case", ["paper_demo_25s", "churn_start_docked"])
def test_mission_telemetry_same_across_hash_seeds(tmp_path, case):
    # string hashing differs between the two processes; the bytes may not
    for seed in ("0", "1"):
        run_optimized(
            _OPTIMIZED_RUN, case, str(tmp_path / f"{seed}.csv"), env={"PYTHONHASHSEED": seed}
        )
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()


# --- the contact draw's inputs and splits ------------------------------------


def draw_world(p, seed, **kwargs):
    sc = parse_scenario(DRAWS_CFG)
    sc.docking.contact_failure_probability = p
    sc.sim.seed = seed
    return World(sc, **kwargs)


def _state_bytes(world):
    """Every attribute of world but the draw inputs and the writer, pickled."""
    skip = ("rng", "docking", "writer")
    return pickle.dumps({k: v for k, v in vars(world).items() if k not in skip})


# the first draw is 0.52 for seed 1000 and 0.38 for seed 1002
@pytest.mark.parametrize(
    "inputs", [((0.3, 1000), (0.7, 1000)), ((0.5, 1000), (0.5, 1002))], ids=["probability", "seed"]
)
def test_worlds_differing_in_one_draw_input_agree_until_the_first_draw(tmp_path, inputs):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    a, b = (draw_world(p, seed, telemetry_path=str(path)) for (p, seed), path in zip(inputs, paths))
    while not contact_outcomes(a):
        assert _state_bytes(a) == _state_bytes(b), f"step {a.step_index}"
        a.step()
        b.step()
    # one draw each, on the same step, with opposite outcomes
    assert contact_outcomes(a) == [True] and contact_outcomes(b) == [False]
    a.writer.close()
    b.writer.close()
    rows_a, rows_b = (path.read_bytes().splitlines() for path in paths)
    assert len(rows_a) == len(rows_b) > 700
    # every row but the draw step's is the same
    assert rows_a[:-1] == rows_b[:-1] and rows_a[-1] != rows_b[-1]


def test_split_is_the_world_its_draw_inputs_reach():
    # two points of one sweep world: the first draw (0.52) fails at p = 0.7
    # and makes contact at 0.3, so the second point leaves there
    from flybat.cli import CHECKPOINT_STEPS, _Draws, _fly, _Point

    world = draw_world(0.7, 1000, keep_rows=True)
    world.rng = _Draws([_Point(0, Pcg64(1000), 0.7), _Point(1, Pcg64(1000), 0.3)])
    runs = []
    _fly(world, runs)
    split = runs.pop()
    assert not runs
    # the split resumes from a checkpoint taken in the draw's window: with
    # a unit descending or falling, less than CHECKPOINT_STEPS steps before
    # the draw's step
    draw_step = round(world.log.of_kind("contact_failure")[0].t / world.dt)
    assert {u.phase for u in split.active_units} & {DESCEND, FREE_FALL}
    assert 0 <= draw_step - split.step_index < CHECKPOINT_STEPS
    assert [pt.index for pt in split.rng.points] == [1]
    assert split.docking.contact_failure_probability == 0.3
    _fly(split, runs)
    assert not runs
    fresh = draw_world(0.3, 1000, keep_rows=True)
    fresh.run()
    assert contact_outcomes(world)[0] is False
    assert contact_outcomes(split) == contact_outcomes(fresh)
    assert contact_outcomes(fresh)[0] is True
    assert dump_telemetry(split.writer.rows) == dump_telemetry(fresh.writer.rows)


# --- benchmark tracer bindings -----------------------------------------------


def _perfbench_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_counts_powertrain_calls_and_restores_bindings():
    # the benchmark's per-layer metrics wrap pt.solve_bus and pt.discharge
    # on the powertrain module; an engine that bound them another way
    # would read zero calls there rather than fail. A docked host under an
    # oscillating setpoint never goes quiet, so every step is a full one
    # and calls solve_bus (a quiet step drains its pack inline)
    tracer = _perfbench_tracer()
    targets = []
    for module, cls, attr, *_ in (*tracer.TIMED, *tracer.PHASED, tracer.CLI_RUN_MISSION):
        owner = importlib.import_module(module)
        targets.append((getattr(owner, cls) if cls else owner, attr))
    before = [vars(owner).get(attr) for owner, attr in targets]

    sc, _ = _oscillating()
    sc.mission.fleet_size = 1
    sc.mission.start_docked = True
    tr = tracer.Tracer()
    with tr:
        w = World(sc)
        w.run(1.0)
    run = tr.snapshot()["tables"]["run"]
    assert w.step_index == 1000
    assert run["powertrain.solve_bus"][0] == w.step_index
    assert run["powertrain.discharge"][0] > 0
    after = [vars(owner).get(attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))


# run-phase calls of every binding the benchmark tracer wraps, over the
# first 25 s of paper_demo (dispatch, approach, free-fall capture, docked
# hover) written to a telemetry file; a rebinding that hides calls from the tracer changes these. The
# 998 quiet steps before the dispatch at 1 s drain the primary inline, so
# solve_bus and discharge count the other 24,002 steps
PAPER_DEMO_25S_CALLS = {
    "engine.step": 25_000,
    "dynamics.rk4_flat": 41_486,
    "control.position_flat": 41_401,
    "control.attitude_flat": 41_401,
    "control.feedforward_lookup": 20_207,
    "aero.downwash_force": 20_207,
    "aero.align_torque": 20_207,
    "docking.fsm_step": 20_292,
    "docking.capture_check": 1,
    "powertrain.solve_bus": 24_002,
    "powertrain.discharge": 44_209,
    "telemetry.write_row": 2_504,
}


def test_benchmark_tracer_counts_paper_demo_prefix_calls(tmp_path):
    tracer = _perfbench_tracer()
    snaps = []
    for path in (tmp_path / "telemetry.csv", None):
        tr = tracer.Tracer()
        with tr:
            World(bundled_scenario("paper_demo"), telemetry_path=path).run(25.0)
        snaps.append(tr.snapshot())
    for snap, write_rows in zip(snaps, (2_504, 0)):
        run = snap["tables"]["run"]
        calls = {name: run.get(name, (0,))[0] for name in PAPER_DEMO_25S_CALLS}
        # a world with no telemetry file and no kept rows writes no row
        assert calls == {**PAPER_DEMO_25S_CALLS, "telemetry.write_row": write_rows}
        assert snap["counts"]["engine.airborne_unit_steps"] == 20_291
        assert snap["counts"]["engine.repeat_steps"] == 3_806
