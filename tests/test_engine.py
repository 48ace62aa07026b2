import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import flybat.engine
from conftest import docked_contact_trace, run_optimized, scaled_mission_scenario
from flybat.docking import DOCKED, GROUNDED, TRANSITIONS, DockPhase
from flybat.dynamics import GRAVITY, contact_forces, contact_retained
from flybat.engine import SimNumericsError, World
from flybat.powertrain import PowertrainError, hover_power
from flybat.scenario import bundled_scenario, default_scenario, set_scenario_value
from flybat.telemetry import format_row


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
    r_s = w.units[0].secondary.internal_resistance
    integral_wh = (
        np.trapezoid(p, t) + np.trapezoid(ip**2 * r_p + isec**2 * r_s, t)
    ) / 3600.0
    drawn = w.primary_drawn_wh + sum(
        u.secondary_drawn_wh for u in w.units if u.secondary_drawn_wh is not None
    )
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
    m_m, m_fb = world.main_params.mass, world.fb_params.mass
    held = [
        contact_retained(contact_forces(m_m, m_fb, thrust, planar), sc.docking.mu)
        for thrust, planar, _, _ in trace
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
    w = World(solo_scenario())
    with pytest.raises(ValueError):
        w.run(0.0)


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
    for uid in (0, 1):
        walk = [e for e in phases if e.uid == uid]
        prev = GROUNDED
        if start_docked and uid == 0:
            # attached at t = 0, never grounded first
            first = walk.pop(0)
            assert (first.t, first.detail) == (0.0, DOCKED.value)
            prev = DOCKED
        for e in walk:
            phase = DockPhase(e.detail)
            assert phase in TRANSITIONS[prev], (uid, e.t, prev, phase)
            prev = phase


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


def _stepped(sc, duration, full_path):
    w = World(sc, keep_rows=True)
    n = round(duration / w.dt)
    while w.step_index < n and not w.terminated:
        if full_path:
            # an equal but fresh tuple never matches the memo by identity
            w.main_state = tuple(list(w.main_state))
        w.step()
    return w


def _host_bits(w):
    pid = w.main_pid
    return [x.hex() for x in (*w.main_state, pid.ix, pid.iy, pid.iz, pid.iyaw)]


@pytest.mark.parametrize(
    "case,engages",
    [(_solo_1khz, True), (_start_docked, True), (_oscillating, False), (_dock_and_undock, True)],
    ids=["solo_1khz", "start_docked", "oscillating", "dock_and_undock"],
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
        assert fast.dock_count >= 1 and fast.undock_count >= 1


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
    # would read zero calls there rather than fail
    tracer = _perfbench_tracer()
    targets = []
    for module, cls, attr, *_ in (*tracer.TIMED, *tracer.PHASED, tracer.CLI_RUN_MISSION):
        owner = importlib.import_module(module)
        targets.append((getattr(owner, cls) if cls else owner, attr))
    before = [vars(owner).get(attr) for owner, attr in targets]

    sc = solo_scenario(duration=1.0)
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
# hover); a rebinding that hides calls from the tracer changes these
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
    "powertrain.solve_bus": 25_000,
    "powertrain.discharge": 45_207,
    "telemetry.write_row": 2_504,
}


def test_benchmark_tracer_counts_paper_demo_prefix_calls():
    tracer = _perfbench_tracer()
    tr = tracer.Tracer()
    with tr:
        World(bundled_scenario("paper_demo")).run(25.0)
    snap = tr.snapshot()
    run = snap["tables"]["run"]
    assert {name: run[name][0] for name in PAPER_DEMO_25S_CALLS} == PAPER_DEMO_25S_CALLS
    assert snap["counts"]["engine.airborne_unit_steps"] == 20_291
    assert snap["counts"]["engine.repeat_steps"] == 3_806
