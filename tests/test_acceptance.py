"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest -v -s tests/test_acceptance.py` (the two golden
missions make this the slow part of the suite; budget a few minutes)."""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    docked_contact_trace,
    finish,
    golden_section_argmax,
    maneuver_durations,
    start_optimized,
)
from flybat.control import build_ff_map, zero_map
from flybat.docking import APPROACH_ABOVE
from flybat.dynamics import GRAVITY, contact_load, docked_mass_share
from flybat.endurance import (
    OPTIMAL_PHI,
    EnduranceInputs,
    design_comparison,
    normalized_curve,
    normalized_flight_time,
    shape_factor,
)
from flybat.engine import World
from flybat.mission import run_mission
from flybat.powertrain import (
    ActiveSource,
    BatteryPack,
    SwitchCircuit,
    SwitchTarget,
    command_switch,
    discharge,
    hover_power,
    ocv,
    solve_bus,
    time_to_depletion,
)
from flybat.scenario import (
    _calibrated_main_kp,
    build_world_inputs,
    bundled_scenario,
    default_scenario,
)
from flybat.telemetry import read_telemetry

PHI_REF = 190.0 / 820.0


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def solo_run(out_dir):
    path = out_dir / "solo_hover_telemetry.csv"
    sc = bundled_scenario("solo_hover")
    t0 = time.perf_counter()
    result = run_mission(None, sc, telemetry_path=str(path))
    runtime = time.perf_counter() - t0
    return result, path, runtime


_REPLAY = """
import sys
from flybat.mission import run_mission
from flybat.scenario import bundled_scenario
run_mission(None, bundled_scenario("paper_demo"), telemetry_path=sys.argv[1])
"""


@pytest.fixture(scope="session")
def demo_replay(out_dir):
    """Criterion 10's replay of paper_demo in a second process, started
    before demo_run so that the two missions run side by side."""
    path = out_dir / "paper_demo_replay.csv"
    proc = start_optimized(_REPLAY, str(path))
    yield proc, path
    if proc.poll() is None:
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="session")
def demo_run(out_dir, demo_replay):
    path = out_dir / "paper_demo_telemetry.csv"
    sc = bundled_scenario("paper_demo")
    t0 = time.perf_counter()
    result = run_mission(None, sc, telemetry_path=str(path))
    runtime = time.perf_counter() - t0
    return result, path, runtime


# ---------------------------------------------------------------------------
# 1. endurance peak
# ---------------------------------------------------------------------------


def test_criterion_01_endurance_peak():
    t0 = time.perf_counter()
    analytic_ok = abs(OPTIMAL_PHI - 2.0 / 3.0) <= 1e-9
    numeric = golden_section_argmax(shape_factor, 0.0, 0.999999, tol=1e-12)
    numeric_ok = abs(numeric - 2.0 / 3.0) <= 1e-6
    at_peak = normalized_flight_time(2.0 / 3.0)
    peak_ok = at_peak == pytest.approx(1.0, abs=1e-12)
    runtime = time.perf_counter() - t0
    report(
        1,
        "endurance-peak",
        analytic_ok and numeric_ok and peak_ok and runtime < 1.0,
        f"argmax={numeric:.9f} curve(2/3)={at_peak:.12f} runtime={runtime:.3f}s",
    )


# ---------------------------------------------------------------------------
# 2. normalized flight time at the reference configuration
# ---------------------------------------------------------------------------


def test_criterion_02_normalized_time_at_reference():
    value = normalized_curve([PHI_REF])[0][1]
    ok = abs(value - 0.5277) <= 1e-3
    report(2, "normalized-time-reference", ok, f"value={value:.6f} target=0.5277±1e-3")


# ---------------------------------------------------------------------------
# 3. solo hover reproduction
# ---------------------------------------------------------------------------


def test_criterion_03_solo_hover(solo_run):
    result, _, runtime = solo_run
    total = result.summary.total_time_s
    ok = (
        result.summary.termination_reason == "primary_depleted"
        and abs(total - 720.0) <= 0.02 * 720.0
        and runtime < 30.0
    )
    report(
        3,
        "solo-hover-720s",
        ok,
        f"total={total:.1f}s ({result.summary.termination_reason}) runtime={runtime:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. mission extension factor
# ---------------------------------------------------------------------------


def test_criterion_04_mission_extension(solo_run, demo_run):
    solo_result, _, _ = solo_run
    demo_result, _, runtime = demo_run
    solo_time = solo_result.summary.total_time_s
    extension = demo_result.summary.total_time_s / solo_time
    ok = (
        4.0 <= extension <= 5.5
        and demo_result.summary.contact_failures == 0
        and runtime < 300.0
    )
    report(
        4,
        "mission-extension",
        ok,
        f"extension={extension:.3f} total={demo_result.summary.total_time_s:.0f}s "
        f"runtime={runtime:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. contact mechanics over random inputs
# ---------------------------------------------------------------------------


def test_criterion_05_contact_mechanics():
    # the contact rule that World.step runs on every docked step
    rng = np.random.default_rng(505)
    mu = default_scenario().docking.mu
    worst = 0.0
    ok = True
    for _ in range(10_000):
        m_m = float(rng.uniform(0.05, 10.0))
        m_fb = float(rng.uniform(0.01, 5.0))
        thrust = float(rng.uniform(0.0, 100.0))
        normal, friction, held = contact_load(docked_mass_share(m_m, m_fb), thrust, 0.0, 0.0, mu)
        if friction != 0.0 or not held:
            ok = False
            break
        expected = m_fb * thrust / (m_m + m_fb)
        worst = max(worst, abs(normal - expected))
        if worst > 1e-9:
            ok = False
            break
    report(5, "contact-mechanics", ok, f"max|N-err|={worst:.2e} over 1e4 samples")


# ---------------------------------------------------------------------------
# 6. contact retention through the 12 m/s^2 maneuver
# ---------------------------------------------------------------------------


def test_criterion_06_maneuver_retention():
    sc = default_scenario("maneuver")
    sc.mission.fleet_size = 1
    sc.mission.start_docked = True
    sc.mission.termination = "wall_clock"
    sc.mission.oscillation_omega = 3.0
    sc.mission.oscillation_amplitude = 12.0 / 3.0**2
    sc.sim.duration = 30.0
    sc.sim.planar_drag_coeff = 0.08
    sc.docking.contact_failure_probability = 0.0
    world = World(sc, keep_rows=True)
    trace = docked_contact_trace(world, 30_000)

    mu = sc.docking.mu
    m_m = world.main_params.mass
    m_fb = world.fb_params.mass
    share = docked_mass_share(m_m, m_fb)
    inv_both = 1.0 / m_m + 1.0 / m_fb
    retained_all = True
    worst = 0.0
    peak_friction = 0.0
    peak_thrust = 0.0
    for thrust_eff, ext_planar, normal, friction in trace:
        # independent two-body solve: zero relative acceleration along
        # the thrust axis and the platform plane
        a = np.array([[inv_both, 0.0], [0.0, inv_both]])
        b = np.array([thrust_eff / m_m, ext_planar / m_m])
        n_oracle, f_oracle = np.linalg.solve(a, b)
        worst = max(worst, abs(friction - f_oracle), abs(normal - n_oracle))
        peak_friction = max(peak_friction, friction)
        peak_thrust = max(peak_thrust, thrust_eff)
        if not contact_load(share, thrust_eff, 0.0, ext_planar, mu)[2]:
            retained_all = False

    no_slip_events = not world.log.of_kind("contact_slip")
    # the maneuver really reaches its commanded lateral acceleration:
    # peak thrust ~ m_tot * sqrt(12^2 + g^2)
    expected_peak = (m_m + m_fb) * math.sqrt(12.0**2 + GRAVITY**2)
    thrust_ok = abs(peak_thrust - expected_peak) < 0.15 * expected_peak
    ok = retained_all and no_slip_events and worst <= 1e-6 and thrust_ok
    report(
        6,
        "maneuver-retention",
        ok,
        f"oracle-err={worst:.2e} peak-friction={peak_friction:.3f}N "
        f"peak-thrust={peak_thrust:.1f}N (expect~{expected_peak:.1f}N)",
    )


# ---------------------------------------------------------------------------
# 7. switching safety over randomized sequences
# ---------------------------------------------------------------------------


def test_criterion_07_switching_safety():
    rng = np.random.default_rng(707)
    violations = 0
    parallel_checked = 0
    p = BatteryPack(3, 2.2)
    for _ in range(1000):
        p_wh = float(rng.uniform(0, 1)) * p.capacity_wh
        has_secondary = rng.random() < 0.85
        s = BatteryPack(3, 1.5) if has_secondary else None
        s_wh = float(rng.uniform(0, 1)) * s.capacity_wh if has_secondary else 0.0
        circuit = SwitchCircuit(diode_drop=float(rng.uniform(0.02, 0.2)), secondary_present=has_secondary)
        for _ in range(8):
            cmd = rng.random()
            if cmd < 0.4 and has_secondary:
                circuit = command_switch(circuit, SwitchTarget.USE_SECONDARY)
            elif cmd < 0.8:
                circuit = command_switch(circuit, SwitchTarget.USE_PRIMARY)
            load = float(rng.uniform(0.0, 300.0))
            sample = solve_bus(circuit, p, p_wh, s, s_wh, load)
            if sample.current_primary < 0.0 or sample.current_secondary < 0.0:
                violations += 1
            live = (circuit.relay_closed and p_wh > 0.0) or (
                has_secondary and s is not None and s_wh > 0.0
            )
            if live and sample.bus_voltage <= 0.0:
                violations += 1
            if sample.active_source is ActiveSource.BOTH:
                parallel_checked += 1
                if abs(ocv(p, p_wh) - ocv(s, s_wh)) > 0.2 * 3:
                    violations += 1
    ok = violations == 0
    report(
        7,
        "switching-safety",
        ok,
        f"violations={violations} parallel-samples={parallel_checked}",
    )


# ---------------------------------------------------------------------------
# 8. discharge curve behavior under constant hover power
# ---------------------------------------------------------------------------


def test_criterion_08_discharge_behavior():
    sc = default_scenario()
    inp = build_world_inputs(sc)
    load = hover_power(1.140, inp.main_params.k_p)
    pack = inp.secondary
    energy = pack.capacity_wh
    primary = BatteryPack(3, 2.2)
    # relay open: the secondary alone carries the constant-power load
    circuit = command_switch(
        SwitchCircuit(diode_drop=sc.circuit.diode_drop, secondary_present=True),
        SwitchTarget.USE_SECONDARY,
    )
    dt = 0.01
    decim = 10
    volts, amps = [], []
    i = 0
    while energy > 0.0:
        sample = solve_bus(circuit, primary, primary.capacity_wh, pack, energy, load)
        if i % decim == 0:
            volts.append(ocv(pack, energy))
            amps.append(sample.current_secondary)
        energy = discharge(pack, energy, load, dt, current=sample.current_secondary)
        i += 1
    v = np.array(volts)
    a = np.array(amps)
    v_monotone = bool(np.all(np.diff(v) <= 1e-12))
    current_violations = int(np.sum(np.diff(a) < -1e-12))
    spans = v[0] == pytest.approx(12.6, abs=1e-9) and v[-1] <= 9.05
    ok = v_monotone and current_violations <= 1 and bool(spans)
    report(
        8,
        "discharge-behavior",
        ok,
        f"V {v[0]:.2f}->{v[-1]:.2f} monotone={v_monotone} "
        f"I {a[0]:.2f}->{a[-1]:.2f}A violations={current_violations}",
    )


# ---------------------------------------------------------------------------
# 9. docking timing windows
# ---------------------------------------------------------------------------


def test_criterion_09_docking_timing():
    sc = default_scenario("timing")
    sc.mission.fleet_size = 1
    sc.mission.ground_recharge = False
    sc.mission.termination = "wall_clock"
    sc.batteries.secondary.capacity_ah = 0.12  # shorten the docked ride only
    sc.docking.contact_failure_probability = 0.0
    sc.sim.duration = 120.0
    result = run_mission(None, sc)
    trace = [(e.t, e.detail) for e in result.log.of_kind("phase") if e.uid == 0]
    dock, undock = maneuver_durations(trace)
    ok = dock is not None and undock is not None and 15.0 <= dock <= 30.0 and 5.0 <= undock <= 12.0
    report(9, "docking-timing", ok, f"dock={dock and round(dock,2)}s undock={undock and round(undock,2)}s")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(demo_run, demo_replay):
    # the replay is a second process, under python -O
    _, first_path, _ = demo_run
    proc, second_path = demo_replay
    finish(proc)
    a = first_path.read_bytes()
    b = second_path.read_bytes()
    ok = a == b and len(a) > 0
    report(10, "determinism", ok, f"bytes={len(a)} identical={a == b}")


def test_paper_demo_prefix_same_with_cold_and_warm_calibration_cache(tmp_path):
    # the in-process half of determinism: the host k_p comes from a cold
    # calibration, then from _calibrated_main_kp's cache
    _calibrated_main_kp.cache_clear()
    data = []
    for name in ("cold", "warm"):
        path = tmp_path / f"{name}.csv"
        sc = bundled_scenario("paper_demo")
        sc.sim.duration = 25.0
        run_mission(None, sc, telemetry_path=str(path))
        data.append(path.read_bytes())
    info = _calibrated_main_kp.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert data[0] == data[1] and len(data[0]) > 0


# ---------------------------------------------------------------------------
# 11. feedforward efficacy
# ---------------------------------------------------------------------------


class _PinnedWorld(World):
    """A world whose unit 0, once pinned, is held kinematically at a
    fixed offset from the host COM, level, with a fixed rotor thrust."""

    def pin(self, rel, thrust):
        u = self.units[0]
        u.phase = APPROACH_ABOVE
        if u not in self.active_units:
            self.active_units.append(u)
        self.pin_rel = rel
        self.pin_thrust = thrust

    def _step_unit(self, u, t, dt, plat):
        p = self.main_position()
        rel = self.pin_rel
        u.state = (
            p[0] + rel[0], p[1] + rel[1], p[2] + rel[2],
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        u.thrust = self.pin_thrust
        return True


def _hover_under_downwash_rms(ff_map, rel, seconds=20.0):
    sc = default_scenario("ff_test")
    sc.mission.fleet_size = 1
    sc.mission.termination = "wall_clock"
    sc.mission.dispatch_delay = 1e9
    sc.control.ff_mode = "zero"
    sc.sim.duration = seconds
    world = _PinnedWorld(sc, keep_rows=True)
    if ff_map is not None:
        world.ff_map = ff_map
    world.pin(rel, thrust=0.320 * GRAVITY)
    world.run(seconds)
    z = np.array([r.main_z for r in world.writer.rows])
    return float(np.sqrt(np.mean((z - sc.mission.hover_z) ** 2)))


def test_criterion_11_feedforward_efficacy():
    # build the map the way the flights would: hold station at a grid of
    # separations with a zero map and record the integral thrust offsets
    sc = default_scenario("ff_collect")
    sc.mission.fleet_size = 1
    sc.mission.termination = "wall_clock"
    sc.mission.dispatch_delay = 1e9
    sc.control.ff_mode = "zero"
    sc.sim.duration = 1e9
    world = _PinnedWorld(sc, keep_rows=True)
    pid = world.main_pid
    base = zero_map(*sc.control.ff_edges())
    samples = []
    dwell_steps = 8000
    for lat in base.lat_centers[:3]:
        for gap in base.gap_centers:
            world.pin((float(lat), 0.0, float(gap)), thrust=0.320 * GRAVITY)
            for _ in range(dwell_steps):
                world.step()
            # the thrust offset the vertical position integral sustains
            offset = world.main_cfg.pos_i * pid.iz * world.main_params.mass
            samples.append(((float(lat), 0.0, float(gap)), offset))
    ff_map = build_ff_map(samples, *sc.control.ff_edges())

    rel = (0.0, 0.0, 0.40)
    rms_zero = _hover_under_downwash_rms(None, rel)
    rms_ff = _hover_under_downwash_rms(ff_map, rel)
    ok = rms_zero >= 5.0 * rms_ff > 0.0
    report(
        11,
        "feedforward-efficacy",
        ok,
        f"rms_zero={rms_zero*1000:.2f}mm rms_ff={rms_ff*1000:.3f}mm "
        f"ratio={rms_zero / rms_ff:.1f}x",
    )


# ---------------------------------------------------------------------------
# 12. energy audit
# ---------------------------------------------------------------------------


def _audit(result, path):
    rows = read_telemetry(path)
    t = np.array([r.time for r in rows])
    p = np.array([r.power for r in rows])
    i_p = np.array([r.current_primary for r in rows])
    i_s = np.array([r.current_secondary for r in rows])
    r_ohm = 0.025
    integral = (np.trapezoid(p, t) + np.trapezoid((i_p**2 + i_s**2) * r_ohm, t)) / 3600.0
    drawn = sum(v for k, v in result.summary.energy_drawn.items() if not k.endswith(".own"))
    return integral, drawn


def test_criterion_12_energy_audit(solo_run, demo_run):
    details = []
    ok = True
    for label, (result, path, _) in (("solo_hover", solo_run), ("paper_demo", demo_run)):
        integral, drawn = _audit(result, path)
        rel = abs(integral - drawn) / drawn
        details.append(f"{label}: drawn={drawn:.3f}Wh integral={integral:.3f}Wh rel={rel:.2e}")
        ok = ok and rel <= 1e-3
    report(12, "energy-audit", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# README's headline numbers
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _printed(text: str, pattern: str) -> str:
    """The number that pattern's one group finds in text."""
    found = re.search(pattern, text)
    assert found, f"README's headline numbers lack {pattern!r}"
    return found.group(1)


def _as_printed(value: float, printed: str) -> str:
    """value in printed's form: its decimals, with thousands commas."""
    decimals = len(printed.partition(".")[2])
    return f"{value:,.{decimals}f}"


def test_readme_headline_numbers_are_the_programs(demo_run):
    # every figure of README's "Headline numbers", at its printed
    # precision, from the golden mission that criterion 4 flies and from
    # the calls the section names; its "Step size" table is not checked
    text = README.read_text(encoding="utf-8")
    section = text.partition("## Headline numbers")[2].partition("\n## ")[0]
    section = " ".join(section.split())
    result, _, _ = demo_run
    summary, world = result.summary, result.world
    switches = [e for e in result.log.events if e.kind == "switch"]
    spans = [
        b.t - a.t
        for a, b in zip(switches, switches[1:])
        if (a.detail, b.detail) == ("secondary", "primary")
    ]
    shadow = time_to_depletion(
        world.secondary, world.secondary.capacity_wh, hover_power(1.14, world.main_params.k_p),
        0.001, 0.05,
    )
    design = design_comparison(EnduranceInputs(0.63, 0.2317, 128.5, 164.4), 720.0)
    figures = {
        r"flies ([\d,.]+) s:": summary.total_time_s,
        r"([\d,.]+) s on the primary": summary.time_on_primary_s,
        r"([\d,.]+) s on secondaries": summary.time_on_secondary_s,
        r"solo life of ([\d,.]+) s": summary.solo_equivalent_time_s,
        r"`extension_factor` ([\d.]+)\)": summary.extension_factor,
        r"calibrated k_p, gives ([\d.]+) s": shadow,
        r"`optimal_time_s` ([\d,.]+) s": design.optimal_time,
    }
    for pattern, value in figures.items():
        printed = _printed(section, pattern)
        assert _as_printed(value, printed) == printed, (pattern, value)
    span = _printed(section, r"nine docks keeps the host on its secondary for ([\d.]+) s")
    assert [_as_printed(s, span) for s in spans] == [span] * 9
