import pytest

from conftest import run_optimized
from flybat.powertrain import (
    ActiveSource,
    BatteryPack,
    PowertrainError,
    SwitchCircuit,
    SwitchTarget,
    command_switch,
    discharge,
    hover_power,
    k_thrust_from_kp,
    ocv,
    ocv_per_cell,
    rotor_power,
    solve_bus,
    time_to_depletion,
    total_rotor_power,
)

G = 9.81


def pack_3s_22(energy=None, r=0.0):
    p = BatteryPack.fresh(3, 2.2, 0.190, internal_resistance=r)
    if energy is not None:
        p = BatteryPack(3, 2.2, 0.190, energy, p.capacity_wh, r)
    return p


def pack_3s_15(energy=None, r=0.0):
    p = BatteryPack.fresh(3, 1.5, 0.135, internal_resistance=r)
    if energy is not None:
        p = BatteryPack(3, 1.5, 0.135, energy, p.capacity_wh, r)
    return p


def pack_at_soc(soc, cells=3, capacity_ah=1.5, r=0.0):
    full = BatteryPack.fresh(cells, capacity_ah, 0.1, internal_resistance=r)
    return BatteryPack(cells, capacity_ah, 0.1, soc * full.capacity_wh, full.capacity_wh, r)


# ---------------------------------------------------------------------------
# rotor / hover power
# ---------------------------------------------------------------------------


def test_rotor_power_zero_and_homogeneity():
    assert rotor_power(0.0, 11.0) == 0.0
    for k in (1.0, 10.7, 42.0):
        assert rotor_power(2.0, k) / rotor_power(1.0, k) == pytest.approx(2.0**1.5, rel=1e-12)
    with pytest.raises(PowertrainError):
        rotor_power(-1.0, 10.0)


def test_rotor_k_calibrated_from_docked_hover_current():
    # docked hover draws about 18 A at 11.1 V nominal: 199.8 W for a
    # 1.140 kg vehicle, i.e. thrust 11.1834 N over four rotors
    p_total = 18.0 * 11.1
    thrust = 1.140 * G
    per_rotor = thrust / 4.0
    k = (p_total / 4.0) / per_rotor**1.5
    assert k == pytest.approx(10.6847, abs=2e-4)
    # round trip through the 4-rotor power model
    assert total_rotor_power(thrust, k) == pytest.approx(p_total, rel=1e-12)
    assert 4.0 * rotor_power(per_rotor, k) == pytest.approx(p_total, rel=1e-12)
    # consistent with the mass-based constant within a fraction of a percent
    k_from_kp = k_thrust_from_kp(164.435)
    assert k == pytest.approx(k_from_kp, rel=5e-3)


def test_hover_power_zero_mass_and_scaling():
    assert hover_power(0.0, 164.4) == 0.0
    assert hover_power(4.0, 164.4) / hover_power(1.0, 164.4) == pytest.approx(8.0, rel=1e-12)


def test_hover_kp_calibrated_from_solo_flight():
    # 3S 2.2 Ah at 3.7 V nominal holds 24.42 Wh; a 12 min hover of the
    # 0.820 kg vehicle means 122.1 W, so k_p = 122.1 / 0.82**1.5
    energy_wh = 2.2 * 3 * 3.7
    assert energy_wh == pytest.approx(24.42, abs=1e-12)
    p_hover = energy_wh * 3600.0 / 720.0
    assert p_hover == pytest.approx(122.1, abs=1e-9)
    k_p = p_hover / 0.82**1.5
    assert k_p == pytest.approx(164.435, abs=1e-3)
    assert hover_power(0.820, k_p) == pytest.approx(p_hover, rel=1e-12)
    # the same constant puts the docked configuration near 200 W / 18 A
    assert hover_power(1.140, k_p) == pytest.approx(200.0, abs=0.5)


# ---------------------------------------------------------------------------
# ocv
# ---------------------------------------------------------------------------


def test_ocv_full_and_empty():
    assert ocv(pack_at_soc(1.0)) == pytest.approx(12.6, abs=1e-12)
    assert ocv(pack_at_soc(0.0)) == pytest.approx(9.0, abs=1e-12)


def test_ocv_interpolation_oracle_mid_segment():
    # linear interpolation between the (0.2, 3.70) and (0.9, 4.05) knots
    soc = 0.55
    v_oracle = 3.70 + (4.05 - 3.70) * (soc - 0.2) / (0.9 - 0.2)
    assert v_oracle == pytest.approx(3.875, abs=1e-12)
    assert ocv(pack_at_soc(soc)) == pytest.approx(3 * v_oracle, abs=1e-12)
    assert ocv(pack_at_soc(soc)) == pytest.approx(11.625, abs=1e-9)


def test_ocv_monotone_in_soc():
    prev = -1.0
    for i in range(1001):
        v = ocv_per_cell(i / 1000.0)
        assert v >= prev
        prev = v
    assert ocv_per_cell(-0.5) == 3.0
    assert ocv_per_cell(1.5) == 4.2


# ---------------------------------------------------------------------------
# discharge
# ---------------------------------------------------------------------------


def test_discharge_energy_integration_oracle():
    # 16.65 Wh at a constant 150 W (no resistive loss) empties in
    # 16.65/150 h = 399.6 s
    p = pack_3s_15(r=0.0)
    assert p.capacity_wh == pytest.approx(16.65, abs=1e-12)
    expected = p.capacity_wh / 150.0 * 3600.0
    assert expected == pytest.approx(399.6, abs=1e-9)
    t, dt = 0.0, 0.05
    while not p.is_depleted:
        p = discharge(p, 150.0, dt)
        t += dt
    assert t == pytest.approx(expected, abs=2 * dt)
    assert t / 60.0 == pytest.approx(6.66, abs=0.02)


def test_discharge_zero_load_is_identity():
    p = pack_3s_15()
    assert discharge(p, 0.0, 10.0) == p


def test_discharge_primary_round_trip_anchors_solo_flight():
    p = pack_3s_22(r=0.0)
    t = time_to_depletion(p, 122.1, dt=0.05, diode_drop=0.05)
    assert t == pytest.approx(720.0, rel=0.02)


def test_discharge_conserves_energy(rng):
    p = pack_3s_15(r=0.025)
    removed = 0.0
    dt = 0.1
    for _ in range(500):
        load = float(rng.uniform(0.0, 200.0))
        current = load / ocv(p) if ocv(p) > 0 else 0.0
        before = p.energy_wh
        p = discharge(p, load, dt, current=current)
        if p.energy_wh > 0.0:
            removed += (load + current * current * p.internal_resistance) * dt / 3600.0
            assert before - p.energy_wh == pytest.approx(
                (load + current**2 * p.internal_resistance) * dt / 3600.0, rel=1e-6
            )
    with pytest.raises(PowertrainError):
        discharge(p, -1.0, dt)


# ---------------------------------------------------------------------------
# solve_bus / command_switch
# ---------------------------------------------------------------------------


def test_bus_single_source():
    c = SwitchCircuit(diode_drop=0.05)
    primary = pack_at_soc(0.5, capacity_ah=2.2)  # 11.1 V nominal region
    s = solve_bus(c, primary, None, 100.0)
    assert s.bus_voltage == pytest.approx(ocv(primary) - 0.05, abs=1e-12)
    assert s.current_secondary == 0.0
    assert s.current_primary == pytest.approx(100.0 / s.bus_voltage, rel=1e-12)
    assert s.active_source is ActiveSource.PRIMARY


def test_bus_higher_voltage_source_wins():
    c = SwitchCircuit(diode_drop=0.05, secondary_present=True)
    primary = pack_at_soc(0.4667, capacity_ah=2.2)  # ~11.5 V
    secondary = pack_at_soc(1.0)  # 12.6 V
    assert ocv(primary) == pytest.approx(11.5, abs=0.1)
    s = solve_bus(c, primary, secondary, 150.0)
    assert s.active_source is ActiveSource.SECONDARY
    assert s.current_primary == 0.0
    assert s.current_secondary > 0.0


def test_bus_relay_open_forces_lower_voltage_secondary():
    c = SwitchCircuit(relay_closed=False, diode_drop=0.05, secondary_present=True)
    primary = pack_at_soc(1.0, capacity_ah=2.2)  # 12.6 V
    secondary = pack_at_soc(0.0222)  # ~9.6 V
    assert ocv(secondary) == pytest.approx(9.6, abs=0.2)
    s = solve_bus(c, primary, secondary, 100.0)
    assert s.active_source is ActiveSource.SECONDARY
    assert s.current_primary == 0.0
    assert s.bus_voltage == pytest.approx(ocv(secondary) - 0.05, abs=1e-12)


def test_bus_collapse_when_no_source():
    c = SwitchCircuit(diode_drop=0.05)
    dead = pack_at_soc(0.0, capacity_ah=2.2)
    s = solve_bus(c, dead, None, 50.0)
    assert s.active_source is ActiveSource.NONE
    assert s.bus_voltage == 0.0
    assert s.current_primary == 0.0 and s.current_secondary == 0.0


def test_command_switch_rules():
    c = SwitchCircuit(secondary_present=True)
    opened = command_switch(c, SwitchTarget.USE_SECONDARY)
    assert not opened.relay_closed
    closed = command_switch(opened, SwitchTarget.USE_PRIMARY)
    assert closed.relay_closed

    no_secondary = SwitchCircuit(secondary_present=False)
    with pytest.raises(PowertrainError):
        command_switch(no_secondary, SwitchTarget.USE_SECONDARY)
    assert no_secondary.relay_closed  # unchanged

    with pytest.raises(PowertrainError):
        SwitchCircuit(relay_closed=False, secondary_present=False)
    with pytest.raises(PowertrainError):
        SwitchCircuit(diode_drop=0.5)


def test_no_reverse_current_randomized(rng):
    for _ in range(2000):
        p = pack_at_soc(float(rng.uniform(0.0, 1.0)), capacity_ah=2.2)
        s_soc = float(rng.uniform(0.0, 1.0))
        sec = pack_at_soc(s_soc) if rng.random() < 0.8 else None
        relay_closed = bool(rng.random() < 0.7) or sec is None
        c = SwitchCircuit(
            relay_closed=relay_closed,
            diode_drop=float(rng.uniform(0.01, 0.2)),
            secondary_present=sec is not None,
        )
        load = float(rng.uniform(0.0, 400.0))
        s = solve_bus(c, p, sec, load)
        assert s.current_primary >= 0.0
        assert s.current_secondary >= 0.0
        # load power balance when a source is live
        if s.active_source is not ActiveSource.NONE:
            assert s.bus_voltage * (s.current_primary + s.current_secondary) == pytest.approx(
                load, rel=1e-9, abs=1e-9
            )


def test_bus_continuity_across_switch():
    primary = pack_at_soc(0.8, capacity_ah=2.2)
    secondary = pack_at_soc(0.9)
    c = SwitchCircuit(diode_drop=0.05, secondary_present=True)
    lo = min(ocv(primary), ocv(secondary)) - 0.05
    before = solve_bus(c, primary, secondary, 120.0)
    c2 = command_switch(c, SwitchTarget.USE_SECONDARY)
    after = solve_bus(c2, primary, secondary, 120.0)
    c3 = command_switch(c2, SwitchTarget.USE_PRIMARY)
    back = solve_bus(c3, primary, secondary, 120.0)
    for s in (before, after, back):
        assert s.bus_voltage >= lo - 1e-12
        assert s.bus_voltage > 0.0


def test_parallel_conduction_stays_in_safe_window(rng):
    # both sources conduct only within one diode drop, which never
    # exceeds the 0.2 V/cell LiPo parallel limit (checked in solve_bus)
    seen_both = 0
    for _ in range(3000):
        v_soc = float(rng.uniform(0.3, 0.9))
        p = pack_at_soc(v_soc, capacity_ah=2.2)
        sec = pack_at_soc(float(rng.uniform(v_soc - 0.02, v_soc + 0.02)))
        c = SwitchCircuit(diode_drop=0.1, secondary_present=True)
        s = solve_bus(c, p, sec, 100.0)
        if s.active_source is ActiveSource.BOTH:
            seen_both += 1
            assert abs(ocv(p) - ocv(sec)) <= 0.2 * 3
    assert seen_both > 0


def check_window_violation_raises():
    # a diode drop wider than the window cannot be constructed, so force
    # one: with 1.5 V both packs conduct although they are 0.9 V apart,
    # past the 3 x 0.2 V parallel-safety limit
    c = SwitchCircuit(diode_drop=0.05, secondary_present=True)
    object.__setattr__(c, "diode_drop", 1.5)
    primary = pack_at_soc(1.0, capacity_ah=2.2)  # 12.6 V
    secondary = pack_at_soc(0.6)  # 11.7 V
    with pytest.raises(PowertrainError, match="parallel-safe"):
        solve_bus(c, primary, secondary, 100.0)


def test_parallel_window_violation_raises():
    check_window_violation_raises()


def test_parallel_window_violation_raises_under_optimize():
    # the check must survive `python -O`, which strips assert statements
    run_optimized("import test_powertrain; test_powertrain.check_window_violation_raises()")


def test_constant_power_current_monotone_as_pack_drains():
    p = pack_3s_15(r=0.025)
    c = SwitchCircuit(diode_drop=0.05)
    load = 150.0
    prev_i = 0.0
    prev_v = float("inf")
    while not p.is_depleted:
        s = solve_bus(c, p, None, load)
        assert s.bus_voltage <= prev_v + 1e-12
        assert s.current_primary >= prev_i - 1e-12
        prev_v, prev_i = s.bus_voltage, s.current_primary
        p = discharge(p, load, 0.25, current=s.current_primary)
