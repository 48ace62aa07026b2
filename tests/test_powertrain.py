import math
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flybat.powertrain
from conftest import finish, full_scale_main_kp, run_optimized, start_optimized
from flybat.powertrain import (
    CELL_EMPTY_V,
    CELL_FULL_V,
    OCV_KNOTS,
    ActiveSource,
    BatteryPack,
    BusSample,
    PowertrainError,
    SwitchCircuit,
    SwitchTarget,
    _kp_start,
    command_switch,
    discharge,
    hover_power,
    k_thrust_from_kp,
    ocv,
    ocv_per_cell,
    ocv_segment,
    shadow_energy,
    solve_bus,
    solve_kp_for_endurance,
    time_to_depletion,
    total_rotor_power,
)
from flybat.scenario import _calibrated_main_kp, build_world_inputs, default_scenario

# property tests draw the same examples on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None)

G = 9.81


def pack_3s_22(r=0.0):
    return BatteryPack(3, 2.2, internal_resistance=r)


def pack_3s_15(r=0.0):
    return BatteryPack(3, 1.5, internal_resistance=r)


def pack_at_soc(soc, cells=3, capacity_ah=1.5, r=0.0):
    """(spec, remaining energy) of a pack at the given state of charge."""
    pack = BatteryPack(cells, capacity_ah, internal_resistance=r)
    return pack, soc * pack.capacity_wh


def test_pack_spec_validation():
    assert BatteryPack(3, 2.2, internal_resistance=0.0).capacity_wh == pytest.approx(24.42)
    with pytest.raises(PowertrainError, match="cell_count must be >= 1"):
        BatteryPack(0, 2.2)
    with pytest.raises(PowertrainError, match="capacity_wh must be positive"):
        BatteryPack(3, 0.0)
    with pytest.raises(PowertrainError, match="internal_resistance must be >= 0, got -1"):
        BatteryPack(3, 1.5, internal_resistance=-1.0)
    # a non-finite spec is named at once, not as a pack that empties at
    # once or never depletes
    nan, inf = float("nan"), float("inf")
    for capacity_ah, r, match in [
        (2.2, nan, "internal_resistance must be finite, got nan"),
        (2.2, inf, "internal_resistance must be finite, got inf"),
        (nan, 0.025, "capacity_ah must be finite, got nan"),
        (inf, 0.025, "capacity_ah must be finite, got inf"),
        (-inf, 0.025, "capacity_ah must be finite, got -inf"),
    ]:
        with pytest.raises(PowertrainError, match=match):
            BatteryPack(3, capacity_ah, internal_resistance=r)


# ---------------------------------------------------------------------------
# rotor / hover power
# ---------------------------------------------------------------------------


def test_rotor_power_zero_and_homogeneity():
    assert total_rotor_power(0.0, 11.0) == 0.0
    for k in (1.0, 10.7, 42.0):
        ratio = total_rotor_power(2.0, k) / total_rotor_power(1.0, k)
        assert ratio == pytest.approx(2.0**1.5, rel=1e-12)
    with pytest.raises(PowertrainError):
        total_rotor_power(-1.0, 10.0)


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
    four_rotors = 4.0 * k * (thrust / 4.0) ** 1.5
    assert total_rotor_power(thrust, k) == pytest.approx(four_rotors, rel=1e-12)
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
    assert ocv(*pack_at_soc(1.0)) == pytest.approx(12.6, abs=1e-12)
    assert ocv(*pack_at_soc(0.0)) == pytest.approx(9.0, abs=1e-12)


def test_ocv_interpolation_oracle_mid_segment():
    # linear interpolation between the (0.2, 3.70) and (0.9, 4.05) knots
    soc = 0.55
    v_oracle = 3.70 + (4.05 - 3.70) * (soc - 0.2) / (0.9 - 0.2)
    assert v_oracle == pytest.approx(3.875, abs=1e-12)
    assert ocv(*pack_at_soc(soc)) == pytest.approx(3 * v_oracle, abs=1e-12)
    assert ocv(*pack_at_soc(soc)) == pytest.approx(11.625, abs=1e-9)


def test_ocv_monotone_in_soc():
    prev = -1.0
    for i in range(1001):
        v = ocv_per_cell(i / 1000.0)
        assert v >= prev
        prev = v
    assert ocv_per_cell(-0.5) == 3.0
    assert ocv_per_cell(1.5) == 4.2


def _ocv_per_cell_loop(soc):
    """ocv_per_cell as the interpolation of OCV_KNOTS, a pair at a time."""
    if soc <= 0.0:
        return CELL_EMPTY_V
    if soc >= 1.0:
        return CELL_FULL_V
    for (s0, v0), (s1, v1) in zip(OCV_KNOTS, OCV_KNOTS[1:]):
        if soc <= s1:
            return v0 + (v1 - v0) / (s1 - s0) * (soc - s0)
    return CELL_FULL_V


def test_ocv_per_cell_matches_segment_loop_bit_for_bit(rng):
    socs = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    for knot, _ in OCV_KNOTS:
        socs += [math.nextafter(knot, -math.inf), knot, math.nextafter(knot, math.inf)]
    socs += rng.uniform(-0.1, 1.1, size=20000).tolist()
    for soc in socs:
        a, b = ocv_per_cell(soc), _ocv_per_cell_loop(soc)
        assert struct.pack("<d", a) == struct.pack("<d", b), soc
    assert ocv_per_cell(math.nan) == CELL_FULL_V


def test_ocv_segment_is_the_segment_ocv_per_cell_evaluates(rng):
    # the quiet steps and the drain loop evaluate one segment while the
    # state of charge stays inside it; the curve's clamped ends have none
    socs = [0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    for knot, _ in OCV_KNOTS:
        socs += [math.nextafter(knot, -math.inf), knot, math.nextafter(knot, math.inf)]
    socs += rng.uniform(-0.1, 1.1, size=20000).tolist()
    for soc in socs:
        span = ocv_segment(soc)
        if not 0.0 < soc < 1.0:
            assert span is None, soc
            continue
        s0, v0, slope, top = span
        assert s0 < soc <= top < 1.0, soc
        s1, v1 = OCV_KNOTS[OCV_KNOTS.index((s0, v0)) + 1]
        assert slope == (v1 - v0) / (s1 - s0)
        v = v0 + slope * (soc - s0)
        assert struct.pack("<d", v) == struct.pack("<d", ocv_per_cell(soc)), soc


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
    e = p.capacity_wh
    while e > 0.0:
        e = discharge(p, e, 150.0, dt)
        t += dt
    assert t == pytest.approx(expected, abs=2 * dt)
    assert t / 60.0 == pytest.approx(6.66, abs=0.02)


def test_discharge_zero_load_is_identity():
    p = pack_3s_15()
    assert discharge(p, p.capacity_wh, 0.0, 10.0) == p.capacity_wh


def test_discharge_primary_round_trip_anchors_solo_flight():
    p = pack_3s_22(r=0.0)
    t = time_to_depletion(p, p.capacity_wh, 122.1, dt=0.05, diode_drop=0.05)
    assert t == pytest.approx(720.0, rel=0.02)


def test_discharge_conserves_energy(rng):
    p = pack_3s_15(r=0.025)
    e = p.capacity_wh
    removed = 0.0
    dt = 0.1
    for _ in range(500):
        load = float(rng.uniform(0.0, 200.0))
        current = load / ocv(p, e) if ocv(p, e) > 0 else 0.0
        before = e
        e = discharge(p, e, load, dt, current=current)
        if e > 0.0:
            removed += (load + current * current * p.internal_resistance) * dt / 3600.0
            assert before - e == pytest.approx(
                (load + current**2 * p.internal_resistance) * dt / 3600.0, rel=1e-6
            )
    with pytest.raises(PowertrainError):
        discharge(p, e, -1.0, dt)


# ---------------------------------------------------------------------------
# time_to_depletion / k_p calibration
# ---------------------------------------------------------------------------


def reference_time_to_depletion(pack, energy_wh, load_power, dt, diode_drop):
    # steps the remaining energy through ocv and discharge, one call each
    # per step
    if load_power <= 0.0:
        return float("inf")
    t = 0.0
    e = energy_wh
    while e > 0.0:
        bus = ocv(pack, e) - diode_drop
        current = load_power / bus if bus > 0.0 else 0.0
        e = discharge(pack, e, load_power, dt, current=current)
        t += dt
        if t > 1.0e7:
            raise PowertrainError("pack does not deplete")
    return t


def reference_solve_kp(pack, vehicle_mass, target_time, dt, diode_drop):
    # the plain 60-step bisection; returns (k_p, final lower bound)
    lo, hi = 1.0, 4.0 * pack.capacity_wh * 3600.0 / (
        target_time * vehicle_mass * math.sqrt(vehicle_mass)
    )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        load = hover_power(vehicle_mass, mid)
        if reference_time_to_depletion(pack, pack.capacity_wh, load, dt, diode_drop) > target_time:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), lo


@settings(PROPERTY, max_examples=150)
@given(
    cells=st.integers(1, 12),
    capacity_ah=st.floats(0.01, 10.0),
    soc=st.floats(0.0, 1.0),
    r=st.floats(0.0, 0.5),
    dt=st.floats(0.01, 1.0),
    # time_to_depletion takes only a valid drop
    diode_drop=st.floats(0.0, 0.2, exclude_min=True),
    lossless_steps=st.integers(1, 3000),
)
def test_time_to_depletion_bit_identical_to_pack_stepping(
    cells, capacity_ah, soc, r, dt, diode_drop, lossless_steps
):
    pack, energy = pack_at_soc(soc, cells, capacity_ah, r)
    # a load that would empty the full pack in about lossless_steps steps
    load = pack.capacity_wh * 3600.0 / (lossless_steps * dt)
    expected = reference_time_to_depletion(pack, energy, load, dt, diode_drop)
    assert time_to_depletion(pack, energy, load, dt, diode_drop).hex() == expected.hex()


def test_time_to_depletion_edge_loads_match_pack_stepping():
    pack = pack_3s_15(r=0.025)
    full = pack.capacity_wh
    for load in (0.0, -1.0, 1.0e300):
        expected = reference_time_to_depletion(pack, full, load, 0.1, 0.05)
        assert time_to_depletion(pack, full, load, 0.1, 0.05).hex() == expected.hex()
    assert time_to_depletion(pack, 0.0, 100.0) == 0.0
    # a load too small to empty the pack trips the 1e7 s guard (after
    # ten 1e6 s steps here)
    for depletes in (reference_time_to_depletion, time_to_depletion):
        with pytest.raises(PowertrainError, match="does not deplete"):
            depletes(pack, full, 1.0e-9, 1.0e6, 0.05)


_BAD_DEPLETION_INPUTS = """
from flybat.powertrain import BatteryPack, PowertrainError, time_to_depletion

pack = BatteryPack(3, 1.5, internal_resistance=0.025)
full = pack.capacity_wh
nan, inf = float("nan"), float("inf")
cases = [
    ((full, 100.0, 0.0, 0.05), "dt", "0.0"),
    ((full, 100.0, -0.1, 0.05), "dt", "-0.1"),
    ((full, 100.0, nan, 0.05), "dt", "nan"),
    ((full, 100.0, inf, 0.05), "dt", "inf"),
    ((nan, 100.0, 0.1, 0.05), "energy_wh", "nan"),
    ((inf, 100.0, 0.1, 0.05), "energy_wh", "inf"),
    ((-1.0, 100.0, 0.1, 0.05), "energy_wh", "-1.0"),
    ((full, nan, 0.1, 0.05), "load_power", "nan"),
    ((full, 100.0, 0.1, 0.0), "diode_drop", "0.0"),
    ((full, 100.0, 0.1, 0.25), "diode_drop", "0.25"),
    ((full, 100.0, 0.1, nan), "diode_drop", "nan"),
]
for args, name, value in cases:
    try:
        t = time_to_depletion(pack, *args)
    except PowertrainError as exc:
        if not (name in str(exc) and value in str(exc)):
            raise SystemExit(f"{args}: {exc} does not name {name} = {value}")
    else:
        raise SystemExit(f"{args} returned {t}")
"""


def test_time_to_depletion_rejects_bad_inputs():
    # a zero or negative dt never ended the drain loop, and a NaN or
    # infinite value came back as a silent wrong time or a misleading
    # error; the cases run in a child with a timeout, so a hang fails
    finish(start_optimized(_BAD_DEPLETION_INPUTS), timeout=60)


def test_time_to_depletion_stops_on_an_exactly_empty_pack():
    # one lossless step leaves exactly 0 Wh, where the curve's lowest
    # segment ends: the flight stops there and takes no second step
    pack = pack_3s_15(r=0.0)
    energy = 100.0 * 0.1 / 3600.0
    expected = reference_time_to_depletion(pack, energy, 100.0, 0.1, 0.05)
    assert expected == 0.1
    assert time_to_depletion(pack, energy, 100.0, 0.1, 0.05).hex() == expected.hex()


def steps_past(target_time, dt):
    """The first count of dt additions whose float sum exceeds target_time."""
    n, t = 0, 0.0
    while t <= target_time:
        t += dt
        n += 1
    return n


@settings(PROPERTY, max_examples=100)
@given(
    cells=st.integers(1, 12),
    capacity_ah=st.floats(0.01, 10.0),
    r=st.floats(0.0, 0.5),
    dt=st.floats(0.01, 1.0),
    diode_drop=st.floats(0.0, 0.2, exclude_min=True),
    lossless_steps=st.integers(1, 3000),
    share=st.floats(0.05, 2.0),
)
def test_shadow_energy_sign_decides_time_to_depletion(
    cells, capacity_ah, r, dt, diode_drop, lossless_steps, share
):
    pack = BatteryPack(cells, capacity_ah, internal_resistance=r)
    full = pack.capacity_wh
    load = full * 3600.0 / (lossless_steps * dt)
    flight = time_to_depletion(pack, full, load, dt, diode_drop)
    # a target anywhere, and the float sums of dt either side of the
    # flight's own, each one rounding step either way
    sums = [0.0]
    while sums[-1] <= flight + 2.5 * dt:
        sums.append(sums[-1] + dt)
    j = sums.index(flight)
    targets = [share * flight]
    for t in sums[max(1, j - 2) : j + 3]:
        targets += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
    for target_time in targets:
        n = steps_past(target_time, dt)
        left = shadow_energy(pack, full, load, n - 1, dt, diode_drop)
        assert (left > 0.0) == (flight > target_time), (target_time, n, left)


def reference_shadow_energy(pack, energy_wh, load_power, steps, dt, diode_drop):
    # the shadow step through ocv_per_cell on every step, as it was before
    # the drain loop walked the curve a segment at a time
    cap, cells, r = pack.capacity_wh, pack.cell_count, pack.internal_resistance
    energy = energy_wh
    for _ in range(steps):
        bus = ocv_per_cell(energy / cap) * cells - diode_drop
        current = load_power / bus if bus > 0.0 else 0.0
        energy = energy - (load_power + current * current * r) * dt / 3600.0
    return energy


def energy_at_soc(pack, soc):
    """An energy whose state of charge is exactly soc, where one is near."""
    energy = soc * pack.capacity_wh
    for _ in range(4):
        ratio = energy / pack.capacity_wh
        if ratio == soc:
            break
        energy = math.nextafter(energy, math.inf if ratio < soc else -math.inf)
    return energy


@st.composite
def shadow_flights(draw):
    """(pack, energy, load, steps, dt, diode drop) of a shadow flight."""
    pack = BatteryPack(
        draw(st.integers(1, 12)),
        draw(st.floats(0.01, 10.0)),
        internal_resistance=draw(st.floats(0.0, 0.5)),
    )
    # full, on a knot, anywhere, or below empty
    soc = draw(
        st.one_of(
            st.just(1.0), st.sampled_from([s for s, _ in OCV_KNOTS]), st.floats(-0.2, 1.2)
        )
    )
    steps = draw(st.integers(0, 3000))
    dt = draw(st.floats(0.01, 1.0))
    # a load that would empty the full pack in about lossless_steps steps;
    # fewer than `steps` drives the energy below zero
    lossless_steps = draw(st.integers(1, 6000))
    lossless = pack.capacity_wh * 3600.0 / (lossless_steps * dt)
    load = draw(st.sampled_from((lossless, 0.0)))
    # shadow_energy takes only a valid drop (see test_shadow_energy_rejects_bad_inputs)
    diode_drop = draw(st.floats(0.0, 0.2, exclude_min=True))
    return pack, energy_at_soc(pack, soc), load, steps, dt, diode_drop


@settings(PROPERTY, max_examples=200)
@given(flight=shadow_flights())
@example(flight=(pack_3s_22(r=0.025), pack_3s_22().capacity_wh, 119.35, 7199, 0.1, 0.05))
def test_shadow_energy_bit_identical_to_per_step_loop(flight):
    expected = reference_shadow_energy(*flight)
    assert shadow_energy(*flight).hex() == expected.hex()


# the flights test_shadow_energy_bit_identical_to_per_step_loop drew before
# shadow_energy checked its inputs: a dt that is not positive, a load that
# is negative or NaN, a drop outside (0, 0.2] V
@pytest.mark.parametrize(
    "load_share, dt, diode_drop",
    [
        (1.0, -0.1, 0.05),
        (1.0, 0.0, 0.05),
        (1.0, math.nan, 0.05),
        (-1.0, 0.1, 0.05),
        (math.nan, 0.1, 0.05),
        (1.0, 0.1, 0.0),
        (1.0, 0.1, 3.0),
        (1.0, 0.1, 50.0),
    ],
)
def test_shadow_energy_rejects_bad_inputs(load_share, dt, diode_drop):
    # with time_to_depletion's message, or, for a negative load, which
    # time_to_depletion reads as a pack that never empties, discharge's
    pack = pack_3s_15(r=0.025)
    full = pack.capacity_wh
    load = load_share * full * 3600.0 / (1000 * 0.1)
    with pytest.raises(PowertrainError) as expected:
        if load < 0.0:
            discharge(pack, full, load, dt)
        else:
            time_to_depletion(pack, full, load, dt, diode_drop)
    with pytest.raises(PowertrainError, match=re.escape(str(expected.value))):
        shadow_energy(pack, full, load, 1000, dt, diode_drop)


@st.composite
def admitted_buses(draw):
    """(circuit, primary, primary_wh, secondary, secondary_wh, load) of
    a circuit SwitchCircuit admits, at any energies."""
    relay_closed = draw(st.booleans())
    circuit = SwitchCircuit(
        relay_closed=relay_closed,
        diode_drop=draw(st.floats(0.0, 0.2, exclude_min=True)),
        secondary_present=not relay_closed or draw(st.booleans()),
    )
    packs = []
    for _ in range(2):
        pack = BatteryPack(
            draw(st.integers(1, 12)),
            draw(st.floats(0.01, 10.0)),
            internal_resistance=draw(st.floats(0.0, 0.5)),
        )
        energy = draw(
            st.one_of(
                st.floats(0.0, 1.0).map(lambda soc: soc * pack.capacity_wh),
                st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 2.0 * pack.capacity_wh]),
            )
        )
        packs.append((pack, energy))
    (primary, primary_wh), (secondary, secondary_wh) = packs
    load = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0e4)))
    return circuit, primary, primary_wh, secondary, secondary_wh, load


@settings(PROPERTY, max_examples=400)
@given(admitted_buses())
def test_admitted_circuit_keeps_the_bus_at_or_above_2_8_volts(case):
    # every OCV is at least 3.0 V per cell and an admitted drop at most
    # 0.2 V, so the divisions by a live bus or an OCV need no guard
    circuit, primary, primary_wh, secondary, secondary_wh, load = case
    s = solve_bus(circuit, primary, primary_wh, secondary, secondary_wh, load)
    if s.active_source is not ActiveSource.NONE:
        assert s.bus_voltage >= 2.8
        for current in (s.current_primary, s.current_secondary):
            assert math.isfinite(current) and current >= 0.0
    for pack, energy in ((primary, primary_wh), (secondary, secondary_wh)):
        left = discharge(pack, energy, load, 0.1)
        assert math.isfinite(left) or not math.isfinite(energy)


@st.composite
def short_flights(draw):
    """(pack, vehicle mass, target time, dt, diode drop) of 5-120 s hovers."""
    pack = BatteryPack(
        draw(st.integers(1, 6)),
        draw(st.floats(0.01, 3.0)),
        internal_resistance=draw(st.floats(0.0, 0.1)),
    )
    # the k_p that would empty the pack in target_time without losses;
    # below about 1 the target is out of reach
    lossless_kp = draw(st.floats(0.3, 30.0))
    target_time = draw(st.floats(5.0, 120.0))
    vehicle_mass = (pack.capacity_wh * 3600.0 / (target_time * lossless_kp)) ** (2.0 / 3.0)
    return pack, vehicle_mass, target_time, draw(st.sampled_from((0.05, 0.1, 0.2))), draw(
        st.floats(0.01, 0.2)
    )


@st.composite
def solo_flights(draw):
    """The scenario's calibration, a 720 s hover at 0.1 s steps, for hosts
    and packs around the default one."""
    pack = BatteryPack(
        draw(st.integers(1, 6)),
        draw(st.floats(0.05, 6.0)),
        internal_resistance=draw(st.floats(0.0, 0.1)),
    )
    return pack, draw(st.floats(0.3, 3.0)), 720.0, 0.1, draw(st.floats(0.01, 0.2))


@settings(PROPERTY, max_examples=40)
@given(flight=st.one_of(short_flights(), solo_flights()))
def test_solve_kp_matches_reference_bisection(flight):
    pack, vehicle_mass, target_time, dt, diode_drop = flight
    k_ref, lo = reference_solve_kp(pack, vehicle_mass, target_time, dt, diode_drop)
    if lo == 1.0:
        # the lower bound never moved: the target is out of reach
        with pytest.raises(PowertrainError, match=f"{target_time:g} s"):
            solve_kp_for_endurance(pack, vehicle_mass, target_time, dt, diode_drop)
    else:
        k = solve_kp_for_endurance(pack, vehicle_mass, target_time, dt, diode_drop)
        assert k.hex() == k_ref.hex()


def test_solve_kp_at_the_longest_target_matches_reference_bisection():
    # a 6S 6 Ah pack holds a 0.3 kg vehicle up for 1e6 s at k_p of about 2.9
    pack = BatteryPack(6, 6.0, internal_resistance=0.025)
    k_ref, lo = reference_solve_kp(pack, 0.3, 1.0e6, 1000.0, 0.05)
    assert lo > 1.0
    assert solve_kp_for_endurance(pack, 0.3, 1.0e6, 1000.0, 0.05).hex() == k_ref.hex()


@pytest.mark.parametrize(
    "target_time,dt,diode_drop,message",
    [
        # past 1e6 s the plain bisection could trip the 1e7 s guard
        (1.5e6, 0.1, 0.05, "target_time must be at most 1e6 s, got 1.5e+06"),
        (0.0, 0.1, 0.05, "target_time must be positive"),
        (720.0, 0.0, 0.05, "dt must be in"),
        (720.0, math.nan, 0.05, "dt must be in"),
        (720.0, 721.0, 0.05, "dt must be in"),
        (720.0, 0.1, 0.0, "diode_drop 0.0 outside"),
        (720.0, 0.1, 0.25, "diode_drop 0.25 outside"),
        # not "dt must be in (0, target_time], got 0.1"
        (math.nan, 0.1, 0.05, "target_time must be finite, got nan"),
        (math.inf, 0.1, 0.05, "target_time must be finite, got inf"),
    ],
)
def test_solve_kp_rejects_out_of_range_inputs(target_time, dt, diode_drop, message):
    with pytest.raises(PowertrainError, match=re.escape(message)):
        solve_kp_for_endurance(pack_3s_22(r=0.025), 0.82, target_time, dt, diode_drop)


# in place of a ZeroDivisionError, a math domain error, and for NaN
# "at k_p = 1 the pack empties after 0.1 s"
@pytest.mark.parametrize("vehicle_mass", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_solve_kp_rejects_bad_vehicle_mass(vehicle_mass):
    message = f"vehicle_mass must be finite and positive, got {vehicle_mass}"
    with pytest.raises(PowertrainError, match=re.escape(message)):
        solve_kp_for_endurance(pack_3s_22(r=0.025), vehicle_mass, 720.0, 0.1, 0.05)


def test_default_calibrated_kp_bits():
    # the host k_p that anchors the 720 s solo flight of the default
    # scenario, and the plain bisection's result on the same pack
    expected = "0x1.417b1cf9e528cp+7"
    assert full_scale_main_kp().hex() == expected
    pack = BatteryPack(3, 2.2, internal_resistance=0.025)
    assert reference_solve_kp(pack, 0.82, 720.0, 0.1, 0.05)[0].hex() == expected


def count_flights(monkeypatch):
    """A function that returns how many shadow flights (calls of the drain
    loop) have run since this was called."""
    calls = 0
    drain = flybat.powertrain._drain

    def counted(*args):
        nonlocal calls
        calls += 1
        return drain(*args)

    monkeypatch.setattr(flybat.powertrain, "_drain", counted)
    return lambda: calls


def test_default_calibration_cost(monkeypatch):
    # 5 shadow flights of 7,199 steps; the secant start of the search made
    # 6, the Illinois start 10 and the plain bisection 55
    flights = count_flights(monkeypatch)
    _calibrated_main_kp.cache_clear()
    try:
        k = build_world_inputs(default_scenario()).main_params.k_p
    finally:
        _calibrated_main_kp.cache_clear()
    assert k.hex() == "0x1.417b1cf9e528cp+7"
    assert 0 < flights() <= 5


def seeded_solo_packs():
    """(pack, vehicle mass, diode drop) of 60 hosts and packs drawn from
    solo_flights' ranges, every one reachable in a 720 s hover."""
    rng = random.Random(720)
    packs = []
    for _ in range(60):
        pack = BatteryPack(
            rng.randint(1, 6), rng.uniform(0.05, 6.0), internal_resistance=rng.uniform(0.0, 0.1)
        )
        packs.append((pack, rng.uniform(0.3, 3.0), rng.uniform(0.01, 0.2)))
    return packs


def test_calibration_flights_over_seeded_solo_packs(monkeypatch):
    # the secant start of the search made 521 flights on them, and the
    # Illinois start 581
    flights = count_flights(monkeypatch)
    for pack, vehicle_mass, diode_drop in seeded_solo_packs():
        solve_kp_for_endurance(pack, vehicle_mass, 720.0, 0.1, diode_drop)
    assert flights() <= 365


def test_model_start_lies_next_to_the_calibrated_kp():
    # the modified equation's root is 3.7e-10 off for the default host,
    # where the I^2 R-scaled lossless k_p was 4.2e-4 off; the slope it
    # gives is the energy's own within 1e-4
    hosts = [(pack_3s_22(r=0.025), 0.82, 0.05)] + seeded_solo_packs()
    n = steps_past(720.0, 0.1)
    for pack, vehicle_mass, diode_drop in hosts:
        k = solve_kp_for_endurance(pack, vehicle_mass, 720.0, 0.1, diode_drop)
        start, slope = _kp_start(pack, vehicle_mass, n - 1, 0.1, diode_drop)
        assert start == pytest.approx(k, rel=1e-8, abs=0.0)
        h = 1e-6 * k
        left = [
            shadow_energy(
                pack, pack.capacity_wh, hover_power(vehicle_mass, x), n - 1, 0.1, diode_drop
            )
            for x in (k - h, k + h)
        ]
        assert slope == pytest.approx((left[1] - left[0]) / (2.0 * h), rel=1e-4)


@pytest.mark.parametrize(
    "pack, vehicle_mass, target_time, dt, diode_drop, has_start",
    [
        # the longest target at the longest step: 1,000 steps
        (BatteryPack(6, 6.0, internal_resistance=0.025), 0.3, 1.0e6, 1000.0, 0.05, True),
        # 24 steps of a 5 s hover whose I^2 R loss is 1.2 to 2.4 times its power
        (pack_3s_22(r=0.025), 2.0, 5.0, 0.2, 0.05, True),
        # 24 steps on a 1S pack whose drain per step, at the lossless power,
        # would grow by more than twice itself within one step near empty:
        # the modified equation's rate turns negative
        (BatteryPack(1, 0.05, internal_resistance=0.5), 0.1, 5.0, 0.2, 0.2, False),
        # a pack so small that a drain per step squared underflows to 0:
        # the model's start lies far below k_p = 1, which the pack cannot
        # reach
        (BatteryPack(1, 1e-200), 0.82, 720.0, 0.1, 0.05, True),
        # a pack whose lossless hover power underflows to 0
        (BatteryPack(1, 1e-322), 0.3, 1.0e6, 1000.0, 0.05, False),
    ],
)
def test_model_start_at_the_edges_of_the_search(
    pack, vehicle_mass, target_time, dt, diode_drop, has_start
):
    # the model gives a start or None, and never raises; where it gives
    # None the bisection runs alone, and the bits hold either way
    start = _kp_start(pack, vehicle_mass, steps_past(target_time, dt) - 1, dt, diode_drop)
    assert (start is not None) == has_start
    if start is not None:
        assert all(math.isfinite(v) for v in start) and start[0] > 0.0 > start[1]
    k_ref, lo = reference_solve_kp(pack, vehicle_mass, target_time, dt, diode_drop)
    if lo == 1.0:
        with pytest.raises(PowertrainError, match="no k_p >= 1 reaches"):
            solve_kp_for_endurance(pack, vehicle_mass, target_time, dt, diode_drop)
    else:
        k = solve_kp_for_endurance(pack, vehicle_mass, target_time, dt, diode_drop)
        assert k.hex() == k_ref.hex()


def test_unreachable_endurance_target_raises():
    # 0.185 Wh cannot hover a 5 kg vehicle for 720 s at any k_p >= 1:
    # at k_p = 1 it flies 58.5 s
    pack = BatteryPack(1, 0.05)
    assert time_to_depletion(pack, pack.capacity_wh, hover_power(5.0, 1.0)) == pytest.approx(58.5)
    with pytest.raises(PowertrainError, match="720 s hover.* 58.5 s"):
        solve_kp_for_endurance(pack, 5.0, 720.0)


# ---------------------------------------------------------------------------
# solve_bus / command_switch
# ---------------------------------------------------------------------------


def test_bus_single_source():
    c = SwitchCircuit(diode_drop=0.05)
    primary = pack_at_soc(0.5, capacity_ah=2.2)  # 11.1 V nominal region
    s = solve_bus(c, *primary, None, 0.0, 100.0)
    assert s.bus_voltage == pytest.approx(ocv(*primary) - 0.05, abs=1e-12)
    assert s.current_secondary == 0.0
    assert s.current_primary == pytest.approx(100.0 / s.bus_voltage, rel=1e-12)
    assert s.active_source is ActiveSource.PRIMARY


def test_bus_higher_voltage_source_wins():
    c = SwitchCircuit(diode_drop=0.05, secondary_present=True)
    primary = pack_at_soc(0.4667, capacity_ah=2.2)  # ~11.5 V
    secondary = pack_at_soc(1.0)  # 12.6 V
    assert ocv(*primary) == pytest.approx(11.5, abs=0.1)
    s = solve_bus(c, *primary, *secondary, 150.0)
    assert s.active_source is ActiveSource.SECONDARY
    assert s.current_primary == 0.0
    assert s.current_secondary > 0.0


def test_bus_relay_open_forces_lower_voltage_secondary():
    c = SwitchCircuit(relay_closed=False, diode_drop=0.05, secondary_present=True)
    primary = pack_at_soc(1.0, capacity_ah=2.2)  # 12.6 V
    secondary = pack_at_soc(0.0222)  # ~9.6 V
    assert ocv(*secondary) == pytest.approx(9.6, abs=0.2)
    s = solve_bus(c, *primary, *secondary, 100.0)
    assert s.active_source is ActiveSource.SECONDARY
    assert s.current_primary == 0.0
    assert s.bus_voltage == pytest.approx(ocv(*secondary) - 0.05, abs=1e-12)


def test_bus_collapse_when_no_source():
    c = SwitchCircuit(diode_drop=0.05)
    dead = pack_at_soc(0.0, capacity_ah=2.2)
    s = solve_bus(c, *dead, None, 0.0, 50.0)
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
        sec = pack_at_soc(s_soc) if rng.random() < 0.8 else (None, 0.0)
        relay_closed = bool(rng.random() < 0.7) or sec[0] is None
        c = SwitchCircuit(
            relay_closed=relay_closed,
            diode_drop=float(rng.uniform(0.01, 0.2)),
            secondary_present=sec[0] is not None,
        )
        load = float(rng.uniform(0.0, 400.0))
        s = solve_bus(c, *p, *sec, load)
        assert s.current_primary >= 0.0
        assert s.current_secondary >= 0.0
        # load power balance when a source is live
        if s.active_source is not ActiveSource.NONE:
            assert s.bus_voltage * (s.current_primary + s.current_secondary) == pytest.approx(
                load, rel=1e-9, abs=1e-9
            )


def circuit_with_drop(drop, relay_closed=True, secondary_present=True):
    # a drop past 0.2 V cannot be constructed, so it is forced
    c = SwitchCircuit(relay_closed, min(drop, 0.2), secondary_present)
    object.__setattr__(c, "diode_drop", drop)
    return c


@st.composite
def bus_cases(draw):
    cells_p = draw(st.integers(1, 6))
    cells_s = draw(st.one_of(st.just(cells_p), st.integers(1, 6)))
    primary = pack_at_soc(draw(st.floats(0.0, 1.0)), cells=cells_p, capacity_ah=2.2)
    secondary = pack_at_soc(draw(st.floats(0.0, 1.0)), cells=cells_s)
    if draw(st.integers(0, 3)) == 0:
        secondary = (None, 0.0)
    present = secondary[0] is not None and draw(st.integers(0, 3)) > 0
    relay_closed = draw(st.integers(0, 3)) > 0 or not present
    # drops past 0.2 V let two sources far enough apart both conduct
    drop = draw(st.one_of(st.floats(0.001, 0.2), st.floats(0.2, 1.5)))
    c = circuit_with_drop(drop, relay_closed, present)
    load = draw(st.one_of(st.just(0.0), st.floats(0.001, 500.0)))
    return c, primary, secondary, load


@settings(PROPERTY, max_examples=400)
@given(bus_cases())
# both conduct inside the window, both conduct outside it, nothing live
@example((SwitchCircuit(diode_drop=0.1, secondary_present=True), pack_at_soc(0.5), pack_at_soc(0.5), 80.0))
@example((circuit_with_drop(1.5), pack_at_soc(1.0, capacity_ah=2.2), pack_at_soc(0.6), 100.0))
@example((SwitchCircuit(), pack_at_soc(0.0), (None, 0.0), 50.0))
def test_solve_bus_properties(case):
    c, (primary, primary_wh), (secondary, secondary_wh), load = case
    v_p = ocv(primary, primary_wh) if c.relay_closed and primary_wh > 0.0 else None
    v_s = None
    if c.secondary_present and secondary is not None and secondary_wh > 0.0:
        v_s = ocv(secondary, secondary_wh)
    live = [v for v in (v_p, v_s) if v is not None]
    bus = max(live) - c.diode_drop if live else 0.0
    conducts_p = v_p is not None and v_p > bus
    conducts_s = v_s is not None and v_s > bus
    outside_window = (
        conducts_p
        and conducts_s
        and abs(v_p - v_s) > 0.2 * min(primary.cell_count, secondary.cell_count)
    )
    # a constructible circuit (drop <= 0.2 V) never leaves the window
    assert not (outside_window and c.diode_drop <= 0.2)
    if outside_window:
        with pytest.raises(PowertrainError, match="parallel-safe"):
            solve_bus(c, primary, primary_wh, secondary, secondary_wh, load)
        return
    s = solve_bus(c, primary, primary_wh, secondary, secondary_wh, load)
    assert type(s) is BusSample
    # no reverse current
    assert s.current_primary >= 0.0 and s.current_secondary >= 0.0
    expected_source = {
        (True, True): ActiveSource.BOTH,
        (True, False): ActiveSource.PRIMARY,
        (False, True): ActiveSource.SECONDARY,
        (False, False): ActiveSource.NONE,
    }[(conducts_p, conducts_s)]
    assert s.active_source is expected_source
    if s.active_source is ActiveSource.NONE:
        assert (s.bus_voltage, s.current_primary, s.current_secondary) == (0.0, 0.0, 0.0)
        return
    assert s.bus_voltage == bus > 0.0
    total = s.current_primary + s.current_secondary
    assert math.isclose(total, load / bus, rel_tol=4 * 2.0**-52)
    if load > 0.0:
        # a source carries current exactly when it conducts
        assert (s.current_primary > 0.0, s.current_secondary > 0.0) == (conducts_p, conducts_s)
    else:
        assert s.current_primary == s.current_secondary == 0.0


def former_solve_bus(circuit, primary, primary_wh, secondary, secondary_wh, load_power):
    """solve_bus as it read before its one-source exit: the reference
    for the bits it returns."""
    if load_power < 0.0:
        raise PowertrainError(f"load_power must be non-negative, got {load_power}")
    v_p = None
    if circuit.relay_closed and primary_wh > 0.0:
        v_p = ocv_per_cell(primary_wh / primary.capacity_wh) * primary.cell_count
    v_s = None
    if circuit.secondary_present and secondary is not None and secondary_wh > 0.0:
        v_s = ocv_per_cell(secondary_wh / secondary.capacity_wh) * secondary.cell_count
    if v_s is None:
        if v_p is None:
            return BusSample(0.0, 0.0, 0.0, ActiveSource.NONE)
        v_top = v_p
    else:
        v_top = v_s if v_p is None or v_s > v_p else v_p
    bus = v_top - circuit.diode_drop
    surplus_p = surplus_s = 0.0
    if v_p is not None:
        d = v_p - bus
        if d > 0.0:
            surplus_p = d
    if v_s is not None:
        d = v_s - bus
        if d > 0.0:
            surplus_s = d
    if surplus_p > 0.0 and surplus_s > 0.0:
        if abs(v_p - v_s) > 0.2 * min(primary.cell_count, secondary.cell_count):
            raise PowertrainError(
                "simultaneous conduction outside the parallel-safe voltage window"
            )
    total_current = load_power / bus if bus > 0.0 else 0.0
    share = surplus_p + surplus_s
    i_p = total_current * (surplus_p / share) if share > 0.0 else 0.0
    i_s = total_current * (surplus_s / share) if share > 0.0 else 0.0
    if surplus_p > 0.0 and surplus_s > 0.0:
        source = ActiveSource.BOTH
    elif surplus_p > 0.0:
        source = ActiveSource.PRIMARY
    else:
        source = ActiveSource.SECONDARY
    return BusSample(bus, i_p, i_s, source)


def bus_bits(sample):
    return struct.pack("<3d", *sample[:3]), sample.active_source


@settings(PROPERTY, max_examples=600)
@given(bus_cases(), st.sampled_from([None, -0.0, math.nan, math.inf, 1e-300]))
# a drop that rounds away leaves a live source with no surplus: it
# carries nothing and reads as SECONDARY, alone or beside the other
@example((circuit_with_drop(1e-300, True, False), pack_at_soc(0.5), (None, 0.0), 80.0), None)
@example((circuit_with_drop(1e-300, False, True), pack_at_soc(0.5), pack_at_soc(0.7), 80.0), None)
@example((circuit_with_drop(1e-300), pack_at_soc(0.5), pack_at_soc(0.5), 80.0), None)
@example((SwitchCircuit(diode_drop=0.1, secondary_present=True), pack_at_soc(0.5), pack_at_soc(0.5), 80.0), None)
def test_solve_bus_bits_match_former_solve_bus(case, special_load):
    c, (primary, primary_wh), (secondary, secondary_wh), load = case
    if special_load is not None:
        load = special_load
    args = (c, primary, primary_wh, secondary, secondary_wh, load)
    try:
        expected = former_solve_bus(*args)
    except PowertrainError as exc:
        with pytest.raises(PowertrainError, match=re.escape(str(exc))):
            solve_bus(*args)
        return
    s = solve_bus(*args)
    assert type(s) is BusSample
    assert s.active_source is expected.active_source
    assert bus_bits(s) == bus_bits(expected)


def test_bus_continuity_across_switch():
    primary = pack_at_soc(0.8, capacity_ah=2.2)
    secondary = pack_at_soc(0.9)
    c = SwitchCircuit(diode_drop=0.05, secondary_present=True)
    lo = min(ocv(*primary), ocv(*secondary)) - 0.05
    before = solve_bus(c, *primary, *secondary, 120.0)
    c2 = command_switch(c, SwitchTarget.USE_SECONDARY)
    after = solve_bus(c2, *primary, *secondary, 120.0)
    c3 = command_switch(c2, SwitchTarget.USE_PRIMARY)
    back = solve_bus(c3, *primary, *secondary, 120.0)
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
        s = solve_bus(c, *p, *sec, 100.0)
        if s.active_source is ActiveSource.BOTH:
            seen_both += 1
            assert abs(ocv(*p) - ocv(*sec)) <= 0.2 * 3
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
        solve_bus(c, *primary, *secondary, 100.0)


def test_parallel_window_violation_raises():
    check_window_violation_raises()


def test_parallel_window_violation_raises_under_optimize():
    # the check must survive `python -O`, which strips assert statements
    run_optimized("import test_powertrain; test_powertrain.check_window_violation_raises()")


def test_constant_power_current_monotone_as_pack_drains():
    p = pack_3s_15(r=0.025)
    e = p.capacity_wh
    c = SwitchCircuit(diode_drop=0.05)
    load = 150.0
    prev_i = 0.0
    prev_v = float("inf")
    while e > 0.0:
        s = solve_bus(c, p, e, None, 0.0, load)
        assert s.bus_voltage <= prev_v + 1e-12
        assert s.current_primary >= prev_i - 1e-12
        prev_v, prev_i = s.bus_voltage, s.current_primary
        e = discharge(p, e, load, 0.25, current=s.current_primary)
