"""Battery packs, rotor power, and the behavioral battery-switching circuit.

The pack model is energy-based: a pack is an immutable spec and its
remaining energy a plain float; state of charge is remaining energy over
capacity, mapped to an open-circuit voltage through a fixed
piecewise-linear LiPo curve (4.20 V/cell full, 3.00 V/cell empty). Rotor
aerodynamic power scales as thrust**1.5; hover electric power is
k_p * total_mass**1.5.

The switching circuit is an ideal-diode OR with a normally closed relay
in series with the primary pack. Each connected source sees the bus
through a constant diode drop; the highest-voltage source conducts,
reverse current is impossible, and the relay (openable only while a
secondary is present) can force the load onto the secondary even at a
lower voltage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from math import inf, isfinite, nextafter, sqrt
from typing import NamedTuple

from .dynamics import GRAVITY

CELL_FULL_V = 4.2
CELL_EMPTY_V = 3.0
PARALLEL_SAFE_V_PER_CELL = 0.2

# (state of charge, volts per cell), monotone in SoC
OCV_KNOTS = (
    (0.0, 3.00),
    (0.05, 3.45),
    (0.2, 3.70),
    (0.9, 4.05),
    (1.0, 4.20),
)


class PowertrainError(ValueError):
    """Raised for invalid powertrain inputs or forbidden circuit commands."""


class SwitchTarget(Enum):
    USE_PRIMARY = "primary"
    USE_SECONDARY = "secondary"


class ActiveSource(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    BOTH = "both"
    NONE = "none"


@dataclass(frozen=True)
class BatteryPack:
    """One LiPo pack's fixed spec. capacity_wh is the energy when full,
    capacity_ah * cells * 3.7 V nominal per cell; the remaining energy
    is a plain float the caller carries next to the spec."""

    cell_count: int
    capacity_ah: float
    internal_resistance: float = 0.025
    capacity_wh: float = field(init=False)

    def __post_init__(self):
        if self.cell_count < 1:
            raise PowertrainError(f"cell_count must be >= 1, got {self.cell_count}")
        for name in ("capacity_ah", "internal_resistance"):
            if not isfinite(getattr(self, name)):
                raise PowertrainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.internal_resistance < 0.0:
            raise PowertrainError(f"internal_resistance must be >= 0, got {self.internal_resistance}")
        object.__setattr__(self, "capacity_wh", self.capacity_ah * self.cell_count * 3.7)
        if self.capacity_wh <= 0.0:
            raise PowertrainError("capacity_wh must be positive")


@dataclass(frozen=True)
class SwitchCircuit:
    """Relay + diode OR state. The relay coil is powered through the
    secondary input, so the relay can only be open while a secondary
    source is present."""

    relay_closed: bool = True
    diode_drop: float = 0.05
    secondary_present: bool = False

    def __post_init__(self):
        if not 0.0 < self.diode_drop <= 0.2:
            raise PowertrainError(f"diode_drop {self.diode_drop} outside (0, 0.2] V")
        if not self.relay_closed and not self.secondary_present:
            raise PowertrainError("relay cannot be open without a secondary source")


class BusSample(NamedTuple):
    """Electrical state of the load bus at one instant."""

    bus_voltage: float
    current_primary: float
    current_secondary: float
    active_source: ActiveSource


# solve_bus runs every step: its sources are read from module constants
# (an Enum class attribute read is slow on Python 3.11), and its samples
# are built with tuple.__new__, skipping the named tuple's generated
# Python __new__
_PRIMARY = ActiveSource.PRIMARY
_SECONDARY = ActiveSource.SECONDARY
_BOTH = ActiveSource.BOTH
_NO_SOURCE = ActiveSource.NONE
_new_tuple = tuple.__new__


def hover_power(total_mass: float, k_p: float) -> float:
    """Hover electric power k_p * total_mass**1.5 (W)."""
    if total_mass < 0.0:
        raise PowertrainError(f"mass must be non-negative, got {total_mass}")
    return k_p * total_mass * sqrt(total_mass)


def k_thrust_from_kp(k_p: float) -> float:
    """Per-rotor thrust-to-power constant matching a vehicle k_p.

    A quad hovering at thrust m*g split over 4 rotors draws
    4 * k * (m*g/4)**1.5 = (k * g**1.5 / 2) * m**1.5, so k = 2*k_p/g**1.5."""
    return 2.0 * k_p / (GRAVITY * sqrt(GRAVITY))


def total_rotor_power(total_thrust: float, k_thrust_power: float) -> float:
    """Power of four identical rotors sharing total_thrust equally."""
    if total_thrust < 0.0:
        raise PowertrainError(f"thrust must be non-negative, got {total_thrust}")
    return 0.5 * k_thrust_power * total_thrust * sqrt(total_thrust)


# per-segment (s0, v0, slope, s1) for fast interpolation
_OCV_SEGMENTS = tuple(
    (s0, v0, (v1 - v0) / (s1 - s0), s1)
    for (s0, v0), (s1, v1) in zip(OCV_KNOTS, OCV_KNOTS[1:])
)
# the segments as module constants for ocv_per_cell's unrolled chain;
# each segment starts at the knot the one before it ends at
(
    (_OCV_S0, _OCV_V0, _OCV_K0, _OCV_S1),
    (_OCV_S1, _OCV_V1, _OCV_K1, _OCV_S2),
    (_OCV_S2, _OCV_V2, _OCV_K2, _OCV_S3),
    (_OCV_S3, _OCV_V3, _OCV_K3, _OCV_S4),
) = _OCV_SEGMENTS


# each segment as (s0, v0, slope, top): ocv_per_cell evaluates it at
# s0 < soc <= top, where top is its upper knot, or on the last segment
# the float below 1.0 (the curve reads CELL_FULL_V at 1.0)
_OCV_SPANS = tuple(
    (s0, v0, slope, s1 if s1 < 1.0 else nextafter(1.0, 0.0))
    for s0, v0, slope, s1 in _OCV_SEGMENTS
)


def ocv_segment(soc: float) -> tuple[float, float, float, float] | None:
    """(s0, v0, slope, top) of the segment whose value ocv_per_cell
    returns at soc, v0 + slope * (soc - s0), which holds for every
    s0 < soc <= top; None at or beyond full or empty and on NaN, where
    the curve is clamped."""
    if 0.0 < soc < 1.0:
        for span in _OCV_SPANS:
            if soc <= span[3]:
                return span
    return None


def ocv(pack: BatteryPack, energy_wh: float) -> float:
    """Open-circuit voltage of the whole pack holding energy_wh."""
    return ocv_per_cell(energy_wh / pack.capacity_wh) * pack.cell_count


def ocv_per_cell(soc: float) -> float:
    """OCV_KNOTS interpolated, clamped outside [0, 1]; NaN reads as full.
    A hot path (solve_bus calls it every step), hence unrolled. The drain
    loop of the shadow flights evaluates the same chain one segment at a
    time and calls it only at full, at empty and on NaN."""
    if soc <= 0.0:
        return CELL_EMPTY_V
    if soc >= 1.0:
        return CELL_FULL_V
    if soc <= _OCV_S1:
        return _OCV_V0 + _OCV_K0 * (soc - _OCV_S0)
    if soc <= _OCV_S2:
        return _OCV_V1 + _OCV_K1 * (soc - _OCV_S1)
    if soc <= _OCV_S3:
        return _OCV_V2 + _OCV_K2 * (soc - _OCV_S2)
    if soc <= _OCV_S4:
        return _OCV_V3 + _OCV_K3 * (soc - _OCV_S3)
    return CELL_FULL_V


def discharge(
    pack: BatteryPack, energy_wh: float, load_power: float, dt: float, current: float | None = None
) -> float:
    """Remaining energy after removing load_power*dt plus the I^2 R loss
    from a pack holding energy_wh.

    current defaults to load_power / ocv(pack, energy_wh); the simulation
    passes the bus-apportioned current so the energy audit reconstructs
    losses from telemetry exactly. The result clamps at zero, which is
    how callers detect depletion."""
    if load_power < 0.0:
        raise PowertrainError(f"load_power must be non-negative, got {load_power}")
    if load_power == 0.0:
        return energy_wh
    if current is None:
        v = ocv(pack, energy_wh)
        current = load_power / v if v > 0.0 else 0.0
    loss = current * current * pack.internal_resistance
    energy = energy_wh - (load_power + loss) * dt / 3600.0
    return energy if energy > 0.0 else 0.0


def solve_bus(
    circuit: SwitchCircuit,
    primary: BatteryPack,
    primary_wh: float,
    secondary: BatteryPack | None,
    secondary_wh: float,
    load_power: float,
) -> BusSample:
    """Steady-state bus sample for the diode-OR circuit under a constant
    power load, with the primary holding primary_wh and the secondary
    (if any) secondary_wh.

    The source with the highest open-circuit voltage sets the bus one
    diode drop below it; any other source within the drop window
    conducts too, splitting current in proportion to voltage surplus.
    Empty packs and a disconnected primary (relay open) do not conduct.
    With no conducting source the sample reports a collapsed bus
    (active_source NONE, zero volts)."""
    if load_power < 0.0:
        raise PowertrainError(f"load_power must be non-negative, got {load_power}")
    # ocv() written out: one call per 1 kHz step
    v_p = None
    if circuit.relay_closed and primary_wh > 0.0:
        v_p = ocv_per_cell(primary_wh / primary.capacity_wh) * primary.cell_count
    v_s = None
    if circuit.secondary_present and secondary is not None and secondary_wh > 0.0:
        v_s = ocv_per_cell(secondary_wh / secondary.capacity_wh) * secondary.cell_count

    if v_p is None or v_s is None:
        # One source: the two-source split below reduces to all of the
        # current on it, with the same bits (c * (d / d) is c, and
        # c * (0.0 / d) is c * 0.0, for a finite d > 0), or to none when
        # the diode drop rounds away.
        v = v_s if v_p is None else v_p
        if v is None:
            return _new_tuple(BusSample, (0.0, 0.0, 0.0, _NO_SOURCE))
        bus = v - circuit.diode_drop
        if not v - bus > 0.0:
            return _new_tuple(BusSample, (bus, 0.0, 0.0, _SECONDARY))
        c = load_power / bus if bus > 0.0 else 0.0
        if v_p is None:
            return _new_tuple(BusSample, (bus, c * 0.0, c, _SECONDARY))
        return _new_tuple(BusSample, (bus, c, c * 0.0, _PRIMARY))

    bus = (v_s if v_s > v_p else v_p) - circuit.diode_drop
    # d if d > 0.0 else 0.0 is max(0.0, d), nan and -0.0 included
    surplus_p = surplus_s = 0.0
    d = v_p - bus
    if d > 0.0:
        surplus_p = d
    d = v_s - bus
    if d > 0.0:
        surplus_s = d

    if surplus_p > 0.0 and surplus_s > 0.0:
        # Both conduct only inside the diode window, which is at most the
        # LiPo parallel-safety limit of 0.2 V per cell.
        if abs(v_p - v_s) > PARALLEL_SAFE_V_PER_CELL * min(
            primary.cell_count, secondary.cell_count
        ):
            raise PowertrainError(
                "simultaneous conduction outside the parallel-safe voltage window"
            )

    total_current = load_power / bus if bus > 0.0 else 0.0
    share = surplus_p + surplus_s
    i_p = total_current * (surplus_p / share) if share > 0.0 else 0.0
    i_s = total_current * (surplus_s / share) if share > 0.0 else 0.0

    if surplus_p > 0.0 and surplus_s > 0.0:
        source = _BOTH
    elif surplus_p > 0.0:
        source = _PRIMARY
    else:
        source = _SECONDARY
    return _new_tuple(BusSample, (bus, i_p, i_s, source))


def command_switch(circuit: SwitchCircuit, target: SwitchTarget) -> SwitchCircuit:
    """Drive the relay. USE_PRIMARY closes it (the normally closed
    default); USE_SECONDARY opens it, which the coil wiring only allows
    while a secondary source is present."""
    if target is SwitchTarget.USE_SECONDARY:
        if not circuit.secondary_present:
            raise PowertrainError(
                "cannot switch to secondary: no secondary source present"
            )
        return replace(circuit, relay_closed=False)
    return replace(circuit, relay_closed=True)


# steps per call of the drain loop in time_to_depletion, so that its
# 1e7 s guard stops a flight that never empties
_DEPLETION_CHUNK = 8192


def _drain(
    pack: BatteryPack,
    energy: float,
    load_power: float,
    steps: int,
    dt: float,
    diode_drop: float,
    stop_when_empty: bool,
) -> tuple[float, int]:
    """(energy, steps run) after up to `steps` shadow steps from a pack
    holding `energy` under a constant-power load. Each step does the float
    operations of `ocv` and `discharge(pack, energy, load_power, dt,
    current=...)` in the same order, with the bus-side current. With
    stop_when_empty, no step starts from an energy that is not positive.

    Under a load >= 0 and dt > 0 the energy never rises, so a stretch
    strictly inside the OCV curve evaluates `ocv_per_cell`'s chain one
    segment at a time and tests only the segment's lower knot. A state at
    or above full, at or below empty, or NaN, and any other load or dt,
    takes one step through `ocv_per_cell` and is looked at again."""
    cap, r = pack.capacity_wh, pack.internal_resistance
    # the int converts exactly, as float * int converts it, and a float
    # product is faster
    cells = float(pack.cell_count)
    falls = load_power >= 0.0 and dt > 0.0
    left = steps
    while left > 0:
        soc = energy / cap
        if falls and 0.0 < soc < 1.0:
            s0, v0, slope, _ = ocv_segment(soc)
            # steps while soc > s0, which holds on entry; Python 3.11
            # specializes a `while True` loop on the first call, but one
            # with its test on the `while` line only from the eighth
            while True:
                bus = (v0 + slope * (soc - s0)) * cells - diode_drop
                current = load_power / bus if bus > 0.0 else 0.0
                energy = energy - (load_power + current * current * r) * dt / 3600.0
                soc = energy / cap
                left -= 1
                if not (left and soc > s0):
                    break
        else:
            # discharge clamps a negative or NaN energy to zero; the test
            # stops on either just the same
            if stop_when_empty and not energy > 0.0:
                break
            bus = ocv_per_cell(soc) * cells - diode_drop
            current = load_power / bus if bus > 0.0 else 0.0
            energy = energy - (load_power + current * current * r) * dt / 3600.0
            left -= 1
    return energy, steps - left


def time_to_depletion(
    pack: BatteryPack,
    energy_wh: float,
    load_power: float,
    dt: float = 0.1,
    diode_drop: float = 0.05,
) -> float:
    """Seconds until a pack holding energy_wh empties under a
    constant-power load, with I^2 R losses computed from the bus-side
    current: the float sum of dt over the drain loop's steps. Used for
    endurance calibration and solo-equivalent reporting; the mission
    summary's solo-equivalent time runs it once. A non-finite dt or
    energy, dt <= 0, energy < 0, a NaN load or a diode drop outside
    (0, 0.2] V raises PowertrainError."""
    if not (isfinite(dt) and dt > 0.0):
        raise PowertrainError(f"dt must be finite and positive, got {dt}")
    if not (isfinite(energy_wh) and energy_wh >= 0.0):
        raise PowertrainError(f"energy_wh must be finite and non-negative, got {energy_wh}")
    if load_power != load_power:
        raise PowertrainError(f"load_power must not be NaN, got {load_power}")
    if not 0.0 < diode_drop <= 0.2:
        raise PowertrainError(f"diode_drop {diode_drop} outside (0, 0.2] V")
    if load_power <= 0.0:
        return float("inf")
    energy = energy_wh
    t = 0.0
    while energy > 0.0:
        energy, ran = _drain(pack, energy, load_power, _DEPLETION_CHUNK, dt, diode_drop, True)
        for _ in range(ran):
            t += dt
            if t > 1.0e7:
                raise PowertrainError("pack does not deplete")
    return t


def shadow_energy(
    pack: BatteryPack,
    energy_wh: float,
    load_power: float,
    steps: int,
    dt: float,
    diode_drop: float,
) -> float:
    """Energy left after `steps` steps of time_to_depletion's drain loop,
    with no stop: it goes on falling below zero once the pack is empty,
    so while the bus stays positive it is a continuous function of the
    load. One call is one shadow flight of solve_kp_for_endurance."""
    return _drain(pack, energy_wh, load_power, steps, dt, diode_drop, False)[0]


# the nodes of 4-point Gauss-Legendre quadrature on [-1, 1], each with
# its weight
_GAUSS_LEGENDRE_4 = (
    (-0.8611363115940526, 0.34785484513745385),
    (-0.33998104358485626, 0.6521451548625461),
    (0.33998104358485626, 0.6521451548625461),
    (0.8611363115940526, 0.34785484513745385),
)


def _kp_start(
    pack: BatteryPack, vehicle_mass: float, steps: int, dt: float, diode_drop: float
) -> tuple[float, float] | None:
    """(k_p, d energy / d k_p) at which a model of the drain loop empties
    the full pack in exactly `steps` steps, or None where the model fails.

    One shadow step takes g(E) = (P + r * (P / B(E))**2) * dt / 3600 from
    the energy E, with B the bus voltage. As forward Euler it follows, to
    second order in g, the modified equation dE/dk = -g - g * g' / 2, so k
    steps take the energy down by the integral of dE / (g * (1 + g' / 2)):
    over each OCV segment, where B is linear in E, 4-point Gauss-Legendre.
    Newton's method on the hover power P then solves "steps to empty =
    steps", and the flow's dependence on P gives the slope of the energy
    left after `steps` steps there. Only +, -, * and / run, so the start
    is the same on every machine."""
    c = dt / 3600.0
    r, cells, cap = pack.internal_resistance, float(pack.cell_count), pack.capacity_wh

    def rate(power, bus, dbus):
        # (energy drained per step, d that / d power) at a bus voltage bus
        # whose slope over energy is dbus
        current = power / bus
        loss = r * current * current * c
        g = power * c + loss
        dg = -2.0 * loss * dbus / bus
        g_power = c + 2.0 * loss / power
        dg_power = -4.0 * loss / power * dbus / bus
        return g * (1.0 + 0.5 * dg), g_power * (1.0 + 0.5 * dg) + 0.5 * g * dg_power

    # each node as (bus voltage, its slope over energy, weight in Wh)
    nodes = []
    for s0, v0, slope, s1 in _OCV_SEGMENTS:
        half = 0.5 * (s1 - s0)
        for x, w in _GAUSS_LEGENDRE_4:
            bus = (v0 + slope * half * (1.0 + x)) * cells - diode_drop
            nodes.append((bus, slope * cells / cap, w * half * cap))
    _, v0, slope0, _ = _OCV_SEGMENTS[0]
    empty = (v0 * cells - diode_drop, slope0 * cells / cap)

    power = cap / (steps * c)  # the lossless hover power
    if not 0.0 < power < inf:
        return None
    for _ in range(40):
        k = k_power = 0.0
        for bus, dbus, weight in nodes:
            d, d_power = rate(power, bus, dbus)
            if not d > 0.0:
                return None
            k += weight / d
            k_power -= weight * d_power / d / d
        if not k_power < 0.0:
            return None
        # Newton on 1 / k, which is near linear in power: from the
        # lossless power it falls to the root without passing it
        step = (k - steps) * k / (steps * k_power)
        power -= step
        if not (isfinite(power) and power > 0.0):
            return None
        if abs(step) <= 1.0e-12 * power:
            break
    else:
        return None
    # the energy left after `steps` steps at the root, by power: k_power
    # times the drain per step at empty
    scale = vehicle_mass * sqrt(vehicle_mass)  # may underflow to 0
    k_p = power / vehicle_mass / sqrt(vehicle_mass)
    slope = k_power * rate(power, *empty)[0] * scale
    if not (isfinite(k_p) and slope < 0.0 and isfinite(slope)):
        return None
    return k_p, slope


def solve_kp_for_endurance(
    pack: BatteryPack,
    vehicle_mass: float,
    target_time: float,
    dt: float = 0.1,
    diode_drop: float = 0.05,
) -> float:
    """Powertrain constant k_p such that hovering at vehicle_mass
    depletes the full pack in target_time seconds, including resistive and
    bus losses: the result of a 60-step bisection on
    `time_to_depletion(...) > target_time` between k_p = 1 and four times
    the lossless k_p. Raises PowertrainError when the pack empties before
    target_time even at k_p = 1.

    The search is exact but runs few shadow flights (5 for the default
    host and pack, where the plain bisection ran 55):
    - Sign test. Let n be the first count of dt additions whose float sum
      exceeds target_time. time_to_depletion(k_p) > target_time exactly
      when the shadow energy is still positive after n - 1 steps, since
      t only grows and the energy only falls.
    - Monotone in k_p. Every float operation of a step rounds
      monotonically and the bus stays above 2.8 V, so the energy after
      n - 1 steps never rises as k_p grows: an outcome at one k_p decides
      every k_p beyond it on the same side.
    - Same midpoints. A safeguarded Newton search on that energy, from
      the root of the drain's modified equation (`_kp_start`), brackets
      the answer between evaluated outcomes. The bisection then runs
      unchanged; it evaluates a midpoint only when it lies strictly
      inside that bracket and takes every other outcome from it."""
    if not (isfinite(vehicle_mass) and vehicle_mass > 0.0):
        raise PowertrainError(f"vehicle_mass must be finite and positive, got {vehicle_mass}")
    if not isfinite(target_time):
        raise PowertrainError(f"target_time must be finite, got {target_time}")
    if target_time <= 0.0:
        raise PowertrainError("target_time must be positive")
    if target_time > 1.0e6:
        # the plain bisection could trip time_to_depletion's 1e7 s guard
        # on a midpoint this search infers
        raise PowertrainError(f"target_time must be at most 1e6 s, got {target_time:g}")
    if not 0.0 < dt <= target_time:
        raise PowertrainError(f"dt must be in (0, target_time], got {dt}")
    if not 0.0 < diode_drop <= 0.2:
        raise PowertrainError(f"diode_drop {diode_drop} outside (0, 0.2] V")
    cap = pack.capacity_wh
    n, t = 0, 0.0
    while t <= target_time:
        t += dt
        n += 1

    def energy_left(k_p: float) -> float:
        return shadow_energy(pack, cap, hover_power(vehicle_mass, k_p), n - 1, dt, diode_drop)

    lo, hi = 1.0, 4.0 * cap * 3600.0 / (target_time * vehicle_mass * sqrt(vehicle_mass))
    # the evaluated outcomes nearest the answer: every k_p <= reach flies
    # past target_time, every k_p >= fall does not
    reach, fall = 0.0, inf
    # Newton steps on that energy with the model's slope. A step that
    # leaves the bracket moves past the last outcome by the last step's
    # size (from k_p = 0 at first: a doubling or a halving) or, where that
    # leaves it too, halves the bracket. Where the model fails, the
    # bisection runs alone. Only 1 <= k_p <= hi can decide a midpoint.
    start = _kp_start(pack, vehicle_mass, n - 1, dt, diode_drop)
    if start is not None:
        x, slope = start
        x, x_prev = max(1.0, min(x, hi)), 0.0
        while reach < x < fall:
            e = energy_left(x)
            if e > 0.0:
                reach = x
            else:
                fall = x
            step = x - e / slope
            if not reach < step < fall:
                last = abs(x - x_prev)
                step = x + last if e > 0.0 else x - last
                if not reach < step < fall:
                    step = reach + 0.5 * (fall - reach)
            x_prev = x
            x = max(1.0, min(step, hi))

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the bracket cannot shrink further and mid is the result
            break
        if mid <= reach or (mid < fall and energy_left(mid) > 0.0):
            lo = mid
        else:
            hi = mid
    if lo == 1.0:
        t_floor = time_to_depletion(pack, cap, hover_power(vehicle_mass, 1.0), dt, diode_drop)
        if t_floor <= target_time:
            raise PowertrainError(
                f"no k_p >= 1 reaches a {target_time:g} s hover: at k_p = 1 "
                f"the pack empties after {t_floor:g} s"
            )
    return 0.5 * (lo + hi)
