"""Scenario files: line-oriented sections of key = value pairs.

Sections are [vehicles], [batteries], [circuit], [downwash], [control],
[docking], [mission], and [sim]. Keys inside a section may be dotted
(main.mass, primary.cells). `#` and `;` open a comment at the start of a
line or after whitespace; elsewhere they belong to the value. Unknown
sections, unknown keys and keys set twice in one section are rejected
with their line number; missing keys take the documented defaults, which
reproduce the reference vehicles: host 0.820 kg / 27 N max thrust with a
3S 2.2 Ah primary pack, and the flying battery 0.320 kg / 8 N carrying a
3S 1.5 Ah secondary and powered by its own 2S 0.8 Ah pack. A vehicle's
mass includes the packs it carries.

Two golden scenarios ship with the package: `solo_hover` (the host
alone, hovering to primary depletion) and `paper_demo` (the full
dock-switch-undock-repeat mission).
"""

from __future__ import annotations

import importlib.resources
import math
import os
import re
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache, reduce
from typing import Any

from . import control as ctl
from . import powertrain as pt
from .aero import DownwashModel
from .dynamics import GRAVITY, MOUNT_HEIGHT, VehicleParams, composite_params

TERMINATION_MODES = ("primary_depleted", "wall_clock")
FF_MODES = ("model", "zero", "csv")

SOLO_FLIGHT_TIME = 720.0  # s, the calibration anchor for the host's k_p

_PACKS = ("primary", "secondary", "fb")

# keys that must be positive, by section
_POSITIVE = {
    "vehicles": (
        *(f"{v}.{k}" for v in ("main", "fb") for k in ("mass", "inertia_xx", "inertia_yy", "inertia_zz")),
        "fb.k_p",  # main.k_p <= 0 asks for the calibrated value
    ),
    "batteries": tuple(f"{p}.{k}" for p in _PACKS for k in ("cells", "capacity_ah")),
    "control": (
        "pos_wn", "pos_zeta", "att_wn", "att_zeta",
        "ff_lat_max", "ff_lat_bins", "ff_gap_max", "ff_gap_bins",
    ),
    "sim": ("dt", "duration", "telemetry_hz"),
    "docking": (
        "hover_above_gap", "lateral_capture_radius", "drop_height", "descent_rate",
        "approach_speed", "depart_speed", "vertical_speed",
    ),
    "downwash": ("lateral_decay", "vertical_decay", "align_torque_gain"),
}
# keys that must not be negative, by section
_NON_NEGATIVE = {
    "batteries": tuple(f"{p}.internal_resistance" for p in _PACKS),
    "docking": ("mu",),
    "mission": (
        "fleet_size", "oscillation_amplitude", "oscillation_omega", "dispatch_delay",
        "turnaround_delay", "failure_redispatch_delay",
    ),
    "sim": ("seed", "planar_drag_coeff"),
}

# '#' or ';' opens a comment at the start of a line or after whitespace,
# so values such as paths may contain both
_COMMENT = re.compile(r"(?:^|\s)[#;]")


class ScenarioError(ValueError):
    """Scenario parse or validation failure. key is the dotted key it
    names, if any; line is set when the problem comes from a file."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _require(ok: bool, key: str, rule: str) -> None:
    if not ok:
        raise ScenarioError(f"{key} {rule}", key=key)


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------


@dataclass
class VehicleSpec:
    mass: float
    max_thrust: float
    k_p: float
    inertia_xx: float
    inertia_yy: float
    inertia_zz: float


@dataclass
class PackSpec:
    cells: int
    capacity_ah: float
    internal_resistance: float = 0.025


@dataclass
class VehiclesSection:
    main: VehicleSpec = field(
        default_factory=lambda: VehicleSpec(
            mass=0.820,
            max_thrust=27.0,
            k_p=0.0,  # 0 = calibrate from the 720 s solo flight
            inertia_xx=0.008,
            inertia_yy=0.008,
            inertia_zz=0.014,
        )
    )
    fb: VehicleSpec = field(
        default_factory=lambda: VehicleSpec(
            mass=0.320,
            max_thrust=8.0,
            k_p=250.0,
            inertia_xx=0.0007,
            inertia_yy=0.0007,
            inertia_zz=0.0012,
        )
    )


@dataclass
class BatteriesSection:
    primary: PackSpec = field(default_factory=lambda: PackSpec(3, 2.2))
    secondary: PackSpec = field(default_factory=lambda: PackSpec(3, 1.5))
    fb: PackSpec = field(default_factory=lambda: PackSpec(2, 0.8))


@dataclass
class CircuitSection:
    diode_drop: float = 0.05


@dataclass
class ControlSection:
    pos_wn: float = 2.0
    pos_zeta: float = 0.8
    att_wn: float = 15.0
    att_zeta: float = 0.8
    ff_mode: str = "model"
    ff_csv_path: str = ""
    ff_lat_max: float = 0.4
    ff_lat_bins: int = 9
    ff_gap_max: float = 1.0
    ff_gap_bins: int = 11

    def ff_edges(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Bin edges of the feedforward map: lateral offset, vertical gap."""
        return _edges(self.ff_lat_max, self.ff_lat_bins), _edges(self.ff_gap_max, self.ff_gap_bins)


def _edges(top: float, bins: int) -> tuple[float, ...]:
    """bins + 1 edges from 0 to top in `numpy.linspace`'s arithmetic:
    i * (top / bins) + 0.0, or (i / bins) * top where the step underflows
    to zero, and top itself last."""
    step = top / bins
    if step == 0.0:
        return tuple(i / bins * top + 0.0 for i in range(bins)) + (top,)
    return tuple(i * step + 0.0 for i in range(bins)) + (top,)


@dataclass
class DockingSection:
    hover_above_gap: float = 0.30  # m above the platform for approach/undock
    lateral_capture_radius: float = 0.020  # m, the funnel's alignment radius
    drop_height: float = 0.050  # m, free-fall release gap
    descent_rate: float = 0.15  # m/s during the centered descent
    approach_speed: float = 0.20  # m/s
    depart_speed: float = 0.75  # m/s
    vertical_speed: float = 0.50  # m/s, takeoff, undock ascent and landing
    mu: float = 0.5  # friction coefficient of the docked contact
    contact_failure_probability: float = 0.1
    home_radius: float = 3.0


@dataclass
class MissionSection:
    fleet_size: int = 2
    ground_recharge: bool = True
    turnaround_delay: float = 60.0
    hover_x: float = 0.0
    hover_y: float = 0.0
    hover_z: float = 1.5
    termination: str = "primary_depleted"
    dispatch_delay: float = 1.0
    failure_redispatch_delay: float = 1.0
    start_docked: bool = False
    oscillation_amplitude: float = 0.0
    oscillation_omega: float = 0.0


@dataclass
class SimSection:
    dt: float = 0.001
    seed: int = 1
    duration: float = 4000.0
    telemetry_hz: float = 100.0
    planar_drag_coeff: float = 0.0


@dataclass
class Scenario:
    name: str = "default"
    vehicles: VehiclesSection = field(default_factory=VehiclesSection)
    batteries: BatteriesSection = field(default_factory=BatteriesSection)
    circuit: CircuitSection = field(default_factory=CircuitSection)
    downwash: DownwashModel = field(default_factory=DownwashModel)
    control: ControlSection = field(default_factory=ControlSection)
    docking: DockingSection = field(default_factory=DockingSection)
    mission: MissionSection = field(default_factory=MissionSection)
    sim: SimSection = field(default_factory=SimSection)

    def validate(self) -> None:
        """Raise a ScenarioError naming the first key out of its range."""
        for sec in (f.name for f in fields(self) if f.name != "name"):
            for key, path in _section_keys(getattr(self, sec)).items():
                value = reduce(getattr, path, getattr(self, sec))
                if isinstance(value, float):
                    _require(math.isfinite(value), f"{sec}.{key}", f"must be finite, got {value}")
        for positive, table in ((True, _POSITIVE), (False, _NON_NEGATIVE)):
            for sec, keys in table.items():
                for key in keys:
                    value = reduce(getattr, key.split("."), getattr(self, sec))
                    ok, rule = (value > 0, "positive") if positive else (value >= 0, ">= 0")
                    _require(ok, f"{sec}.{key}", f"must be {rule}, got {value}")
        # with a fleet, the host lifts the docked pair
        v = self.vehicles
        main_lifts = v.main.mass + (v.fb.mass if self.mission.fleet_size >= 1 else 0.0)
        for name, mass in (("main", main_lifts), ("fb", v.fb.mass)):
            thrust = getattr(v, name).max_thrust
            rule = f"must exceed the weight of the {mass:g} kg it lifts, got {thrust}"
            _require(thrust > mass * GRAVITY, f"vehicles.{name}.max_thrust", rule)
        drop = self.circuit.diode_drop
        _require(0.0 < drop <= 0.2, "circuit.diode_drop", f"must be in (0, 0.2], got {drop}")
        m, s, d, w = self.mission, self.sim, self.docking, self.downwash
        _require(
            m.termination in TERMINATION_MODES,
            "mission.termination",
            f"must be one of {TERMINATION_MODES}, got {m.termination!r}",
        )
        ff_mode = self.control.ff_mode
        _require(ff_mode in FF_MODES, "control.ff_mode", f"must be one of {FF_MODES}, got {ff_mode!r}")
        _require(s.telemetry_hz <= 1.0 / s.dt + 1e-9, "sim.telemetry_hz", "must be in (0, 1/dt]")
        p = d.contact_failure_probability
        _require(0.0 <= p <= 1.0, "docking.contact_failure_probability", "must be in [0, 1]")
        _require(
            d.drop_height <= d.hover_above_gap,
            "docking.drop_height",
            f"must not exceed docking.hover_above_gap ({d.hover_above_gap}), got {d.drop_height}",
        )
        _require(
            0.0 < w.peak_force_ratio <= 1.0,
            "downwash.peak_force_ratio",
            f"must be in (0, 1], got {w.peak_force_ratio}",
        )
        _require(
            m.fleet_size >= 1 or not m.start_docked,
            "mission.start_docked",
            "requires at least one fleet unit",
        )


def default_scenario(name: str = "default") -> Scenario:
    return Scenario(name=name)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _section_keys(obj) -> dict[str, tuple]:
    """Dotted key -> attribute path for one section dataclass."""
    out: dict[str, tuple] = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            for sub in fields(val):
                out[f"{f.name}.{sub.name}"] = (f.name, sub.name)
        else:
            out[f.name] = (f.name,)
    return out


def _cast(raw: str, current: Any, key: str, line: int | None) -> Any:
    raw = raw.strip()
    try:
        if isinstance(current, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except ValueError:
        raise ScenarioError(f"invalid value {raw!r} for key {key!r}", line) from None


def _assign(section_obj, section: str, key: str, raw: str, label: str, line: int | None) -> None:
    """Cast raw to the type of the section's dotted key and set it; label
    is the key as a bad-value error names it."""
    path = _section_keys(section_obj).get(key)
    if path is None:
        raise ScenarioError(f"unknown key {key!r} in section [{section}]", line)
    obj = section_obj
    for attr in path[:-1]:
        obj = getattr(obj, attr)
    setattr(obj, path[-1], _cast(raw, getattr(obj, path[-1]), label, line))


def parse_scenario(text: str, name: str = "inline") -> Scenario:
    scenario = default_scenario(name)
    section_objs = {f.name: getattr(scenario, f.name) for f in fields(scenario) if f.name != "name"}
    current_section: str | None = None
    seen: dict[str, int] = {}  # dotted key -> the line that set it

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(rawline, 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"malformed section header {rawline.strip()!r}", lineno)
            sec = line[1:-1].strip()
            if sec not in section_objs:
                raise ScenarioError(f"unknown section [{sec}]", lineno)
            current_section = sec
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {rawline.strip()!r}", lineno)
        if current_section is None:
            raise ScenarioError("key outside any [section]", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        first = seen.setdefault(f"{current_section}.{key}", lineno)
        if first != lineno:
            raise ScenarioError(
                f"duplicate key {key!r} in section [{current_section}], first set on line {first}",
                lineno,
            )
        _assign(section_objs[current_section], current_section, key, raw, key, lineno)

    try:
        scenario.validate()
    except ScenarioError as exc:
        if exc.key not in seen:
            raise
        raise ScenarioError(str(exc), seen[exc.key], exc.key) from None
    return scenario


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, name=os.path.splitext(os.path.basename(str(path)))[0])


def bundled_scenario(name: str) -> Scenario:
    res = importlib.resources.files("flybat").joinpath(f"scenarios/{name}.cfg")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no bundled scenario named {name!r}") from None
    return parse_scenario(text, name=name)


def set_scenario_value(scenario: Scenario, dotted_key: str, raw: str) -> None:
    """Apply one override like `docking.contact_failure_probability = 0.5`."""
    parts = dotted_key.split(".")
    if len(parts) < 2:
        raise ScenarioError(f"key {dotted_key!r} must be section.key")
    section, key = parts[0], ".".join(parts[1:])
    if not hasattr(scenario, section) or section == "name":
        raise ScenarioError(f"unknown section {section!r}")
    _assign(getattr(scenario, section), section, key, raw, dotted_key, None)
    scenario.validate()


# --------------------------------------------------------------------------
# building domain objects
# --------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _calibrated_main_kp(
    cells: int, capacity_ah: float, resistance: float, vehicle_mass: float, diode_drop: float
) -> float:
    pack = pt.BatteryPack(cells, capacity_ah, resistance)
    return pt.solve_kp_for_endurance(
        pack, vehicle_mass, SOLO_FLIGHT_TIME, dt=0.1, diode_drop=diode_drop
    )


def vehicle_params(spec: VehicleSpec, k_p: float | None = None) -> VehicleParams:
    return VehicleParams(
        mass=spec.mass,
        max_thrust=spec.max_thrust,
        inertia=(spec.inertia_xx, spec.inertia_yy, spec.inertia_zz),
        k_p=spec.k_p if k_p is None else k_p,
    )


def battery_pack(spec: PackSpec) -> pt.BatteryPack:
    return pt.BatteryPack(spec.cells, spec.capacity_ah, spec.internal_resistance)


@dataclass
class WorldInputs:
    """The values World computes from a scenario; it reads every plain
    value from the scenario's sections."""

    main_params: VehicleParams
    fb_params: VehicleParams
    comp_params: VehicleParams | None  # the docked pair as one body; None without a fleet
    main_cfg: ctl.CascadedPidConfig
    comp_cfg: ctl.CascadedPidConfig | None
    fb_cfg: ctl.CascadedPidConfig
    primary: pt.BatteryPack
    secondary: pt.BatteryPack
    fb_own_pack: pt.BatteryPack
    ff_map: ctl.FeedforwardMap
    homes: list[tuple[float, float]]


def build_world_inputs(scenario: Scenario) -> WorldInputs:
    scenario.validate()
    v, b = scenario.vehicles, scenario.batteries
    main_kp = v.main.k_p
    if main_kp <= 0.0:
        main_kp = _calibrated_main_kp(
            b.primary.cells,
            b.primary.capacity_ah,
            b.primary.internal_resistance,
            v.main.mass,
            scenario.circuit.diode_drop,
        )
    main = vehicle_params(v.main, k_p=main_kp)
    fb = vehicle_params(v.fb)

    c = scenario.control
    main_cfg = ctl.default_config(main, c.pos_wn, c.pos_zeta, c.att_wn, c.att_zeta)
    comp = comp_cfg = None
    if scenario.mission.fleet_size >= 1:
        comp = composite_params(main, fb, MOUNT_HEIGHT)
        comp_cfg = ctl.default_config(comp, c.pos_wn, c.pos_zeta, c.att_wn, c.att_zeta)
    fb_cfg = ctl.default_config(fb, c.pos_wn, c.pos_zeta, c.att_wn, c.att_zeta)

    lat_edges, gap_edges = c.ff_edges()
    if c.ff_mode == "zero":
        ff_map = ctl.zero_map(lat_edges, gap_edges)
    elif c.ff_mode == "csv":
        ff_map = ctl.import_map_csv(c.ff_csv_path)
    else:
        # converged learn-from-integrals map for the small vehicle at hover thrust
        ff_map = ctl.map_from_model(scenario.downwash, fb.mass * GRAVITY, lat_edges, gap_edges)

    radius = scenario.docking.home_radius
    m = scenario.mission
    n = m.fleet_size
    homes = []
    for i in range(n):
        ang = 2.0 * math.pi * i / n
        homes.append((m.hover_x + radius * math.cos(ang), m.hover_y + radius * math.sin(ang)))

    return WorldInputs(
        main_params=main,
        fb_params=fb,
        comp_params=comp,
        main_cfg=main_cfg,
        comp_cfg=comp_cfg,
        fb_cfg=fb_cfg,
        primary=battery_pack(b.primary),
        secondary=battery_pack(b.secondary),
        fb_own_pack=battery_pack(b.fb),
        ff_map=ff_map,
        homes=homes,
    )
