import ast
import importlib
import math
import re
import struct
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flybat.engine
from flybat.scenario import (
    ControlSection,
    ScenarioError,
    _section_keys,
    bundled_scenario,
    build_world_inputs,
    default_scenario,
    parse_scenario,
    set_scenario_value,
)
from flybat.telemetry import (
    COLUMNS,
    SCHEMA_LINE,
    TelemetryError,
    TelemetryRow,
    TelemetryWriter,
    dump_telemetry,
    format_row,
    parse_row,
    read_telemetry,
)

# property tests draw the same examples on every run
PROPERTY = settings(deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# defaults reproduce the reference hardware
# ---------------------------------------------------------------------------


def test_default_vehicle_and_pack_values():
    sc = default_scenario()
    v, b = sc.vehicles, sc.batteries
    assert v.main.mass == 0.820
    assert v.main.max_thrust == 27.0
    assert v.fb.mass == 0.320
    assert v.fb.max_thrust == 8.0
    assert (b.primary.cells, b.primary.capacity_ah) == (3, 2.2)
    assert (b.secondary.cells, b.secondary.capacity_ah) == (3, 1.5)
    assert (b.fb.cells, b.fb.capacity_ah) == (2, 0.8)
    assert sc.circuit.diode_drop == 0.05
    assert sc.docking.mu == 0.5
    assert sc.docking.lateral_capture_radius == 0.020
    assert sc.docking.hover_above_gap == 0.30
    assert sc.docking.drop_height == 0.050
    assert sc.sim.dt == 0.001


def test_built_inputs_capacities():
    inp = build_world_inputs(default_scenario())
    assert inp.primary.capacity_wh == pytest.approx(24.42)
    assert inp.secondary.capacity_wh == pytest.approx(16.65)
    assert inp.fb_own_pack.capacity_wh == pytest.approx(5.92)
    assert inp.main_params.max_thrust == 27.0
    # calibrated hover constant: close to the lossless 164.4, reduced by
    # the resistive share so the full discharge lands on 720 s
    assert 150.0 < inp.main_params.k_p < 164.435


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_overrides_and_comments():
    sc = parse_scenario(
        """
# comment line
[vehicles]
main.mass = 0.9  # inline comment
fb.max_thrust = 9.5

[mission]
fleet_size = 4
ground_recharge = false
termination = wall_clock

[sim]
seed = 42
"""
    )
    assert sc.vehicles.main.mass == 0.9
    assert sc.vehicles.fb.max_thrust == 9.5
    assert sc.mission.fleet_size == 4
    assert sc.mission.ground_recharge is False
    assert sc.mission.termination == "wall_clock"
    assert sc.sim.seed == 42
    # untouched defaults remain
    assert sc.vehicles.main.max_thrust == 27.0


def test_parse_unknown_key_names_key_and_line():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[vehicles]\nmain.masss = 0.9\n")
    assert "masss" in str(exc.value)
    assert "line 2" in str(exc.value)
    assert exc.value.line == 2


def test_parse_unknown_section():
    with pytest.raises(ScenarioError, match=r"unknown section \[turbines\]"):
        parse_scenario("[turbines]\ncount = 2\n")


def test_parse_bad_value_and_stray_lines():
    with pytest.raises(ScenarioError, match="invalid value"):
        parse_scenario("[vehicles]\nmain.mass = heavy\n")
    with pytest.raises(ScenarioError, match="outside any"):
        parse_scenario("main.mass = 0.9\n")
    with pytest.raises(ScenarioError, match="key = value"):
        parse_scenario("[vehicles]\nmain.mass\n")
    with pytest.raises(ScenarioError, match="termination"):
        parse_scenario("[mission]\ntermination = whenever\n")


def test_parse_duplicate_key_names_key_and_line():
    with pytest.raises(ScenarioError, match="duplicate key 'fleet_size'") as exc:
        parse_scenario("[mission]\nfleet_size = 1\n[sim]\nseed = 2\n[mission]\nfleet_size = 3\n")
    assert exc.value.line == 6


def test_parse_comment_starts_at_line_start_or_after_whitespace():
    sc = parse_scenario(
        "[control]\n  # indented comment\nff_mode = csv\nff_csv_path = maps/run;2#b.csv\t; map\n"
    )
    assert sc.control.ff_mode == "csv"
    assert sc.control.ff_csv_path == "maps/run;2#b.csv"


def test_bundled_scenarios():
    solo = bundled_scenario("solo_hover")
    assert solo.mission.fleet_size == 0
    assert solo.mission.termination == "primary_depleted"
    demo = bundled_scenario("paper_demo")
    assert demo.mission.fleet_size == 9
    assert demo.mission.ground_recharge is False
    assert demo.docking.contact_failure_probability == 0.0
    with pytest.raises(ScenarioError):
        bundled_scenario("nonexistent")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_ini_blocks_parse():
    # a documented key cannot outlive its removal
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for text in blocks:
        parse_scenario(text, name="readme")


def test_readme_python_imports_resolve():
    # a documented name cannot outlive its removal either
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for text in blocks:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "flybat":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"README imports {missing} from {node.module}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "flybat":
                        importlib.import_module(alias.name)


def test_readme_lists_every_event_kind():
    # a logged kind cannot go undocumented: the string literals engine.py
    # passes as kind to World._event
    tree = ast.parse(Path(flybat.engine.__file__).read_text(encoding="utf-8"))
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_event":
            args = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "kind")]
            kinds |= {a.value for a in args if isinstance(a, ast.Constant)}
    assert {"dispatch", "crash", "mission_end"} <= kinds
    sentence = re.search(r"Kinds are (.*?)\.\s", README.read_text(encoding="utf-8"), re.S)
    missing = kinds - set(re.findall(r"`(\w+)`", sentence[1]))
    assert not missing, f"README's Telemetry kinds sentence lacks {sorted(missing)}"


def test_set_scenario_value():
    sc = default_scenario()
    set_scenario_value(sc, "docking.contact_failure_probability", "0.5")
    assert sc.docking.contact_failure_probability == 0.5
    set_scenario_value(sc, "vehicles.main.mass", "0.777")
    assert sc.vehicles.main.mass == 0.777
    with pytest.raises(ScenarioError):
        set_scenario_value(sc, "docking.grip", "1")
    with pytest.raises(ScenarioError):
        set_scenario_value(sc, "nope.key", "1")


def _float_keys():
    """(section, dotted key) of every float-valued scenario key."""
    sc = default_scenario()
    return [
        (f.name, key)
        for f in fields(sc)
        if f.name != "name"
        for key, path in _section_keys(getattr(sc, f.name)).items()
        if isinstance(reduce(getattr, path, getattr(sc, f.name)), float)
    ]


FLOAT_KEYS = _float_keys()


def test_float_keys_cover_every_section():
    assert {section for section, _ in FLOAT_KEYS} == {
        "vehicles", "batteries", "circuit", "downwash", "control", "docking", "mission", "sim"
    }
    assert len(FLOAT_KEYS) > 40


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_value_names_its_key(section, key, value):
    with pytest.raises(ScenarioError, match=rf"^line 2: {section}\.{key} must be finite"):
        parse_scenario(f"[{section}]\n{key} = {value}\n")
    sc = default_scenario()
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key} must be finite"):
        set_scenario_value(sc, f"{section}.{key}", value)


PACKS = ("primary", "secondary", "fb")

# (section, key, bad value) of every range check of Scenario.validate
RANGE_CHECKS = [
    *[
        ("vehicles", f"{v}.{k}", "0")
        for v in ("main", "fb")
        for k in ("mass", "inertia_xx", "inertia_yy", "inertia_zz")
    ],
    ("vehicles", "fb.mass", "-0.3"),
    ("vehicles", "fb.k_p", "-5"),
    ("vehicles", "main.inertia_yy", "-0.008"),
    ("vehicles", "main.max_thrust", "10"),  # lifts the host, not the docked pair
    ("vehicles", "fb.max_thrust", "3"),
    *[("batteries", f"{p}.cells", "0") for p in PACKS],
    *[("batteries", f"{p}.capacity_ah", "0") for p in PACKS],
    *[("batteries", f"{p}.internal_resistance", "-1") for p in PACKS],
    ("circuit", "diode_drop", "0"),
    ("circuit", "diode_drop", "0.25"),
    ("sim", "seed", "-1"),
    ("sim", "planar_drag_coeff", "-0.5"),
    ("mission", "termination", "whenever"),
    ("control", "ff_mode", "learned"),
    ("control", "ff_lat_bins", "0"),  # would switch the feedforward off
    ("control", "ff_gap_bins", "-2"),
    ("mission", "fleet_size", "-1"),
    # a negative amplitude or frequency would switch the oscillation off
    ("mission", "oscillation_amplitude", "-0.5"),
    ("mission", "oscillation_omega", "-2"),
    ("mission", "dispatch_delay", "-1"),
    ("mission", "turnaround_delay", "-5"),
    ("mission", "failure_redispatch_delay", "-1"),
    ("sim", "dt", "0"),
    ("sim", "duration", "-5"),
    ("sim", "telemetry_hz", "0"),
    ("sim", "telemetry_hz", "2000"),  # above 1/dt
    ("docking", "contact_failure_probability", "1.5"),
    *[
        ("docking", key, "0")
        for key in (
            "hover_above_gap", "lateral_capture_radius", "drop_height", "descent_rate",
            "approach_speed", "depart_speed", "vertical_speed",
        )
    ],
    ("docking", "drop_height", "0.5"),  # above hover_above_gap
    ("docking", "approach_speed", "-0.2"),
    ("docking", "vertical_speed", "-0.5"),
    ("docking", "mu", "-1"),
    ("downwash", "peak_force_ratio", "1.5"),
    ("downwash", "peak_force_ratio", "0"),
    ("downwash", "lateral_decay", "0"),
    ("downwash", "vertical_decay", "-0.5"),
    ("downwash", "align_torque_gain", "-1"),
]


@pytest.mark.parametrize(
    "section,key,value", RANGE_CHECKS, ids=[f"{s}.{k}={v}" for s, k, v in RANGE_CHECKS]
)
def test_range_check_names_key_and_line(section, key, value):
    text = f"# a range check\n\n[mission]\nhover_z = 2.0\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ScenarioError, match=rf"^line 6: {section}\.{key} ") as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.key) == (6, f"{section}.{key}")
    # an override names the key alone
    sc = default_scenario()
    with pytest.raises(ScenarioError, match=rf"^{section}\.{key} ") as exc:
        set_scenario_value(sc, f"{section}.{key}", value)
    assert exc.value.line is None


@pytest.mark.parametrize("pack", PACKS)
def test_pack_mass_is_an_unknown_key(pack):
    # a pack's mass is counted in the mass of the vehicle that carries it
    with pytest.raises(ScenarioError, match=rf"^line 3: unknown key '{pack}\.mass' in section \[batteries\]"):
        parse_scenario(f"[batteries]\n{pack}.cells = 3\n{pack}.mass = 0.19\n")


def test_start_docked_check_names_its_line():
    with pytest.raises(ScenarioError, match=r"^line 3: mission\.start_docked requires"):
        parse_scenario("[mission]\nfleet_size = 0\nstart_docked = true\n")


def test_solo_host_thrust_rule_counts_only_the_host():
    # 10 N lifts the 0.82 kg host (8.04 N), not the docked pair (11.18 N)
    inp = build_world_inputs(
        parse_scenario("[mission]\nfleet_size = 0\n[vehicles]\nmain.max_thrust = 10\n")
    )
    assert inp.comp_params is None and inp.comp_cfg is None
    rule = r"^line 4: vehicles\.main\.max_thrust must exceed the weight of the 0\.82 kg it lifts"
    with pytest.raises(ScenarioError, match=rule):
        parse_scenario("[mission]\nfleet_size = 0\n[vehicles]\nmain.max_thrust = 8\n")


def test_check_of_a_key_the_file_left_unset_names_no_line():
    # drop_height keeps its 0.05 m default, now above hover_above_gap
    with pytest.raises(ScenarioError, match=r"^docking\.drop_height must not exceed") as exc:
        parse_scenario("[docking]\nhover_above_gap = 0.01\n")
    assert exc.value.line is None


def test_override_cast_error_names_no_line():
    with pytest.raises(ScenarioError, match=r"^invalid value 'abc' for key 'docking\.mu'$"):
        set_scenario_value(default_scenario(), "docking.mu", "abc")


# ---------------------------------------------------------------------------
# setup inputs against the numpy expressions they replace
# ---------------------------------------------------------------------------

_MAXIMA = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(lat_max=_MAXIMA, gap_max=_MAXIMA)
@example(lat_max=0.4, gap_max=1.0)
@example(lat_max=5e-324, gap_max=1e-320)  # the step underflows to zero
@example(lat_max=0.0, gap_max=-0.5)
@example(lat_max=1.7e308, gap_max=-1.7e308)  # late edges overflow
def test_ff_edges_match_numpy_linspace(lat_max, gap_max):
    for bins in range(1, 65):
        # an edge past the largest float is inf on both sides
        with np.errstate(over="ignore"):
            ref_lat = np.linspace(0.0, lat_max, bins + 1).tolist()
            ref_gap = np.linspace(0.0, gap_max, bins + 1).tolist()
        c = ControlSection(ff_lat_max=lat_max, ff_lat_bins=bins, ff_gap_max=gap_max, ff_gap_bins=bins)
        lat, gap = c.ff_edges()
        assert [x.hex() for x in lat] == [x.hex() for x in ref_lat]
        assert [x.hex() for x in gap] == [x.hex() for x in ref_gap]


def test_homes_match_numpy_trig():
    sc = default_scenario()
    sc.mission.hover_x, sc.mission.hover_y = 0.3, -1.2
    r = sc.docking.home_radius
    for n in range(1, 65):
        sc.mission.fleet_size = n
        homes = build_world_inputs(sc).homes
        angles = [2.0 * np.pi * i / n for i in range(n)]
        expected = [(0.3 + r * float(np.cos(a)), -1.2 + r * float(np.sin(a))) for a in angles]
        assert [(x.hex(), y.hex()) for x, y in homes] == [
            (x.hex(), y.hex()) for x, y in expected
        ]


def test_validate_runs_on_a_scenario_built_in_code():
    sc = default_scenario()
    sc.downwash.lateral_decay = 0.0
    with pytest.raises(ScenarioError, match=r"^downwash\.lateral_decay must be positive"):
        build_world_inputs(sc)


# ---------------------------------------------------------------------------
# telemetry CSV round trip
# ---------------------------------------------------------------------------


def _row(t=0.25):
    return TelemetryRow(
        time=t,
        bus_voltage=11.0950001,
        current_total=17.63,
        current_primary=0.0,
        current_secondary=17.63,
        power=195.651181,
        active_source="secondary",
        main_x=1.0 / 3.0,
        main_y=-0.000123456789,
        main_z=1.5,
        fb_id=3,
        fb_phase="docked",
        fb_x=0.1,
        fb_y=0.2,
        fb_z=1.65,
        contact_normal_force=3.1392,
        events="dock:3;switch:secondary",
    )


def _write_file(rows, path):
    writer = TelemetryWriter(path)
    for row in rows:
        # the six leading values, then the tail from active_source on
        writer.write_row(*row[:6], row[6:])
    writer.close()


def test_round_trip_is_byte_exact(tmp_path):
    rows = [_row(0.01 * i) for i in range(50)]
    path = tmp_path / "telemetry.csv"
    _write_file(rows, path)
    first = path.read_bytes()
    back = read_telemetry(path)
    path2 = tmp_path / "telemetry2.csv"
    _write_file(back, path2)
    assert path2.read_bytes() == first


def test_schema_line_and_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,voltage\n1,2\n")
    with pytest.raises(TelemetryError, match="schema"):
        read_telemetry(path)
    path.write_text(SCHEMA_LINE + "\nwrong,header\n")
    with pytest.raises(TelemetryError, match="header"):
        read_telemetry(path)


def test_parse_row_field_count():
    with pytest.raises(TelemetryError):
        parse_row("1,2,3")


def test_dump_matches_file_writer(tmp_path):
    rows = [_row(), _row(0.5)]
    path = tmp_path / "t.csv"
    _write_file(rows, path)
    assert dump_telemetry(rows) == path.read_text()


def test_format_parse_identity():
    row = _row()
    again = parse_row(format_row(row))
    assert format_row(again) == format_row(row)


def _format_row_per_field(row):
    """format_row as a loop over the columns: 9 significant digits for
    the float columns, str() for the rest."""
    text = ("active_source", "fb_id", "fb_phase", "events")
    return ",".join(
        str(getattr(row, c)) if c in text else f"{getattr(row, c):.9g}" for c in COLUMNS
    )


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0 / 3.0]
)
def test_format_row_matches_per_field_formatting(value):
    floats = [c for c in COLUMNS if c not in ("active_source", "fb_id", "fb_phase", "events")]
    row = _row()._replace(**{c: value for c in floats}, fb_id=-1, fb_phase="none", events="")
    assert format_row(row) == _format_row_per_field(row)
    mixed = _row()._replace(main_y=value, fb_id=-7, active_source="none")
    assert format_row(mixed) == _format_row_per_field(mixed)
    assert format_row(mixed).split(",")[COLUMNS.index("main_y")] == f"{value:.9g}"



# the str.format spelling format_row used before its printf-style string
_FORMER_ROW_FORMAT = ",".join(
    "{!s}" if c in ("active_source", "fb_id", "fb_phase", "events") else "{:.9g}" for c in COLUMNS
)
_FLOAT_COLUMNS = [c for c in COLUMNS if c not in ("active_source", "fb_id", "fb_phase", "events")]

# every 64-bit pattern is a double: normals, subnormals, +-0, +-inf and
# nans with any payload; ints and bools also reach the float columns
_cell = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)


@settings(PROPERTY, max_examples=500)
@given(
    st.lists(_cell, min_size=len(_FLOAT_COLUMNS), max_size=len(_FLOAT_COLUMNS)),
    st.integers(-(2**40), 2**40),
    st.text(alphabet=st.characters(blacklist_characters=",\n"), max_size=12),
)
def test_format_row_matches_former_str_format(values, fb_id, events):
    row = _row()._replace(**dict(zip(_FLOAT_COLUMNS, values)), fb_id=fb_id, events=events)
    assert format_row(row) == _FORMER_ROW_FORMAT.format(*row)
