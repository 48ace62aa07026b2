import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DRAWS_CFG, contact_outcomes, run_optimized, scaled_mission_scenario
from flybat.cli import main
from flybat.docking import DESCEND, FREE_FALL
from flybat.telemetry import read_telemetry


def write_scaled_scenario(path, fleet_size=2, pack_scale=0.06, duration=200.0, extra=""):
    sc = scaled_mission_scenario(fleet_size=fleet_size, pack_scale=pack_scale)
    text = f"""
[vehicles]
main.k_p = {sc.vehicles.main.k_p!r}

[batteries]
primary.capacity_ah = {sc.batteries.primary.capacity_ah!r}
secondary.capacity_ah = {sc.batteries.secondary.capacity_ah!r}

[docking]
contact_failure_probability = 0.0

[mission]
fleet_size = {fleet_size}
turnaround_delay = 5.0

[sim]
duration = {duration}
seed = 3
{extra}
"""
    path.write_text(text)
    return path


def read_summary(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "key,value"
        for line in fh:
            k, _, v = line.strip().partition(",")
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_telemetry_and_summary(tmp_path, capsys):
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg")
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "extension_factor" in out
    telemetry = read_telemetry(tmp_path / "out" / "scaled_telemetry.csv")
    assert telemetry
    summary = read_summary(tmp_path / "out" / "scaled_summary.csv")
    assert summary["termination_reason"] == "primary_depleted"
    assert float(summary["extension_factor"]) > 1.0


def test_run_bundled_scenario_with_duration_override(tmp_path):
    code = main(
        [
            "run",
            "--scenario", "solo_hover",
            "--out", str(tmp_path),
            "--duration", "2.0",
        ]
    )
    assert code == 0
    rows = read_telemetry(tmp_path / "solo_hover_telemetry.csv")
    assert rows[-1].time <= 2.0


@pytest.mark.parametrize(
    "termination,reason", [("wall_clock", "wall_clock"), ("primary_depleted", "duration_guard")]
)
def test_run_ends_at_sim_duration(tmp_path, termination, reason):
    # a wall-clock mission ends at sim.duration; under primary_depleted the
    # duration guard stops it there
    scenario = tmp_path / "clock.cfg"
    scenario.write_text(
        f"[mission]\nfleet_size = 0\ntermination = {termination}\n[sim]\nduration = 5\n"
    )
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    summary = read_summary(tmp_path / "out" / "clock_summary.csv")
    assert summary["termination_reason"] == reason
    assert float(summary["total_time_s"]) == 5.0


def test_run_malformed_key_exits_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[vehicles]\nmasss = 0.9\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "masss" in err
    assert "line 2" in err


def test_run_missing_scenario_exits_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_run_numeric_blowup_exits_3(tmp_path, capsys):
    scenario = write_scaled_scenario(
        tmp_path / "unstable.cfg",
        duration=30.0,
        extra="\n[control]\natt_wn = 100000000.0\n",
    )
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "step" in err


# a 0.05 Ah primary cannot hold a 5 kg host up for the 720 s solo flight
# that calibrates its k_p; 60 N of thrust would lift it
UNREACHABLE_KP = """
[vehicles]
main.mass = 5
main.max_thrust = 60

[batteries]
primary.capacity_ah = 0.05
"""


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--param", "docking.mu", "--range", "0.5"]],
    ids=["run", "sweep"],
)
def test_unreachable_kp_exits_config_error(tmp_path, capsys, command):
    scenario = tmp_path / "heavy.cfg"
    scenario.write_text(UNREACHABLE_KP)
    code = main([*command[:1], "--scenario", str(scenario), "--out", str(tmp_path), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    # a sweep names the point that failed
    point = "docking.mu = 0.5: " if command[0] == "sweep" else ""
    assert err.startswith(f"error: {point}no k_p >= 1 reaches a 720 s hover")


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--param", "docking.mu", "--range", "0.5"]],
    ids=["run", "sweep"],
)
def test_unusable_out_exits_config_error(tmp_path, capsys, command):
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg", duration=20.0, fleet_size=0)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = main([*command[:1], "--scenario", str(scenario), "--out", str(out), *command[1:]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# feedforward map files beside each bad scenario, by name: a valid map
# has the schema line, the lat_edges and gap_edges rows, and one row of
# values per lateral bin
_MAP_HEAD = "# ff_map schema=1\n"
BAD_MAPS = {
    "truncated_map.csv": _MAP_HEAD,
    "no_gap_edges_map.csv": _MAP_HEAD + "lat_edges,0,0.2,0.4\n1,2\n3,4\n",
    "mislabelled_map.csv": _MAP_HEAD + "lat,0,0.2,0.4\ngap_edges,0,0.5,1\n1,2\n3,4\n",
    "decreasing_map.csv": _MAP_HEAD + "lat_edges,0,0.2\ngap_edges,0.4,0.2,0.0\n1,2\n",
    "inf_edge_map.csv": _MAP_HEAD + "lat_edges,0,inf\ngap_edges,0,0.5,1\n1,2\n",
    "nan_value_map.csv": _MAP_HEAD + "lat_edges,0,0.2,0.4\ngap_edges,0,0.5,1\n1,nan\n3,4\n",
}

# (scenario file text or None, command and its own arguments, a word the
# message must hold): every bad input, through `run` and, where it is a
# scenario key, through `sweep` as the swept value
BAD_INPUTS = {
    "run-peak_force_ratio": ("[downwash]\npeak_force_ratio = 2\n", ["run"], "peak_force_ratio"),
    "sweep-peak_force_ratio": (
        "", ["sweep", "--param", "downwash.peak_force_ratio", "--range", "2"], "peak_force_ratio"
    ),
    "run-drop_height": ("[docking]\ndrop_height = 0.5\n", ["run"], "drop_height"),
    "sweep-drop_height": (
        "", ["sweep", "--param", "docking.drop_height", "--range", "0.5"], "drop_height"
    ),
    "run-max_thrust": ("[vehicles]\nmain.max_thrust = 5\n", ["run"], "max_thrust"),
    "sweep-max_thrust": (
        "", ["sweep", "--param", "vehicles.main.max_thrust", "--range", "5"], "max_thrust"
    ),
    # a drop that rounds away below a full pack's OCV leaves the pack no current
    "run-diode_drop_rounds_away": (
        "[circuit]\ndiode_drop = 1e-20\n",
        ["run"],
        "error: line 2: circuit.diode_drop must not round away",
    ),
    "sweep-diode_drop_rounds_away": (
        "", ["sweep", "--param", "circuit.diode_drop", "--range", "1e-20"], "circuit.diode_drop"
    ),
    "run-pos_zeta": ("[control]\npos_zeta = -1\n", ["run"], "pos_zeta"),
    "sweep-pos_zeta": (
        "", ["sweep", "--param", "control.pos_zeta", "--range=-1"], "pos_zeta"
    ),
    # a zero natural frequency would fly on no position or attitude gain
    **{
        f"run-{key}=0": (
            f"[control]\n{key} = 0\n", ["run"], f"error: line 2: control.{key} must be positive"
        )
        for key in ("pos_wn", "att_wn")
    },
    "run-ff_csv_missing": (
        "[control]\nff_mode = csv\nff_csv_path = no_such_map.csv\n", ["run"], "no_such_map.csv"
    ),
    "sweep-ff_csv_missing": (
        "[control]\nff_mode = csv\n",
        ["sweep", "--param", "control.ff_csv_path", "--range", "no_such_map.csv"],
        "no_such_map.csv",
    ),
    # a map file that is cut short, mislabelled, not increasing or not
    # finite is bad input that names the file
    **{
        f"run-ff_csv={name}": (
            f"[sim]\nduration = 2\n[control]\nff_mode = csv\nff_csv_path = {name}\n",
            ["run"],
            f"error: {name}: {fault}",
        )
        for name, fault in (
            ("truncated_map.csv", "lat_edges row missing or mislabelled"),
            ("no_gap_edges_map.csv", "gap_edges row missing or mislabelled"),
            ("mislabelled_map.csv", "lat_edges row missing or mislabelled"),
            ("decreasing_map.csv", "gap_edges must be"),
            ("inf_edge_map.csv", "lat_edges must be"),
            ("nan_value_map.csv", "feedforward thrust entries must be finite"),
        )
    },
    **{
        f"{cmd}-{key}={value}": (
            f"[sim]\n{key} = {value}\n" if cmd == "run" else "",
            ["run"] if cmd == "run" else ["sweep", "--param", f"sim.{key}", "--range", value],
            f"sim.{key}",
        )
        for cmd in ("run", "sweep")
        for key in ("dt", "duration", "telemetry_hz")
        for value in ("nan", "inf")
    },
    "run-duration_flag_inf": ("", ["run", "--duration", "inf"], "sim.duration"),
    "run-seed_flag=-1": ("", ["run", "--seed", "-1"], "error: sim.seed must be >= 0, got -1"),
    # non-finite values of keys outside [sim], on a 2 s scenario
    **{
        f"run-{key}={value}": (
            f"[sim]\nduration = 2\n[{section}]\n{key} = {value}\n", ["run"], f"{section}.{key}"
        )
        for section, key, value in (
            ("mission", "hover_z", "nan"),
            ("docking", "mu", "nan"),
            ("mission", "dispatch_delay", "inf"),
            ("vehicles", "main.mass", "nan"),
        )
    },
    "sweep-mu=nan": ("", ["sweep", "--param", "docking.mu", "--range", "nan"], "docking.mu"),
    # docking speeds and friction out of range, named with their line
    **{
        f"run-{key}={value}": (
            f"[sim]\nduration = 2\n[docking]\n{key} = {value}\n", ["run"], f"line 4: docking.{key}"
        )
        for key, value in (
            ("approach_speed", "-0.2"),
            ("approach_speed", "0"),
            ("depart_speed", "0"),
            ("vertical_speed", "-0.5"),
            ("mu", "-1"),
        )
    },
    "run-dispatch_delay=inf_line": (
        "[mission]\ndispatch_delay = inf\n", ["run"], "line 2: mission.dispatch_delay"
    ),
    # a negative resistance would let the pack gain energy
    "run-internal_resistance=-1": (
        "[batteries]\nsecondary.internal_resistance = -1\n",
        ["run"],
        "line 2: batteries.secondary.internal_resistance must be >= 0",
    ),
    # a zero bin count would divide by zero, and a negative one would
    # build a map without bins
    **{
        f"run-{key}={value}": (f"[control]\n{key} = {value}\n", ["run"], f"line 2: control.{key}")
        for key, value in (("ff_gap_bins", "-2"), ("ff_lat_bins", "0"))
    },
    # a map maximum <= 0 would leave every offset outside the map, which
    # switched the feedforward off without a word
    **{
        f"run-{key}={value}": (
            f"[sim]\nduration = 2\n[control]\n{key} = {value}\n",
            ["run"],
            f"error: line 4: control.{key} must be positive",
        )
        for key, value in (("ff_lat_max", "-1"), ("ff_gap_max", "0"))
    },
    "sweep-range_not_numbers": (
        "", ["sweep", "--param", "docking.mu", "--range", "a:b:3"], "a:b:3"
    ),
    # a sweep with no points, or no worker to run them
    "sweep-range_empty": (
        "", ["sweep", "--param", "docking.mu", "--range", ""], "error: --range holds no values"
    ),
    "sweep-range_commas": (
        "", ["sweep", "--param", "docking.mu", "--range", ","], "error: --range holds no values"
    ),
    "sweep-workers=0": (
        "",
        ["sweep", "--param", "docking.mu", "--range", "0.5", "--workers", "0"],
        "error: --workers must be >= 1, got 0",
    ),
    "analyze-curve_csv_directory": (
        None, ["analyze", "--m0", "0.63", "--phi", "0.5", "--curve-csv", "."], "directory"
    ),
    **{
        f"analyze-{flag}=nan": (
            None, ["analyze", "--m0", "0.63", "--phi", "0.5", f"--{flag}", "nan"], "nan"
        )
        for flag in ("m0", "phi", "gamma", "k-p", "observed-time")
    },
}


@pytest.mark.parametrize("text,argv,word", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_config_error_in_one_line(tmp_path, monkeypatch, capsys, text, argv, word):
    monkeypatch.chdir(tmp_path)
    for name, content in BAD_MAPS.items():
        (tmp_path / name).write_text(content)
    if text is not None:
        (tmp_path / "bad.cfg").write_text(text)
        argv = [argv[0], "--scenario", "bad.cfg", "--out", "out", *argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert word in err


@pytest.mark.parametrize("fleet_size,code", [(0, 0), (1, 2)])
def test_host_thrust_rule_counts_the_pair_only_with_a_fleet(tmp_path, capsys, fleet_size, code):
    # 10 N lifts the 0.82 kg host alone, but not the 1.14 kg docked pair
    (tmp_path / "thrust.cfg").write_text(
        f"[mission]\nfleet_size = {fleet_size}\n[vehicles]\nmain.max_thrust = 10\n"
        "[sim]\nduration = 2\n"
    )
    assert main(["run", "--scenario", str(tmp_path / "thrust.cfg"), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: line 4: vehicles.main.max_thrust must exceed")
    else:
        # the host holds its 1.5 m hover to the end of the run
        last = read_telemetry(tmp_path / "thrust_telemetry.csv")[-1]
        assert last.time == pytest.approx(2.0, abs=0.011)
        assert last.main_z == pytest.approx(1.5, abs=0.01)


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FLYBAT_OUT", str(tmp_path / "envout"))
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg", duration=20.0, fleet_size=0)
    code = main(["run", "--scenario", str(scenario)])
    assert code == 0
    assert (tmp_path / "envout" / "scaled_telemetry.csv").exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_reference_design(tmp_path, capsys):
    code = main(["analyze", "--m0", "0.63", "--phi", "0.6666666666666666"])
    assert code == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(None, 1) for line in out.strip().splitlines() if " " in line
    )
    assert float(values["battery_mass_kg"]) == pytest.approx(1.26, abs=1e-9)
    assert float(values["total_mass_kg"]) == pytest.approx(1.89, abs=1e-9)
    assert float(values["normalized_time"]) == pytest.approx(1.0, abs=1e-12)


def test_analyze_zero_phi(capsys):
    code = main(["analyze", "--m0", "0.63", "--phi", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "flight_time_s       0" in out


def test_analyze_rejects_phi_out_of_range(capsys):
    assert main(["analyze", "--m0", "0.63", "--phi", "1.0"]) == 2
    assert main(["analyze", "--m0", "0.63", "--phi", "-0.2"]) == 2


def test_analyze_curve_csv_peak(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code = main(
        [
            "analyze", "--m0", "0.63", "--phi", "0.2317",
            "--observed-time", "720", "--curve-csv", str(path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "optimal_time_s" in out
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "phi,normalized_time"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 512
    best_phi = max(rows, key=lambda r: r[1])[0]
    assert best_phi == pytest.approx(2.0 / 3.0, abs=0.002)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_contact_failure_probability_monotone(tmp_path):
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg", duration=150.0, pack_scale=0.05)
    code = main(
        [
            "sweep",
            "--scenario", str(scenario),
            "--param", "docking.contact_failure_probability",
            "--range", "0,0.5,1.0",
            "--out", str(tmp_path),
            "--workers", "3",
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep_docking_contact_failure_probability.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_ext = header.index("extension_factor")
    ext = [float(ln.split(",")[i_ext]) for ln in lines[1:]]
    assert len(ext) == 3
    assert ext[0] >= ext[1] >= ext[2]


# a draw-key sweep is one group; any other sweep runs a group per point
# on the thread pool. The contact succeeds at p = 0 and fails at p = 0.5
# (seed 3) and 1; the scenario's p is 0.
@pytest.mark.parametrize(
    "param, values, failures",
    [
        ("docking.contact_failure_probability", "0,0.5,1.0", ["0", "1", "1"]),
        ("mission.turnaround_delay", "0,60,600", ["0", "0", "0"]),
    ],
    ids=["draw_key", "per_point"],
)
def test_sweep_csv_identical_across_worker_counts(tmp_path, param, values, failures):
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg", duration=40.0, pack_scale=0.05)
    csvs = []
    for workers in ("1", "3"):
        out = tmp_path / f"workers_{workers}"
        code = main(
            [
                "sweep",
                "--scenario", str(scenario),
                "--param", param,
                "--range", values,
                "--out", str(out),
                "--workers", workers,
            ]
        )
        assert code == 0
        csvs.append((out / f"sweep_{param.replace('.', '_')}.csv").read_bytes())
    assert csvs[0] == csvs[1]
    lines = csvs[0].decode().splitlines()
    i_fail = lines[0].split(",").index("contact_failures")
    assert [ln.split(",")[i_fail] for ln in lines[1:]] == failures


def test_sweep_turnaround_delay_monotone(tmp_path):
    # single reusable unit: a longer ground turnaround can only reduce
    # the achievable extension
    scenario = write_scaled_scenario(
        tmp_path / "scaled.cfg",
        fleet_size=1,
        duration=250.0,
        pack_scale=0.05,
    )
    code = main(
        [
            "sweep",
            "--scenario", str(scenario),
            "--param", "mission.turnaround_delay",
            "--range", "0,60,600",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep_mission_turnaround_delay.csv").read_text().splitlines()
    header = lines[0].split(",")
    i_ext = header.index("extension_factor")
    ext = [float(ln.split(",")[i_ext]) for ln in lines[1:]]
    assert len(ext) == 3
    assert ext[0] >= ext[1] >= ext[2]


def test_sweep_unknown_parameter_rejected(tmp_path, capsys):
    scenario = write_scaled_scenario(tmp_path / "scaled.cfg")
    code = main(
        [
            "sweep",
            "--scenario", str(scenario),
            "--param", "docking.stickiness",
            "--range", "0,1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "stickiness" in capsys.readouterr().err


def test_sweep_error_names_the_failing_point(tmp_path, capsys):
    scenario = tmp_path / "short.cfg"
    scenario.write_text("[mission]\nfleet_size = 0\n[sim]\nduration = 1\n")
    code = main(
        [
            "sweep",
            "--scenario", str(scenario),
            "--param", "batteries.primary.capacity_ah",
            "--range", "2.2,0.001",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: batteries.primary.capacity_ah = 0.001: no k_p >= 1 reaches"), err


def test_sweep_numeric_failure_names_the_point_and_exits_3(tmp_path, capsys):
    scenario = write_scaled_scenario(
        tmp_path / "unstable.cfg",
        duration=30.0,
        extra="\n[control]\natt_wn = 100000000.0\n",
    )
    argv = ["sweep", "--scenario", str(scenario), "--param", "docking.mu", "--range", "0.5"]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: docking.mu = 0.5: non-finite value at step"), err


def test_numerics_error_pickles_with_its_point(tmp_path):
    # a process pool sends a failed point's error back pickled
    from flybat.cli import _sweep_group
    from flybat.engine import SimNumericsError
    from flybat.scenario import load_scenario, set_scenario_value

    plain = pickle.loads(pickle.dumps(SimNumericsError(5, "host dynamics")))
    assert type(plain) is SimNumericsError
    assert (plain.step_index, plain.subsystem) == (5, "host dynamics")
    assert str(plain) == "non-finite value at step 5 in host dynamics"

    scenario = write_scaled_scenario(
        tmp_path / "unstable.cfg",
        duration=30.0,
        extra="\n[control]\natt_wn = 100000000.0\n",
    )
    with pytest.raises(SimNumericsError) as info:
        sc = load_scenario(scenario)
        set_scenario_value(sc, "docking.mu", "0.5")
        _sweep_group([sc], "docking.mu", ["0.5"], [0])
    exc = info.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is SimNumericsError
    assert (back.step_index, back.subsystem) == (exc.step_index, exc.subsystem)
    assert back.args == exc.args
    assert str(back).startswith("docking.mu = 0.5: non-finite value at step")


def _one_mission_per_point(path, param, values):
    """The sweep CSV built from one independent run_mission per point, and
    the contact draw outcomes of each point's mission."""
    from flybat.cli import SWEEP_METRICS
    from flybat.mission import run_mission
    from flybat.scenario import load_scenario, set_scenario_value

    lines = ["value," + ",".join(SWEEP_METRICS)]
    outcomes = []
    for v in values:
        sc = load_scenario(path)
        set_scenario_value(sc, param, v)
        result = run_mission(None, sc)
        s = result.summary
        lines.append(v + "," + ",".join(f"{getattr(s, k):.9g}" for k in SWEEP_METRICS))
        outcomes.append(contact_outcomes(result.world))
    return ("\n".join(lines) + "\n").encode(), outcomes


def _count_worlds(monkeypatch):
    """Count the worlds built from scratch (not copies) from now on."""
    from flybat.engine import World

    built = []
    init = World.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(World, "__init__", counting)
    return built


def _count_world_copies(monkeypatch):
    """Record every world deep-copied from now on as (its step index,
    whether a World.step was running, the phases of its active units)."""
    import copy

    from flybat.engine import World

    copies = []
    deepcopy = copy.deepcopy
    step = World.step
    stepping = [0]

    def counting(x, *args):
        if isinstance(x, World):
            copies.append((x.step_index, stepping[0] > 0, {u.phase for u in x.active_units}))
        return deepcopy(x, *args)

    def counted_step(self):
        stepping[0] += 1
        try:
            step(self)
        finally:
            stepping[0] -= 1

    monkeypatch.setattr(copy, "deepcopy", counting)
    monkeypatch.setattr(World, "step", counted_step)
    return copies


# p = 0 and 1 with the 0.52 first draw of seed 1000 between them; seeds
# 1000 and 1001 make their first contact at p = 0.5, 1002 and 1003 fail it.
# Each sweep splits three times, and one split flies two points.
@pytest.mark.parametrize(
    "param, values, copies",
    [
        ("docking.contact_failure_probability", ["0", "0.3", "0.55", "1"], 24),
        ("sim.seed", ["1000", "1001", "1002", "1003"], 20),
    ],
    ids=["probability", "seed"],
)
def test_draw_key_sweep_matches_one_mission_per_point(
    tmp_path, monkeypatch, param, values, copies
):
    path = tmp_path / "draws.cfg"
    path.write_text(DRAWS_CFG)
    expected, outcomes = _one_mission_per_point(path, param, values)
    # each mission draws three or four times, and the first draws disagree
    assert all(len(o) >= 3 for o in outcomes)
    assert {o[0] for o in outcomes} == {True, False}
    built = _count_worlds(monkeypatch)
    copied = _count_world_copies(monkeypatch)
    argv = ["sweep", "--scenario", str(path), "--param", param, "--range", ",".join(values)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"sweep_{param.replace('.', '_')}.csv").read_bytes() == expected
    # the points shared one world built from scratch. A world that flies
    # more than one point is copied as a checkpoint only in a draw window
    # (a unit descending or falling), on its first step and every 500
    # steps after: four times in each ~1.6 s window up to a capture. Each
    # split is copied once from the checkpoint it is cut from, and the
    # two-point split copies itself once more on its first step, which
    # lies in its draw's window
    assert len(built) == 1
    assert len(copied) == copies
    # a draw comes only on a free-fall impact, and FREE_FALL only follows
    # DESCEND: every copy, a checkpoint or a split cut from one, is of a
    # world between two steps with a unit descending or falling
    for step_index, stepping, phases in copied:
        assert not stepping, step_index
        assert phases & {DESCEND, FREE_FALL}, (step_index, phases)


# a 0.02 m approach gap, the drop height too: the first unit centers
# under the host with its legs 0.022 m below the platform surface, inside
# the gap's 0.05 m tolerance, so it enters DESCEND, then drops and draws
# on the next step, the first and only step of its draw window
WINDOW_OPENS_ON_DRAW = """
[docking]
hover_above_gap = 0.02
drop_height = 0.02
descent_rate = 1.0
"""


def test_sweep_whose_draws_come_on_their_windows_first_step(tmp_path, monkeypatch):
    path = tmp_path / "draws.cfg"
    path.write_text(DRAWS_CFG + WINDOW_OPENS_ON_DRAW)
    param, values = "docking.contact_failure_probability", ["0", "0.55", "1"]
    expected, outcomes = _one_mission_per_point(path, param, values)
    assert {o[0] for o in outcomes} == {True, False}
    copied = _count_world_copies(monkeypatch)
    argv = ["sweep", "--scenario", str(path), "--param", param, "--range", ",".join(values)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep_docking_contact_failure_probability.csv").read_bytes() == expected
    # each window is its draw's own step, begun with the unit in DESCEND:
    # the lead world's first draw splits 0.55 and 1 off at step 5,791,
    # and their world splits again at its next draw, at step 12,035. The
    # first split's world is copied as the checkpoint, as the split and as
    # the split's own first checkpoint; the second split flies one point
    # and takes no checkpoint
    first, second = (5791, False, {DESCEND}), (12035, False, {DESCEND})
    assert copied == [first] * 3 + [second] * 2


def test_sweep_over_other_keys_builds_one_world_per_point(tmp_path, monkeypatch):
    path = tmp_path / "draws.cfg"
    path.write_text(DRAWS_CFG.replace("duration = 32", "duration = 2"))
    built = _count_worlds(monkeypatch)
    argv = ["sweep", "--scenario", str(path), "--param", "docking.mu", "--range", "0.3,0.4,0.5"]
    assert main([*argv, "--out", str(tmp_path), "--workers", "1"]) == 0
    assert len(built) == 3


def test_failed_sweep_point_starts_no_further_mission(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "short.cfg"
    scenario.write_text("[mission]\nfleet_size = 0\n[sim]\nduration = 1\n")
    built = _count_worlds(monkeypatch)
    argv = ["sweep", "--scenario", str(scenario), "--param", "batteries.primary.capacity_ah"]
    out = tmp_path / "out"
    for _ in range(6):
        code = main([*argv, "--range", "0.001,2.2,2.2,2.2", "--workers", "1", "--out", str(out)])
        assert code == 2
        assert "error: batteries.primary.capacity_ah = 0.001: " in capsys.readouterr().err
    assert len(built) == 6


@pytest.mark.parametrize("case", [0, 5])
def test_benchmark_sweep_matches_its_reference(tmp_path, case):
    # the benchmark's sweep case as its worker runs it, in a fresh process
    # and with its --workers argv; the reference file is only read
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    argv = ["--workload", "sweep", "--case", str(case), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, str(perfbench / "worker.py"), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["error"] is None
    references = json.loads((perfbench / "references.json").read_text(encoding="utf-8"))
    assert result["digests"] == references["sweep"][str(case)]


def test_sweep_range_forms(tmp_path):
    from flybat.cli import _parse_range

    assert _parse_range("0:1:3") == ["0", "0.5", "1"]
    assert _parse_range("1,2,3") == ["1", "2", "3"]
    assert _parse_range("5:9:1") == ["5"]
    assert _parse_range("") == []


# ---------------------------------------------------------------------------
# the runtime needs only the standard library
# ---------------------------------------------------------------------------

# four units, unit 0 docked on a 0.002 Ah secondary: it undocks, and
# unit 1's capture at 7.95 s makes the run's first contact draw
_CHURN = """\
[batteries]
secondary.capacity_ah = 0.002
[docking]
contact_failure_probability = 0.3
home_radius = 0.5
[mission]
fleet_size = 4
start_docked = true
[sim]
seed = 1000
duration = 9
"""

_NUMPY_FREE_RUNS = """
import sys
from flybat import docking
from flybat.cli import main

churn, out = sys.argv[1:]
draws = []
_random = docking.Pcg64.random
docking.Pcg64.random = lambda rng: draws.append(1) or _random(rng)
sweep = ["--param", "docking.contact_failure_probability", "--range", "0.1,0.5"]
for argv in (
    ["run", "--scenario", "paper_demo", "--duration", "2"],
    ["run", "--scenario", churn],
    ["sweep", "--scenario", churn, *sweep, "--workers", "2"],
):
    if main([*argv, "--out", out]) != 0:
        sys.exit(f"flybat {argv[0]} failed")
if len(draws) != 3:
    sys.exit(f"expected 3 contact draws, got {len(draws)}")
if "numpy" in sys.modules:
    sys.exit("numpy was imported")
"""


def test_runs_and_sweeps_never_import_numpy(tmp_path):
    churn = tmp_path / "churn.cfg"
    churn.write_text(_CHURN)
    run_optimized(_NUMPY_FREE_RUNS, str(churn), str(tmp_path / "out"))
