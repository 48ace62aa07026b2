"""Tests of the benchmark itself (not of flybat):

    python3 -m pytest perfbench/tests -q

The last test runs the whole golden paper_demo mission (minutes).
"""

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _churn_text(seed, index):
    spec = wl.WORKLOADS["dock_churn"]
    case = wl.case_for("dock_churn", seed, index)
    return wl.dock_churn_text(case, spec["duration"], spec["start_docked"])


def test_same_seed_gives_identical_dock_churn_text():
    from flybat.scenario import parse_scenario

    for seed in (0, 7, 11, 123456789):
        for index in range(3):
            text = _churn_text(seed, index)
            assert text == _churn_text(seed, index)
            scenario = parse_scenario(text)
            assert scenario.docking.contact_failure_probability == 0.3
            assert scenario.mission.fleet_size == 4
    assert len({wl.dock_churn_text(case, 31.0, True) for case in range(wl.CASES)}) == wl.CASES


def _flybat_bindings():
    """Every attribute of every loaded flybat module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "flybat" or name.startswith("flybat."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_binding_and_changes_no_output():
    from flybat.scenario import parse_scenario

    for mod in ("flybat.cli", "flybat.mission", "flybat.engine"):
        importlib.import_module(mod)
    import flybat.mission as fm

    def mission():
        scenario = parse_scenario(wl.dock_churn_text(0, 2.0, False), name="dock_churn")
        result = fm.run_mission(None, scenario, keep_rows=True)
        return result.world.writer.rows

    before = _flybat_bindings()
    plain = mission()
    tracer = Tracer()
    with tracer:
        traced = mission()
        assert _flybat_bindings() != before
    after = _flybat_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert traced == plain
    snap = tracer.snapshot()
    assert snap["tables"]["run"]["engine.step"][0] == 2000
    assert snap["tables"]["run"]["docking.fsm_step"][0] > 0
    assert snap["tables"]["setup"]["scenario.build_world_inputs"][0] == 1
    assert {span[1] for span in snap["spans"]} == {"setup", "run", "summary"}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _result(_run_bench("--workload", "solo_hover", "--seed", "3", "--seconds", "1", "--trace", str(trace)))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert abs(result["metrics"]["engine.step.accounted_share"]["value"] - 1.0) < 1e-9


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "solo_hover", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_full_paper_demo_matches_reference_and_extension_window():
    result = _result(_run_bench("--workload", "paper_demo", "--full"))
    assert result["correct"] is True and result["attempted"] == 1
