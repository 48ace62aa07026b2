"""The golden prefixes of the benchmark give the telemetry and summary
bytes stored in `perfbench/references.json`. Each case is built the way
`perfbench/worker.py` builds a timed mission, in this process; the
reference file is only read."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from flybat.engine import World
from flybat.mission import summarize
from flybat.scenario import bundled_scenario, parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _perfbench_workloads()
REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))
CASES = [("solo_hover", 0), ("paper_demo", 0), ("dock_churn", 0), ("dock_churn", 10)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload,case", CASES, ids=[f"{w}-{c}" for w, c in CASES])
def test_prefix_bytes_match_benchmark_references(tmp_path, workload, case):
    spec = WL.WORKLOADS[workload]
    if spec["scenario"] is None:
        text = WL.dock_churn_text(case, spec["duration"], spec["start_docked"])
        scenario = parse_scenario(text, name=f"{workload}_{case}")
    else:
        scenario = bundled_scenario(spec["scenario"])
    scenario.sim.duration = spec["duration"]
    scenario.validate()
    telemetry = tmp_path / "telemetry.csv"
    world = World(scenario, telemetry_path=str(telemetry))
    log = world.run(scenario.sim.duration)
    summary_csv = summarize(log, termination_reason=world.termination_reason).to_csv()
    ref = REFERENCES[workload][str(case)]
    assert _sha256(telemetry.read_bytes()) == ref["telemetry_sha256"]
    assert _sha256(summary_csv.encode()) == ref["summary_sha256"]
