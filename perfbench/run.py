"""flybat benchmark: timed missions per workload, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload paper_demo --full

Runs missions of one workload, each in a fresh worker process (so the
k_p calibration cache starts cold), until the next one would end after
--seconds. Every mission's outputs are compared with the stored
reference digests. Human-readable lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

With --trace 0 the metrics are the end-to-end ones, measured with
tracing off. With --trace 1 missions alternate between untraced and
traced; the per-layer metrics are means per traced mission (per sweep
for `sweep`), `trace.overhead_share` compares the two kinds' steps/s,
and the aggregates and phase spans are written under `.perfbench_out/`.

--full runs the whole golden paper_demo mission once (about two and a
half minutes) and also checks that its extension factor lies in
[4.0, 5.5]. The timed runs use prefixes, so they cannot check it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
WORKER = HERE / "worker.py"

import workloads as wl  # noqa: E402  (sibling module; HERE is on sys.path)

EXIT_NO_PROGRAM = 3
MIN_MISSIONS = 3
HARD_LIMIT_S = 150.0
FULL_LIMIT_S = 1200.0
EXTENSION_RANGE = (4.0, 5.5)
# worker.gauge_burst() seconds at the reference machine speed (the
# typical figure on a 2-core x86-64 box, Python 3.11); every timing is
# scaled to that speed by the bursts measured during its own phase.
# flybat's times follow the gauge's to a power below 1: fitted over 90
# missions of the three mission workloads on that machine, 0.76 to 0.89.
GAUGE_REFERENCE_S = 0.0013
GAUGE_EXPONENT = 0.8

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "missions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}

# per-layer metric -> unit; calls and busy time are run phase unless named setup
PER_LAYER = {
    "engine.step.calls": "count",
    "engine.step.busy_s": "s",
    "engine.step.self_s": "s",
    "engine.step.accounted_share": "share",
    "engine.repeat_step_share": "share",
    "engine.airborne_unit_steps": "count",
    "dynamics.rk4_flat.calls": "count",
    "dynamics.rk4_flat.busy_s": "s",
    "control.position_flat.calls": "count",
    "control.position_flat.busy_s": "s",
    "control.attitude_flat.calls": "count",
    "control.attitude_flat.busy_s": "s",
    "control.feedforward_lookup.calls": "count",
    "control.feedforward_lookup.busy_s": "s",
    "aero.downwash_force.calls": "count",
    "aero.downwash_force.busy_s": "s",
    "aero.align_torque.calls": "count",
    "aero.align_torque.busy_s": "s",
    "powertrain.solve_bus.calls": "count",
    "powertrain.solve_bus.busy_s": "s",
    "powertrain.discharge.calls": "count",
    "powertrain.discharge.busy_s": "s",
    "powertrain.solve_kp_for_endurance.busy_s": "s",
    "scenario.build_world_inputs.busy_s": "s",
    "docking.fsm_step.calls": "count",
    "docking.fsm_step.busy_s": "s",
    "docking.capture_check.calls": "count",
    "docking.electrical_ratio": "share",
    "telemetry.write_row.calls": "count",
    "telemetry.write_row.busy_s": "s",
    "telemetry.bytes": "bytes",
    "mission.summarize.busy_s": "s",
    "engine.summary_totals.busy_s": "s",
    "cli.run_mission.wall_s": "s",
    "cli.run_mission.wait_s": "s",
    "trace.overhead_share": "share",
}

# run-phase functions called from World.step; their busy time plus the
# step's self time accounts for the step's busy time
STEP_CHILDREN = (
    "dynamics.rk4_flat",
    "control.position_flat",
    "control.attitude_flat",
    "control.feedforward_lookup",
    "aero.downwash_force",
    "aero.align_torque",
    "powertrain.solve_bus",
    "powertrain.discharge",
    "docking.fsm_step",
    "docking.capture_check",
    "telemetry.write_row",
)
SETUP_ONLY = ("powertrain.solve_kp_for_endurance", "scenario.build_world_inputs")
SUMMARY_ONLY = ("mission.summarize", "engine.summary_totals")


class NoProgram(RuntimeError):
    """flybat cannot be imported from this checkout."""


def run_worker(workload: str, case: int, out: Path, *, probe=False, trace=False, full=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--case", str(case), "--out", str(out)]
    for flag, on in (("--probe", probe), ("--trace", trace), ("--full", full)):
        if on:
            cmd.append(flag)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=FULL_LIMIT_S if full else HARD_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return {"error": f"worker timed out after {exc.timeout:.0f} s", "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"error": f"worker exited {proc.returncode}: {err[-1] if err else ''}", "wall_s": wall}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def check(workload: str, case: int, result: dict, references: dict, full: bool) -> str | None:
    """Why a mission's outputs are wrong, or None if they match."""
    if result.get("error"):
        return result["error"]
    key = f"{workload}_full" if full else workload
    expected = references.get(key, {}).get(str(case))
    if expected is None:
        return f"no reference for {key} case {case}"
    for name, digest in expected.items():
        if result["digests"].get(name) != digest:
            return f"{name} differs from the reference"
    if full:
        lo, hi = EXTENSION_RANGE
        if not lo <= result["extension_factor"] <= hi:
            return f"extension factor {result['extension_factor']:.4f} outside [{lo}, {hi}]"
    return None


def _gauge(m: dict, phase: str, scaled: bool) -> float:
    """Factor that turns a timing of the phase into seconds at the
    reference machine speed."""
    return (GAUGE_REFERENCE_S / m["gauge_s"][phase]) ** GAUGE_EXPONENT if scaled else 1.0


def end_to_end(kind: str, missions: list[dict], probes: list[dict], scaled: bool = True):
    """Metric -> (value, sample count) over the untraced missions; with
    scaled, timings are first brought to the reference machine speed."""
    ok = [m for m in missions if not m.get("error")]
    if not ok:
        raise RuntimeError("no mission completed")
    setups = [m["setup_s"] * _gauge(m, "setup", scaled) for m in (probes if kind == "sweep" else ok)]
    gauges = [_gauge(m, "run", scaled) for m in ok]
    runs = [m["run_s"] * g for m, g in zip(ok, gauges)]
    busy = runs if kind == "sweep" else [
        s + r + m["summary_s"] * g for m, g, r, s in zip(ok, gauges, runs, setups)
    ]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "steps_per_s": (sum(m["steps"] for m in ok) / sum(runs), len(ok)),
        "missions_per_s": (sum(m["points"] for m in ok) / sum(busy), len(ok)),
        "peak_rss_mb": (own + max(m["rss_mb"] for m in missions if "rss_mb" in m), len(missions)),
        "pass_share": (sum(1 for m in missions if m["passed"]) / len(missions), len(missions)),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, int]]:
    """Metric -> (mean per traced mission, traced mission count)."""
    n = len(traced)
    tables: dict[str, dict[str, list[int]]] = {}
    counts: dict[str, int] = {}
    for m in traced:
        tr = m["trace"]
        for phase, table in tr["tables"].items():
            merged = tables.setdefault(phase, {})
            for name, rec in table.items():
                acc = merged.setdefault(name, [0, 0, 0])
                for k in range(3):
                    acc[k] += rec[k]
        for name, c in tr["counts"].items():
            counts[name] = counts.get(name, 0) + c
        counts["telemetry.bytes"] = counts.get("telemetry.bytes", 0) + m.get("telemetry_bytes", 0)

    def rec(name):
        phase = "setup" if name in SETUP_ONLY else "summary" if name in SUMMARY_ONLY else "run"
        return tables.get(phase, {}).get(name, [0, 0, 0])

    out: dict[str, float] = {}
    for name in ("engine.step", *STEP_CHILDREN):
        calls, busy, _ = rec(name)
        out[f"{name}.calls"] = calls / n
        out[f"{name}.busy_s"] = busy / 1e9 / n
    step_calls, step_busy, step_self = rec("engine.step")
    out["engine.step.self_s"] = step_self / 1e9 / n
    children = sum(rec(name)[1] for name in STEP_CHILDREN)
    out["engine.step.accounted_share"] = (step_self + children) / step_busy if step_busy else 1.0
    out["engine.repeat_step_share"] = counts.get("engine.repeat_steps", 0) / step_calls if step_calls else 0.0
    out["engine.airborne_unit_steps"] = counts.get("engine.airborne_unit_steps", 0) / n
    attempts = rec("docking.capture_check")[0]
    out["docking.electrical_ratio"] = counts.get("docking.electrical", 0) / attempts if attempts else 0.0
    for name in SETUP_ONLY + SUMMARY_ONLY:
        out[f"{name}.busy_s"] = rec(name)[1] / 1e9 / n
    out["telemetry.bytes"] = (counts["telemetry.bytes"] + counts.get("telemetry.memory_bytes", 0)) / n
    out["cli.run_mission.wall_s"] = counts.get("cli.run_mission.wall_ns", 0) / 1e9 / n
    out["cli.run_mission.wait_s"] = counts.get("cli.run_mission.wait_ns", 0) / 1e9 / n

    def rate(ms):
        return sum(m["steps"] for m in ms) / sum(m["run_s"] * _gauge(m, "run", True) for m in ms)

    out["trace.overhead_share"] = 1.0 - rate(traced) / rate(untraced)
    return {name: (out[name], n) for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool, full: bool, work: Path):
    spec = wl.WORKLOADS[workload]
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    missions: list[dict] = []
    probes: list[dict] = []
    start = time.perf_counter()
    index = 0
    while True:
        case = wl.case_for(workload, seed, index)
        if spec["kind"] == "sweep" and not trace:
            probe = run_worker(workload, case, work, probe=True)
            if probe.get("error"):
                raise RuntimeError(f"set-up probe failed: {probe['error']}")
            probes.append(probe)
        traced = trace and index % 2 == 1
        result = run_worker(workload, case, work, trace=traced, full=full)
        result["case"] = case
        result["traced"] = traced
        problem = check(workload, case, result, references, full)
        result["passed"] = problem is None
        if problem:
            print(f"FAIL {workload} case {case}: {problem}", file=sys.stderr)
        missions.append(result)
        index += 1
        elapsed = time.perf_counter() - start
        if full:
            break
        pair_done = not trace or index % 2 == 0
        per_mission = elapsed / index
        if index >= MIN_MISSIONS and pair_done and elapsed + per_mission * (2 if trace else 1) > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            break
    return missions, probes


def report(workload: str, metrics: dict, units: dict[str, str], raw: dict | None = None) -> None:
    for name, (value, n) in metrics.items():
        line = f"{workload:<11} {name:<42} {value:>16.6g} {units[name]:<6} n={n}"
        if raw is not None:
            line += f"  (as measured, unscaled: {raw[name][0]:.6g})"
        print(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="flybat benchmark")
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--full", action="store_true", help="run the whole paper_demo mission once")
    args = p.parse_args(argv)
    if args.full and (args.workload != "paper_demo" or args.trace):
        p.error("--full applies to paper_demo with --trace 0 only")
    if not (ROOT / "src" / "flybat" / "__init__.py").is_file():
        print(f"error: no flybat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    raw = None
    try:
        missions, probes = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.full, work)
        untraced = [m for m in missions if not m["traced"]]
        if args.trace:
            traced = [m for m in missions if m["traced"] and not m.get("error")]
            if not traced:
                raise RuntimeError("no traced mission completed")
            metrics = per_layer(traced, [m for m in untraced if not m.get("error")])
            units = PER_LAYER
            dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            dump.write_text(json.dumps([m["trace"] for m in traced]), encoding="utf-8")
            print(f"trace aggregates and spans: {dump.relative_to(ROOT)}")
        else:
            kind = wl.WORKLOADS[args.workload]["kind"]
            metrics = end_to_end(kind, untraced, probes)
            raw = end_to_end(kind, untraced, probes, scaled=False)
            units = END_TO_END
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args.workload, metrics, units, raw)
    failed = sum(1 for m in missions if not m["passed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(missions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
