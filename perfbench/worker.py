"""One benchmark mission, sweep or set-up probe in this fresh process.

Started by run.py (and make_references.py) as

    python3 perfbench/worker.py --workload NAME --case N --out DIR
        [--probe | --trace | --full]

It imports flybat from the checkout's `src/`, so the k_p calibration
cache starts cold, and prints one JSON line with phase timings, output
digests, peak RSS and (with --trace) the tracer's aggregates. A mission
that raises reports the error in that line. Exit code 3 means flybat
could not be imported at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXIT_NO_PROGRAM = 3
GAUGE_BURST = 3000  # iterations; about 1.3 ms on the reference machine
GAUGE_PERIOD_S = 0.025

import workloads as wl  # noqa: E402  (sibling module; HERE is on sys.path)


def _gauge_step(s, k):
    return (s[1] * k + s[0], s[2] - k * s[0], math.sqrt(abs(s[0] * s[1]) + 1.0))


def gauge_burst(n: int = GAUGE_BURST) -> float:
    """Seconds for a fixed pure-Python float workload that shares no code
    with flybat: how fast the machine runs this interpreter right now."""
    t0 = time.perf_counter()
    s = (0.1, 0.2, 0.3)
    for i in range(n):
        s = _gauge_step(s, 1e-3 * (i & 7))
    return time.perf_counter() - t0


class SpeedGauge:
    """Times a short gauge burst every GAUGE_PERIOD_S on a daemon thread
    while the mission runs, so the bursts sample the machine's speed all
    through each phase; this shared machine's speed drifts by tens of
    per cent within a minute. The bursts take about 5% of the
    interpreter, the same share for every version of flybat."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-gauge", daemon=True)

    def _sample(self):
        while not self._stop.wait(GAUGE_PERIOD_S):
            self.samples.append((time.perf_counter(), gauge_burst()))

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean(self, t0: float, t1: float) -> float:
        """Mean burst time over bursts started in [t0, t1] (all if none)."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        return statistics.mean(inside or [d for _, d in self.samples] or [gauge_burst()])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _scenario(workload: str, case: int, out: Path):
    """Parse the workload's scenario the way the CLI does; returns the
    Scenario and the path of the file it was read from (None if bundled)."""
    from flybat.scenario import bundled_scenario, load_scenario

    spec = wl.WORKLOADS[workload]
    if spec["scenario"] is not None:
        return bundled_scenario(spec["scenario"]), None
    path = out / f"{workload}_{case}.cfg"
    text = wl.dock_churn_text(case, spec["duration"], spec["start_docked"])
    path.write_text(text, encoding="utf-8")
    return load_scenario(path), path


def run_mission(workload: str, case: int, out: Path, full: bool) -> dict:
    """Mirror of flybat.mission.run_mission with each phase timed."""
    import flybat.mission as fm
    from flybat.engine import World

    spec = wl.WORKLOADS[workload]
    telemetry = out / f"{workload}_{case}_telemetry.csv"
    with SpeedGauge() as gauge:
        t0 = time.perf_counter()
        scenario, _ = _scenario(workload, case, out)
        if not full:
            scenario.sim.duration = spec["duration"]
            scenario.validate()
        world = World(scenario, telemetry_path=str(telemetry))
        t1 = time.perf_counter()
        log = world.run(scenario.sim.duration)
        t2 = time.perf_counter()
        summary = fm.summarize(log, termination_reason=world.termination_reason)
        summary_csv = summary.to_csv()
        t3 = time.perf_counter()
    data = telemetry.read_bytes()
    telemetry.unlink()
    return {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "summary_s": t3 - t2,
        "gauge_s": {"setup": gauge.mean(t0, t1), "run": gauge.mean(t1, t3)},
        "steps": world.step_index,
        "points": 1,
        "telemetry_bytes": len(data),
        "digests": {
            "telemetry_sha256": _sha256(data),
            "summary_sha256": _sha256(summary_csv.encode()),
        },
        "extension_factor": summary.extension_factor,
    }


def run_sweep(workload: str, case: int, out: Path) -> dict:
    """`flybat sweep` through flybat.cli.main, as a user would call it."""
    import flybat.cli as cli

    spec = wl.WORKLOADS[workload]
    _, cfg = _scenario(workload, case, out)
    argv = [
        "sweep", "--scenario", str(cfg), "--param", wl.SWEEP_PARAM,
        "--range", wl.SWEEP_VALUES, "--workers", str(len(os.sched_getaffinity(0))), "--out", str(out),
    ]
    with SpeedGauge() as gauge, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
    if rc != 0:
        raise RuntimeError(f"flybat sweep exited with {rc}")
    csv_path = out / f"sweep_{wl.SWEEP_PARAM.replace('.', '_')}.csv"
    data = csv_path.read_bytes()
    csv_path.unlink()
    cfg.unlink()
    lines = data.decode().splitlines()
    col = lines[0].split(",").index("total_time_s")
    steps = sum(round(float(line.split(",")[col]) / wl.DT) for line in lines[1:])
    return {
        "run_s": t1 - t0,
        "gauge_s": {"run": gauge.mean(t0, t1)},
        "steps": steps,
        "points": len(lines) - 1,
        "digests": {"sweep_csv_sha256": _sha256(data)},
    }


def run_probe(workload: str, case: int, out: Path) -> dict:
    """Cold set-up only: parse the scenario and construct World()."""
    from flybat.engine import World

    with SpeedGauge() as gauge:
        t0 = time.perf_counter()
        scenario, cfg = _scenario(workload, case, out)
        World(scenario)
        t1 = time.perf_counter()
    if cfg is not None:
        cfg.unlink()
    return {"setup_s": t1 - t0, "gauge_s": {"setup": gauge.mean(t0, t1)}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--case", type=int, required=True)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--probe", action="store_true", help="time the cold set-up only")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--full", action="store_true", help="whole mission, not the timed prefix")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import flybat  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import flybat from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {"error": None}
    try:
        if args.probe:
            result.update(run_probe(args.workload, args.case, args.out))
        elif wl.WORKLOADS[args.workload]["kind"] == "sweep":
            result.update(run_sweep(args.workload, args.case, args.out))
        else:
            result.update(run_mission(args.workload, args.case, args.out, args.full))
    except Exception as exc:  # reported as a failed mission, not a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    result["rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
