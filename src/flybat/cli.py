"""Command-line front end: run missions, analyze endurance, sweep parameters.

Exit codes: 0 success, 2 bad input (any ValueError, which every flybat
input error is, or OSError), 3 numeric failure (SimNumericsError).
FLYBAT_OUT sets the default output directory.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import endurance as en
from . import mission
from .docking import Pcg64, contact_made
from .engine import SimNumericsError, World, contact_generator
from .mission import MissionSummary, run_mission
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario,
    load_scenario,
    set_scenario_value,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolve_scenario(spec: str) -> Scenario:
    if os.path.exists(spec):
        return load_scenario(spec)
    return bundled_scenario(spec)


def _out_dir(arg: str | None) -> str:
    out = arg or os.environ.get("FLYBAT_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.duration is not None:
        scenario.sim.duration = args.duration
        scenario.validate()
    out = _out_dir(args.out)
    telemetry_path = os.path.join(out, f"{scenario.name}_telemetry.csv")
    summary_path = os.path.join(out, f"{scenario.name}_summary.csv")
    result = run_mission(None, scenario, telemetry_path=telemetry_path, seed=args.seed)
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(result.summary.to_csv())
    print(result.summary.to_table())
    print(f"telemetry: {telemetry_path}")
    print(f"summary:   {summary_path}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    inputs = en.EnduranceInputs(m0=args.m0, phi=args.phi, gamma=args.gamma, k_p=args.k_p)
    report = en.flight_time(inputs)
    print(f"phi                 {args.phi:.9g}")
    print(f"total_mass_kg       {report.total_mass:.9g}")
    print(f"battery_mass_kg     {report.battery_mass:.9g}")
    print(f"hover_power_w       {report.hover_power:.9g}")
    print(f"flight_time_s       {report.flight_time:.9g}")
    print(f"normalized_time     {report.normalized_time:.9g}")
    if args.observed_time is not None:
        cmp = en.design_comparison(inputs, args.observed_time)
        print(f"observed_time_s     {cmp.observed_time:.9g}")
        print(f"optimal_time_s      {cmp.optimal_time:.9g}")
        print(f"optimal_battery_kg  {cmp.optimal_battery_mass:.9g}")
        print(f"optimal_total_kg    {cmp.optimal_total_mass:.9g}")
        print(f"gamma_over_kp       {cmp.gamma_over_kp:.9g}")
    if args.curve_csv:
        with open(args.curve_csv, "w", encoding="utf-8") as fh:
            fh.write("phi,normalized_time\n")
            for phi, norm in en.normalized_curve():
                fh.write(f"{phi:.9g},{norm:.9g}\n")
        print(f"curve: {args.curve_csv}")
    return EXIT_OK


def _parse_range(spec: str) -> list[str]:
    spec = spec.strip()
    if not spec:
        return []
    if ":" in spec:
        try:
            start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            raise ScenarioError(f"range must be start:stop:count, got {spec!r}") from None
        if count < 1:
            raise ScenarioError("range count must be >= 1")
        if count == 1:
            return [f"{start:.9g}"]
        step = (stop - start) / (count - 1)
        return [f"{start + i * step:.9g}" for i in range(count)]
    return [v.strip() for v in spec.split(",") if v.strip()]


# MissionSummary fields, one sweep CSV column each
SWEEP_METRICS = (
    "total_time_s",
    "solo_equivalent_time_s",
    "extension_factor",
    "switch_count",
    "contact_failures",
    "time_on_primary_s",
    "time_on_secondary_s",
)


# The contact draw's two inputs. They are the only randomness, so points
# that differ in one of them fly the same mission until a draw's outcome
# tells them apart; a sweep over one runs them as shared worlds.
DRAW_KEYS = ("docking.contact_failure_probability", "sim.seed")
# steps between checkpoints of a shared world: a split re-runs fewer
CHECKPOINT_STEPS = 500


def _point_error(param: str, value: str, exc: Exception) -> Exception:
    """exc with the point named first, keeping its exit code."""
    if isinstance(exc, SimNumericsError):
        exc.args = (f"{param} = {value}: {exc}",)
        return exc
    return ScenarioError(f"{param} = {value}: {exc}")


def _sweep_one(base: Scenario, param: str, value: str) -> MissionSummary:
    """One point's summary; an error names the point and keeps its exit code."""
    try:
        scenario = copy.deepcopy(base)
        set_scenario_value(scenario, param, value)
        return run_mission(None, scenario).summary
    except (SimNumericsError, ValueError, OSError) as exc:
        raise _point_error(param, value, exc) from exc


def _sweep_points(base: Scenario, param: str, values: list[str], workers: int) -> list:
    """One world per point. Once a point fails, no further point starts;
    the first failing point in sweep order is raised."""
    failed = threading.Event()

    def one(value):
        if failed.is_set():
            return None
        try:
            return _sweep_one(base, param, value)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(one, v) for v in values]
    # a skipped point started after the failure, so it comes later in order
    return [f.result() for f in futures]


@dataclass
class _Member:
    """One sweep point of a shared world: its index and draw inputs, and
    the generator of its draws unless it leads the world."""

    index: int
    seed: int
    p: float
    rng: Pcg64 | None = None


class _SharedRun:
    """Sweep points that differ only in the contact draw's inputs, flown
    as one world while every draw gives them all the same outcome.

    The world makes the first member's draws. At each of them every other
    member draws from its own generator, and the members whose outcome
    differs leave as a new run: a fork of the last checkpoint, taken
    before that draw, with the first leaver's inputs."""

    def __init__(self, world: World, members: list[_Member]):
        """The members' run from a fork of world, which they all agree with."""
        lead = members[0]
        self.world = world.fork(lead.seed, lead.p)
        outcomes = world.contact_outcomes()
        for m in members[1:]:
            m.rng = contact_generator(m.seed, m.p, outcomes)
        self.members = members
        self.draws = len(outcomes)
        self.checkpoint: World | None = None
        self.splits: list[_SharedRun] = []

    def step(self) -> None:
        world = self.world
        if len(self.members) == 1:
            world.step()
            return
        if world.step_index % CHECKPOINT_STEPS == 0:
            self.checkpoint = copy.deepcopy(world)
        seen = len(world.log.events)
        world.step()
        if len(world.log.events) != seen:
            outcomes = world.contact_outcomes()
            for made in outcomes[self.draws:]:
                self._draw(made)
            self.draws = len(outcomes)

    def _draw(self, made: bool) -> None:
        stay, leave = self.members[:1], []
        for m in self.members[1:]:
            (stay if contact_made(m.rng.random(), m.p) is made else leave).append(m)
        if leave:
            self.members = stay
            self.splits.append(_SharedRun(self.checkpoint, leave))

    def run(self, duration: float) -> MissionSummary:
        world = self.world
        log = world.run(duration, step=self.step if len(self.members) > 1 else None)
        return mission.summarize(log, termination_reason=world.termination_reason)


def _sweep_draws(scenarios: list[Scenario], param: str, values: list[str]) -> list:
    """Points that differ in one contact draw input, as shared worlds. A
    failure stops the sweep and names the first point of its world."""
    members = [
        _Member(i, sc.sim.seed, sc.docking.contact_failure_probability)
        for i, sc in enumerate(scenarios)
    ]
    summaries = [None] * len(scenarios)
    lead = 0
    try:
        runs = [_SharedRun(World(scenarios[0]), members)]
        while runs:
            run = runs.pop(0)
            lead = run.members[0].index
            summary = run.run(scenarios[0].sim.duration)
            for m in run.members:
                summaries[m.index] = summary
            runs += run.splits
    except (SimNumericsError, ValueError, OSError) as exc:
        raise _point_error(param, values[lead], exc) from exc
    return summaries


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    values = _parse_range(args.range)
    if not values:
        raise ScenarioError("--range holds no values")
    base = _resolve_scenario(args.scenario)
    # validate the parameter name and value casts up front
    scenarios = []
    for v in values:
        scenarios.append(copy.deepcopy(base))
        set_scenario_value(scenarios[-1], args.param, v)
    out = _out_dir(args.out)
    path = os.path.join(out, f"sweep_{args.param.replace('.', '_')}.csv")
    if args.param in DRAW_KEYS:
        summaries = _sweep_draws(scenarios, args.param, values)
    else:
        summaries = _sweep_points(base, args.param, values, args.workers)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value," + ",".join(SWEEP_METRICS) + "\n")
        for v, s in zip(values, summaries):
            fh.write(v + "," + ",".join(f"{getattr(s, k):.9g}" for k in SWEEP_METRICS) + "\n")
    print(f"sweep: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flybat",
        description="Mid-air docking and in-flight battery switching simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mission scenario")
    p_run.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    p_run.add_argument("--out", default=None, help="output directory (default $FLYBAT_OUT or .)")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario RNG seed")
    p_run.add_argument("--duration", type=float, default=None, help="override sim duration (s)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="endurance vs battery mass fraction")
    p_an.add_argument("--m0", type=float, required=True, help="mass excluding battery (kg)")
    p_an.add_argument("--phi", type=float, required=True, help="battery fraction of total mass")
    p_an.add_argument("--gamma", type=float, default=128.5, help="energy density (Wh/kg)")
    p_an.add_argument("--k-p", dest="k_p", type=float, default=164.4, help="powertrain constant")
    p_an.add_argument(
        "--observed-time",
        type=float,
        default=None,
        help="observed flight time (s) to calibrate the optimal-design comparison",
    )
    p_an.add_argument("--curve-csv", default=None, help="write the normalized curve CSV here")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="run a mission per parameter value")
    p_sw.add_argument("--scenario", required=True)
    p_sw.add_argument("--param", required=True, help="scenario key, e.g. docking.mu")
    p_sw.add_argument("--range", required=True, help="comma list or start:stop:count")
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--workers", type=int, default=4)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """The one place errors become exit codes: every flybat input error
    is a ValueError, and a failed file operation an OSError."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimNumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
