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
from dataclasses import dataclass, replace

from . import endurance as en
from . import mission
from .docking import DESCEND, FREE_FALL, Pcg64, contact_made
from .engine import SimNumericsError, World
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
    if args.seed is not None:
        scenario.sim.seed = args.seed
    scenario.validate()
    out = _out_dir(args.out)
    telemetry_path = os.path.join(out, f"{scenario.name}_telemetry.csv")
    summary_path = os.path.join(out, f"{scenario.name}_summary.csv")
    result = run_mission(None, scenario, telemetry_path=telemetry_path)
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
# tells them apart; a sweep over one flies them as one group.
DRAW_KEYS = ("docking.contact_failure_probability", "sim.seed")
# steps between checkpoints of a shared world within one draw window
# (see _fly): a split re-runs fewer
CHECKPOINT_STEPS = 500


@dataclass
class _Point:
    """One sweep point of a world: its index in the sweep, the generator
    of its contact draws and its contact failure probability."""

    index: int
    rng: Pcg64
    p: float


class _Draws:
    """The contact draws of a world flown for one or more sweep points.
    Each draw is the first point's; every other point draws from its own
    generator at the same moment, and the points whose outcome differs
    leave the world as one pending split."""

    def __init__(self, points: list[_Point]):
        self.points = points
        self.leaving: list[list[_Point]] = []

    def random(self) -> float:
        lead = self.points[0]
        draw = lead.rng.random()
        made = contact_made(draw, lead.p)
        stay, leave = [lead], []
        for pt in self.points[1:]:
            (stay if contact_made(pt.rng.random(), pt.p) is made else leave).append(pt)
        if leave:
            self.points = stay
            self.leaving.append(leave)
        return draw


def _fly(world: World, runs: list[World]) -> MissionSummary:
    """The summary of world, whose rng is a _Draws. A step draws only on
    a unit's free-fall impact, and FREE_FALL is reached only from
    DESCEND, so a step that draws starts with an active unit in one of
    the two: it lies in a draw window, a run of such steps. While world
    flies more than one point it is copied as a checkpoint at the start
    of each window's first step and every CHECKPOINT_STEPS steps after,
    and never outside a window. Each pending split joins runs as a copy
    of the last checkpoint, taken in its draw's window, led by its first
    point; the copy holds the split's generators as they were then."""
    draws = world.rng
    checkpoint = None
    due = 0  # the step index from which a window takes its next checkpoint

    def step():
        nonlocal checkpoint, due
        if len(draws.points) > 1:
            for u in world.active_units:
                if u.phase is DESCEND or u.phase is FREE_FALL:
                    if world.step_index >= due:
                        checkpoint = copy.deepcopy(world)
                        due = world.step_index + CHECKPOINT_STEPS
                    break
            else:
                due = 0
        world.step()
        while draws.leaving:
            leave = {pt.index for pt in draws.leaving.pop()}
            split = copy.deepcopy(checkpoint)
            split.rng.points = [pt for pt in split.rng.points if pt.index in leave]
            p = split.rng.points[0].p
            split.docking = replace(split.docking, contact_failure_probability=p)
            runs.append(split)

    log = world.run(step=step if len(draws.points) > 1 else None)
    return mission.summarize(log, termination_reason=world.termination_reason)


def _sweep_group(scenarios: list[Scenario], param: str, values: list[str], group: list[int]):
    """(index, summary) of each point in group, flown as one world that
    splits where a contact draw tells its points apart. An error names
    the first point of the world that raised it, keeping its exit code."""
    lead = group[0]
    try:
        world = World(scenarios[lead])
        world.rng = _Draws([
            _Point(i, Pcg64(scenarios[i].sim.seed), scenarios[i].docking.contact_failure_probability)
            for i in group
        ])
        runs, done = [world], []
        while runs:
            world = runs.pop()
            draws = world.rng
            lead = draws.points[0].index
            summary = _fly(world, runs)
            done += [(pt.index, summary) for pt in draws.points]
    except SimNumericsError as exc:
        exc.args = (f"{param} = {values[lead]}: {exc}",)
        raise
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"{param} = {values[lead]}: {exc}") from exc
    return done


def _sweep(scenarios: list[Scenario], param: str, values: list[str], workers: int) -> list:
    """The points' summaries in sweep order. A DRAW_KEYS sweep is one
    group and any other sweep one group per point; the groups run on
    workers threads. Once a group fails, no further group starts; the
    first failing group in sweep order is raised."""
    n = len(values)
    groups = [list(range(n))] if param in DRAW_KEYS else [[i] for i in range(n)]
    failed = threading.Event()

    def fly(group):
        if failed.is_set():
            return []
        try:
            return _sweep_group(scenarios, param, values, group)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fly, g) for g in groups]
    summaries = [None] * n
    # a skipped group started after the failure, so it comes later in order
    for f in futures:
        for i, summary in f.result():
            summaries[i] = summary
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
    summaries = _sweep(scenarios, args.param, values, args.workers)
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
    p_sw.add_argument("--workers", type=int, default=4, help="groups flown at once")
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
