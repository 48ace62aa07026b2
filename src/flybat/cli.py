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
from concurrent.futures import ThreadPoolExecutor

from . import endurance as en
from .engine import SimNumericsError
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


def _sweep_one(base: Scenario, param: str, value: str) -> MissionSummary:
    """One point's summary; an error names the point and keeps its exit code."""
    try:
        scenario = copy.deepcopy(base)
        set_scenario_value(scenario, param, value)
        return run_mission(None, scenario).summary
    except SimNumericsError as exc:
        exc.args = (f"{param} = {value}: {exc}",)
        raise
    except (ValueError, OSError) as exc:
        raise ScenarioError(f"{param} = {value}: {exc}") from exc


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    values = _parse_range(args.range)
    if not values:
        raise ScenarioError("--range holds no values")
    base = _resolve_scenario(args.scenario)
    # validate the parameter name and value casts up front
    for v in values:
        set_scenario_value(copy.deepcopy(base), args.param, v)
    out = _out_dir(args.out)
    path = os.path.join(out, f"sweep_{args.param.replace('.', '_')}.csv")
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        summaries = list(pool.map(lambda v: _sweep_one(base, args.param, v), values))
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
