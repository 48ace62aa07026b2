"""Mission execution and summaries.

Runs the dock-switch-undock-repeat protocol over a scenario: the host
hovers on its primary pack, flying batteries are dispatched one at a
time, power switches to each secondary on electrical contact, and the
mission ends when the primary is depleted with nothing docked (or at
the wall clock, when so configured). Failed electrical contacts are
retried with a replacement unit; ground turnaround optionally restores
landed units with fresh packs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields, replace

from .engine import MissionLog, World
from .scenario import MissionSection, Scenario


@dataclass
class MissionSummary:
    """The results of one mission. The field names are the keys of
    `World.summary_totals()`, apart from termination_reason, which comes
    from the run's end. Each is a summary CSV key, apart from
    energy_drawn, which gives one energy_<pack>_wh row per pack."""

    total_time_s: float
    solo_equivalent_time_s: float
    extension_factor: float
    switch_count: int
    contact_failures: int
    dock_count: int
    undock_count: int
    time_on_primary_s: float
    time_on_secondary_s: float
    max_altitude_error_m: float
    primary_energy_wh: float
    secondary_energy_wh: float
    termination_reason: str
    energy_drawn: dict[str, float]  # rows sorted by pack

    def as_rows(self) -> list[tuple[str, str]]:
        rows = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, dict):
                rows += [(f"energy_{k}_wh", f"{v[k]:.9g}") for k in sorted(v)]
            else:
                rows.append((f.name, f"{v:.9g}" if isinstance(v, float) else str(v)))
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("key,value\n")
        for k, v in self.as_rows():
            buf.write(f"{k},{v}\n")
        return buf.getvalue()

    def to_table(self) -> str:
        rows = self.as_rows()
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


@dataclass
class MissionResult:
    log: MissionLog
    summary: MissionSummary
    world: World


def run_mission(
    config: MissionSection | None,
    scenario: Scenario,
    telemetry_path=None,
    keep_rows: bool = False,
) -> MissionResult:
    """Execute one mission. config overrides the scenario's [mission]
    section when given."""
    sc = scenario
    if config is not None and config is not scenario.mission:
        sc = replace(scenario, mission=config)
    world = World(sc, telemetry_path=telemetry_path, keep_rows=keep_rows)
    log = world.run(sc.sim.duration)
    summary = summarize(log, termination_reason=world.termination_reason)
    return MissionResult(log=log, summary=summary, world=world)


def summarize(log: MissionLog, termination_reason: str = "") -> MissionSummary:
    """Summary table from a completed mission log."""
    if not log.totals:
        raise ValueError("log has no totals; run the mission to completion first")
    if not termination_reason:
        ends = log.of_kind("mission_end")
        termination_reason = ends[-1].detail if ends else "unknown"
    return MissionSummary(**log.totals, termination_reason=termination_reason)
