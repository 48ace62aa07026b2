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
from dataclasses import dataclass, replace

from .engine import MissionLog, World
from .scenario import MissionSection, Scenario

MissionConfig = MissionSection


@dataclass
class MissionSummary:
    total_time: float
    solo_equivalent_time: float
    extension_factor: float
    switch_count: int
    contact_failures: int
    dock_count: int
    undock_count: int
    time_on_primary: float
    time_on_secondary: float
    max_altitude_error: float
    primary_energy_wh: float
    secondary_energy_wh: float
    termination_reason: str
    energy_drawn: dict[str, float]

    def as_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("total_time_s", f"{self.total_time:.9g}"),
            ("solo_equivalent_time_s", f"{self.solo_equivalent_time:.9g}"),
            ("extension_factor", f"{self.extension_factor:.9g}"),
            ("switch_count", str(self.switch_count)),
            ("contact_failures", str(self.contact_failures)),
            ("dock_count", str(self.dock_count)),
            ("undock_count", str(self.undock_count)),
            ("time_on_primary_s", f"{self.time_on_primary:.9g}"),
            ("time_on_secondary_s", f"{self.time_on_secondary:.9g}"),
            ("max_altitude_error_m", f"{self.max_altitude_error:.9g}"),
            ("primary_energy_wh", f"{self.primary_energy_wh:.9g}"),
            ("secondary_energy_wh", f"{self.secondary_energy_wh:.9g}"),
            ("termination_reason", self.termination_reason),
        ]
        for key in sorted(self.energy_drawn):
            rows.append((f"energy_{key}_wh", f"{self.energy_drawn[key]:.9g}"))
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
    telemetry_path: str | None
    world: World


def run_mission(
    config: MissionConfig | None,
    scenario: Scenario,
    telemetry_path=None,
    seed: int | None = None,
    keep_rows: bool = False,
) -> MissionResult:
    """Execute one mission. config overrides the scenario's [mission]
    section when given; seed overrides [sim] seed."""
    sc = scenario
    if config is not None and config is not scenario.mission:
        sc = replace(scenario, mission=config)
    if seed is not None:
        sc = replace(sc, sim=replace(sc.sim, seed=seed))
    world = World(sc, telemetry_path=telemetry_path, keep_rows=keep_rows)
    log = world.run(sc.sim.duration)
    summary = summarize(log, termination_reason=world.termination_reason)
    return MissionResult(log=log, summary=summary, telemetry_path=telemetry_path, world=world)


def summarize(log: MissionLog, termination_reason: str = "") -> MissionSummary:
    """Summary table from a completed mission log."""
    t = log.totals
    if not t:
        raise ValueError("log has no totals; run the mission to completion first")
    if not termination_reason:
        ends = log.of_kind("mission_end")
        termination_reason = ends[-1].detail if ends else "unknown"
    return MissionSummary(
        total_time=t["total_time"],
        solo_equivalent_time=t["solo_equivalent_time"],
        extension_factor=t["extension_factor"],
        switch_count=int(t["switch_count"]),
        contact_failures=int(t["contact_failures"]),
        dock_count=int(t["dock_count"]),
        undock_count=int(t["undock_count"]),
        time_on_primary=t["time_on_primary"],
        time_on_secondary=t["time_on_secondary"],
        max_altitude_error=t["max_altitude_error"],
        primary_energy_wh=t["primary_energy_wh"],
        secondary_energy_wh=t["secondary_energy_wh"],
        termination_reason=termination_reason,
        energy_drawn=dict(log.energy_drawn),
    )
