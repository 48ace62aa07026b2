"""The benchmark's workloads and the inputs each one derives from a seed.

Every timed mission is a fixed-length prefix of its scenario, so that a
run holds several missions (each in a fresh process) and the figures are
medians and totals over them rather than one long sample.

The golden scenarios are fixed inputs: `solo_hover` draws no random
numbers and `paper_demo` has a contact failure probability of 0, so their
bytes do not depend on the seed and each has one reference. `dock_churn`
and `sweep` generate their scenario from one of CASES case numbers, each
with its own stored reference, and the seed draws a case for every
mission of a run.

A case with an early electrical failure keeps more units airborne than
one without, so the contact draws would set the work per mission. The
dock_churn prefix therefore starts with unit 0 docked: its secondary
empties at 9.8 s, it undocks and lands while unit 1 flies in, and unit
1's capture -- the first draw -- comes at 30.1 s, just before the
prefix ends. Seeds change the bytes of the last second, not the work.
"""

from __future__ import annotations

import random

CASES = 16
DT = 0.001
SWEEP_PARAM = "docking.contact_failure_probability"
SWEEP_VALUES = "0.1,0.3,0.5"

WORKLOADS = {
    "solo_hover": {
        "kind": "mission",
        "scenario": "solo_hover",
        "duration": 60.0,
        "cases": 1,
    },
    "paper_demo": {
        "kind": "mission",
        "scenario": "paper_demo",
        "duration": 60.0,
        "cases": 1,
    },
    "dock_churn": {
        "kind": "mission",
        "scenario": None,
        "duration": 31.0,
        "start_docked": True,
        "cases": CASES,
    },
    "sweep": {
        "kind": "sweep",
        "scenario": None,
        "duration": 25.0,
        "start_docked": False,
        "cases": CASES,
    },
}

_DOCK_CHURN = """\
# dock_churn case {case}: four flying batteries with 0.05 Ah secondaries
# cycle through dock, switch and undock; ground recharge returns them to
# the pool and three contacts in ten fail electrically.

[batteries]
secondary.capacity_ah = 0.05

[docking]
contact_failure_probability = 0.3

[mission]
fleet_size = 4
ground_recharge = true
start_docked = {start_docked}
termination = primary_depleted

[sim]
seed = {seed}
duration = {duration:g}
"""


def case_for(workload: str, seed: int, index: int) -> int:
    """Case of the index-th mission of a run started with seed."""
    return random.Random(f"{seed}:{index}").randrange(WORKLOADS[workload]["cases"])


def dock_churn_text(case: int, duration: float, start_docked: bool) -> str:
    """Scenario file text of one dock_churn case; a pure function of its
    arguments, so one seed always gives the same bytes."""
    if not 0 <= case < CASES:
        raise ValueError(f"case must be in [0, {CASES}), got {case}")
    return _DOCK_CHURN.format(
        case=case, seed=1000 + case, duration=duration, start_docked=str(start_docked).lower()
    )
