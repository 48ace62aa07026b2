"""Docking/undocking state machine for one flying battery.

The dock approach climbs to a point above the platform, centers
laterally, descends, and cuts thrust for a short free fall once the legs
are within the capture funnel (lateral within 2.0 cm of the platform
center AND legs within 5.0 cm of its surface). The platform funnel
guarantees mechanical alignment inside the 2.0 cm radius; electrical
contact additionally depends on a per-docking Bernoulli draw from the
scenario's seeded generator. Undocking is a plain takeoff to 30 cm above
the platform, a lateral departure, and a landing.

`fsm_step` steps a flying unit's phases; the engine owns dispatch,
capture (`capture_check` on impact) and undock (`World._undock`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .scenario import DockingSection


class DockingError(ValueError):
    """Raised for an invalid pose, contact probability or outcome."""


class DockPhase(Enum):
    GROUNDED = "grounded"
    TAKEOFF = "takeoff"
    APPROACH_ABOVE = "approach_above"
    DESCEND = "descend"
    FREE_FALL = "free_fall"
    DOCKED = "docked"
    UNDOCK_ASCEND = "undock_ascend"
    DEPART = "depart"
    LANDING = "landing"


# The phases as module constants for code that compares them every step:
# on Python 3.11 each attribute read on an Enum class (DockPhase.DOCKED)
# goes through a slow metaclass hook.
GROUNDED = DockPhase.GROUNDED
TAKEOFF = DockPhase.TAKEOFF
APPROACH_ABOVE = DockPhase.APPROACH_ABOVE
DESCEND = DockPhase.DESCEND
FREE_FALL = DockPhase.FREE_FALL
DOCKED = DockPhase.DOCKED
UNDOCK_ASCEND = DockPhase.UNDOCK_ASCEND
DEPART = DockPhase.DEPART
LANDING = DockPhase.LANDING


# Transition graph: phase -> phases reachable in one step. fsm_step
# decides every edge but two, which World owns: FREE_FALL -> DOCKED is a
# capture (capture_check on impact), DOCKED -> UNDOCK_ASCEND an undock
# (World._undock); both are logged as phase changes all the same.
TRANSITIONS: dict[DockPhase, tuple[DockPhase, ...]] = {
    DockPhase.GROUNDED: (DockPhase.TAKEOFF,),
    DockPhase.TAKEOFF: (DockPhase.APPROACH_ABOVE,),
    DockPhase.APPROACH_ABOVE: (DockPhase.DESCEND,),
    DockPhase.DESCEND: (DockPhase.FREE_FALL, DockPhase.APPROACH_ABOVE),
    DockPhase.FREE_FALL: (DockPhase.DOCKED, DockPhase.APPROACH_ABOVE),
    DockPhase.DOCKED: (DockPhase.UNDOCK_ASCEND,),
    DockPhase.UNDOCK_ASCEND: (DockPhase.DEPART,),
    DockPhase.DEPART: (DockPhase.LANDING,),
    DockPhase.LANDING: (DockPhase.GROUNDED,),
}


@dataclass(frozen=True)
class ContactOutcome:
    """Result of one free-fall capture attempt."""

    mechanical_engaged: bool
    electrical_engaged: bool

    def __post_init__(self):
        if self.electrical_engaged and not self.mechanical_engaged:
            raise DockingError("electrical contact requires mechanical engagement")


# Tolerance bands for "reached" checks on the slewed references.
ALT_REACHED_TOL = 0.05  # m
GAP_REACHED_TOL = 0.02  # m
GROUND_TOL = 0.02  # m


def fsm_step(
    phase: DockPhase,
    cfg: DockingSection,
    lateral: float,
    gap: float,
    altitude: float,
) -> DockPhase:
    """Advance a flying unit's state machine by one step. cfg is the
    scenario's [docking] section; lateral and gap are the leg plane's
    offset and height from the platform surface, altitude its height
    above ground. A grounded unit is stepped once dispatched, so it takes
    off; FREE_FALL ends here only in a bounce-off, since capture and
    undock are the engine's."""
    if not (isfinite(lateral) and isfinite(gap) and isfinite(altitude)):
        raise DockingError(f"non-finite relative pose ({lateral}, {gap}, {altitude})")

    if phase is GROUNDED:
        return TAKEOFF

    if phase is TAKEOFF:
        if gap >= cfg.hover_above_gap - ALT_REACHED_TOL:
            return APPROACH_ABOVE
        return TAKEOFF

    if phase is APPROACH_ABOVE:
        centered = lateral <= cfg.lateral_capture_radius
        at_gap = abs(gap - cfg.hover_above_gap) <= ALT_REACHED_TOL
        return DESCEND if (centered and at_gap) else APPROACH_ABOVE

    if phase is DESCEND:
        if lateral <= cfg.lateral_capture_radius and gap <= cfg.drop_height:
            return FREE_FALL
        if lateral > 4.0 * cfg.lateral_capture_radius:
            # drifted well off center: climb back and retry
            return APPROACH_ABOVE
        return DESCEND

    if phase is FREE_FALL:
        # bounce-off: outside the funnel, abort and retry
        return APPROACH_ABOVE if lateral > cfg.lateral_capture_radius else FREE_FALL

    if phase is UNDOCK_ASCEND:
        if gap >= cfg.hover_above_gap - GAP_REACHED_TOL:
            return DEPART
        return UNDOCK_ASCEND

    if phase is DEPART:
        # the engine slews the reference to the landing point; hand over
        # to LANDING once clear of the platform funnel region
        if lateral >= 10.0 * cfg.lateral_capture_radius:
            return LANDING
        return DEPART

    if phase is LANDING:
        return GROUNDED if altitude <= GROUND_TOL else LANDING

    raise DockingError(f"{phase} is not stepped: World undocks docked units")


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Pcg64:
    """PCG64 (XSL-RR 128/64) seeded through numpy's `SeedSequence`
    algorithm, in Python integers: `random()` gives the doubles of
    `numpy.random.default_rng(seed).random()`, bit for bit, on any
    platform and without numpy."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed & _M32]  # the seed's 32-bit words, low first
        while seed := seed >> 32:
            words.append(seed & _M32)
        h = 0x43B0D7E5

        def hashmix(v: int) -> int:
            nonlocal h
            v ^= h
            h = (h * 0x931E8875) & _M32
            v = (v * h) & _M32
            return v ^ (v >> 16)

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ (r >> 16)

        # SeedSequence: mix the entropy words into a 4-word pool
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        # generate_state(4, uint64): 8 words, paired little-endian
        out, h = [], 0x8B51F9DD
        for i in range(8):
            v = pool[i % 4] ^ h
            h = (h * 0x58F38DED) & _M32
            v = (v * h) & _M32
            out.append(v ^ (v >> 16))
        s0, s1, s2, s3 = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))
        # pcg_setseq_128_srandom_r
        self.inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of one 64-bit output."""
        self.state = s = (self.state * _PCG_MULT + self.inc) & _M128
        v = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        v = ((v >> rot) | (v << (64 - rot))) & _M64
        return (v >> 11) * 2.0**-53


def capture_check(landing_point_lateral: float, cfg: DockingSection, rng) -> ContactOutcome:
    """Outcome of a free-fall impact at the given lateral offset.

    Mechanical engagement succeeds inside the funnel radius. Electrical
    contact then succeeds when a uniform draw from rng clears the
    contact failure probability of cfg, the scenario's [docking]
    section; the draw is consumed only on mechanical engagement so the
    stream stays aligned across retries. rng needs only a `random()`
    method returning a float in [0, 1): the world passes its `Pcg64`."""
    if not 0.0 <= cfg.contact_failure_probability <= 1.0:
        raise DockingError("contact_failure_probability must be in [0, 1]")
    mechanical = landing_point_lateral <= cfg.lateral_capture_radius
    if not mechanical:
        return ContactOutcome(False, False)
    return ContactOutcome(True, contact_made(rng.random(), cfg.contact_failure_probability))


def contact_made(draw: float, contact_failure_probability: float) -> bool:
    """Whether a uniform draw in [0, 1) makes electrical contact: it must
    clear the failure probability, so p = 0 always and p = 1 never does."""
    return draw >= contact_failure_probability

