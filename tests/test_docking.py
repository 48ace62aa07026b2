import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import maneuver_durations
from flybat.docking import (
    ALT_REACHED_TOL,
    GAP_REACHED_TOL,
    GROUND_TOL,
    ContactOutcome,
    DockPhase,
    DockingError,
    Pcg64,
    TRANSITIONS,
    capture_check,
    fsm_step,
)
from flybat.scenario import DockingSection, ScenarioError, default_scenario

TH = DockingSection()
# the phases fsm_step steps: World undocks a docked unit itself
FLIGHT_PHASES = [p for p in DockPhase if p is not DockPhase.DOCKED]


def step(phase, lateral, gap, altitude=1.5):
    return fsm_step(phase, TH, lateral, gap, altitude)


def capture(lateral, contact_failure_probability, rng):
    cfg = replace(TH, contact_failure_probability=contact_failure_probability)
    return capture_check(lateral, cfg, rng)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


def test_grounded_takes_off():
    # World steps a grounded unit only once it has dispatched it
    assert step(DockPhase.GROUNDED, 3.0, -1.5) is DockPhase.TAKEOFF


def test_descend_enters_free_fall_inside_both_thresholds():
    assert step(DockPhase.DESCEND, 0.015, 0.04) is DockPhase.FREE_FALL
    # either threshold alone is not enough
    assert step(DockPhase.DESCEND, 0.015, 0.06) is DockPhase.DESCEND
    assert step(DockPhase.DESCEND, 0.025, 0.04) is DockPhase.DESCEND


def test_docked_unit_is_not_stepped():
    with pytest.raises(DockingError, match="World undocks docked units"):
        step(DockPhase.DOCKED, 0.0, 0.0)


def test_free_fall_outcomes():
    assert step(DockPhase.FREE_FALL, 0.01, 0.02) is DockPhase.FREE_FALL
    # the capture on impact is capture_check's, not the state machine's
    assert step(DockPhase.FREE_FALL, 0.01, 0.0) is DockPhase.FREE_FALL
    assert step(DockPhase.FREE_FALL, 0.01, -0.01) is DockPhase.FREE_FALL
    # drift outside the funnel aborts the drop
    assert step(DockPhase.FREE_FALL, 0.03, 0.02) is DockPhase.APPROACH_ABOVE


def test_landing_grounds_on_touchdown():
    assert step(DockPhase.LANDING, 3.0, -1.5, altitude=0.5) is DockPhase.LANDING
    assert step(DockPhase.LANDING, 3.0, -1.5, altitude=0.01) is DockPhase.GROUNDED


def test_fsm_never_leaves_declared_graph(rng):
    for _ in range(5000):
        phase = FLIGHT_PHASES[int(rng.integers(len(FLIGHT_PHASES)))]
        lateral = float(rng.uniform(0.0, 4.0))
        gap = float(rng.uniform(-2.0, 1.0))
        altitude = float(rng.uniform(0.0, 3.0))
        nxt = fsm_step(phase, TH, lateral, gap, altitude)
        assert nxt is phase or nxt in TRANSITIONS[phase]
        if nxt is DockPhase.FREE_FALL and phase is DockPhase.DESCEND:
            assert lateral <= TH.lateral_capture_radius
            assert gap <= TH.drop_height


def _around(*points):
    """Each point and its neighbouring floats on either side."""
    out = []
    for p in points:
        out += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    return st.sampled_from(out)


# every value an fsm_step comparison tests against, as fsm_step computes it
_LATERAL = _around(
    0.0, TH.lateral_capture_radius, 4.0 * TH.lateral_capture_radius,
    10.0 * TH.lateral_capture_radius,
) | st.floats(0.0, 4.0)
_GAP = _around(
    0.0, TH.drop_height, TH.hover_above_gap - ALT_REACHED_TOL,
    TH.hover_above_gap + ALT_REACHED_TOL, TH.hover_above_gap - GAP_REACHED_TOL,
) | st.floats(-2.0, 1.0)
_ALTITUDE = _around(GROUND_TOL) | st.floats(-0.1, 3.0)


@settings(max_examples=2000, deadline=None)
@given(
    phase=st.sampled_from(FLIGHT_PHASES),
    lateral=_LATERAL,
    gap=_GAP,
    altitude=_ALTITUDE,
)
def test_fsm_step_walks_the_graph_at_every_threshold(phase, lateral, gap, altitude):
    nxt = fsm_step(phase, TH, lateral, gap, altitude)
    assert nxt is phase or nxt in TRANSITIONS[phase]
    # the capture is World's (capture_check)
    assert nxt is not DockPhase.DOCKED


@settings(max_examples=300, deadline=None)
@given(
    phase=st.sampled_from(list(DockPhase)),
    pose=st.tuples(_LATERAL, _GAP, _ALTITUDE),
    which=st.integers(0, 2),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_fsm_step_rejects_any_non_finite_input(phase, pose, which, bad):
    pose = list(pose)
    pose[which] = bad
    lateral, gap, altitude = pose
    with pytest.raises(DockingError, match="non-finite"):
        fsm_step(phase, TH, lateral, gap, altitude)


def test_fsm_rejects_non_finite_pose():
    with pytest.raises(DockingError):
        step(DockPhase.DESCEND, float("nan"), 0.1)


def test_thresholds_validation():
    # the thresholds are the scenario's [docking] section, checked with it
    for key, value in (("drop_height", 0.5), ("lateral_capture_radius", 0.0)):
        sc = default_scenario()
        setattr(sc.docking, key, value)
        with pytest.raises(ScenarioError, match=rf"^docking\.{key} must"):
            sc.validate()


# ---------------------------------------------------------------------------
# capture_check
# ---------------------------------------------------------------------------


def test_capture_inside_funnel_with_reliable_contact():
    rng, fresh = Pcg64(12345), Pcg64(12345)
    out = capture(0.019, 0.0, rng)
    assert out.mechanical_engaged and out.electrical_engaged
    # one draw spent
    fresh.random()
    assert rng.random() == fresh.random()


def test_capture_outside_funnel_fails_mechanically():
    rng, fresh = Pcg64(12345), Pcg64(12345)
    out = capture(0.025, 0.0, rng)
    assert not out.mechanical_engaged and not out.electrical_engaged
    # no draw spent
    assert rng.random() == fresh.random()


def test_capture_certain_electrical_failure(rng):
    out = capture(0.0, 1.0, rng)
    assert out.mechanical_engaged
    assert not out.electrical_engaged


def test_capture_rejects_probability_outside_unit_interval(rng):
    for p in (-0.1, 1.5):
        with pytest.raises(DockingError, match="contact_failure_probability"):
            capture(0.0, p, rng)


def test_capture_electrical_requires_mechanical(rng):
    for _ in range(500):
        lateral = float(rng.uniform(0.0, 0.05))
        out = capture(lateral, float(rng.uniform(0.0, 1.0)), rng)
        if out.electrical_engaged:
            assert out.mechanical_engaged
    with pytest.raises(DockingError):
        ContactOutcome(mechanical_engaged=False, electrical_engaged=True)


# ---------------------------------------------------------------------------
# Pcg64: numpy's default_rng stream, the oracle
# ---------------------------------------------------------------------------


def _hex_streams(seed: int, draws: int = 1000) -> tuple[list[str], list[str]]:
    """The first draws of Pcg64(seed) and of default_rng(seed), as hex."""
    ours = Pcg64(seed)
    ref = np.random.default_rng(seed).random(draws).tolist()
    return [ours.random().hex() for _ in range(draws)], [x.hex() for x in ref]


# small seeds, the dock_churn seeds, both sides of the 32-bit word
# boundary, and seeds of three, four and five words (a fifth word mixes
# into the pool after the first four)
@pytest.mark.parametrize(
    "seed", [0, 1, 3, 7, *range(1000, 1016), 2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**130 - 1]
)
def test_pcg64_matches_default_rng(seed):
    ours, ref = _hex_streams(seed)
    assert ours == ref


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**130 - 1))
def test_pcg64_matches_default_rng_on_any_seed(seed):
    ours, ref = _hex_streams(seed)
    assert ours == ref


def test_pcg64_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        Pcg64(-1)


# ---------------------------------------------------------------------------
# maneuver_durations, the phase-trace reader of criterion 9 (tests/conftest.py)
# ---------------------------------------------------------------------------


def test_maneuver_durations_from_trace():
    trace = [
        (1.0, "takeoff"),
        (4.0, "approach_above"),
        (18.0, "descend"),
        (21.0, "free_fall"),
        (21.5, "docked"),
        (300.0, "undock_ascend"),
        (301.0, "depart"),
        (303.0, "landing"),
        (308.5, "grounded"),
    ]
    dock, undock = maneuver_durations(trace)
    assert dock == pytest.approx(20.5)
    assert undock == pytest.approx(8.5)


def test_maneuver_durations_empty_trace_flagged():
    assert maneuver_durations([]) == (None, None)
    dock, undock = maneuver_durations([(0.0, "takeoff"), (20.0, "docked")])
    assert dock == pytest.approx(20.0)
    assert undock is None


# ---------------------------------------------------------------------------
# capture robustness regression (engine level)
# ---------------------------------------------------------------------------


def test_hundred_consecutive_dock_cycles_all_capture():
    # 100 descent-to-dock attempts from randomized approach offsets with
    # reliable contact: every one must end mechanically and electrically
    # docked
    from flybat.engine import LEG_HEIGHT, World
    from flybat.scenario import default_scenario

    sc = default_scenario("capture_regression")
    sc.mission.fleet_size = 1
    sc.mission.dispatch_delay = 1e9  # drive dispatch by hand
    sc.docking.contact_failure_probability = 0.0
    world = World(sc)
    rng = np.random.default_rng(99)
    u = world.units[0]
    successes = 0
    for _ in range(100):
        plat = world._platform_point()
        lat = float(rng.uniform(0.0, 0.25))
        ang = float(rng.uniform(0.0, 2 * np.pi))
        z = plat[2] + sc.docking.hover_above_gap + LEG_HEIGHT
        u.state = (
            plat[0] + lat * np.cos(ang), plat[1] + lat * np.sin(ang), z,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        u.ref = [u.state[0], u.state[1], u.state[2]]
        u.pid.reset()
        u.phase = DockPhase.APPROACH_ABOVE
        mark = len(world.log.events)
        if u not in world.active_units:
            world.active_units.append(u)
        deadline = world.step_index + 20000  # 20 s budget per attempt
        while u.phase is not DockPhase.DOCKED and world.step_index < deadline:
            world.step()
        assert u.phase is DockPhase.DOCKED
        # the capture engaged electrically: the unit's contact event
        events = [(e.kind, e.uid) for e in world.log.events[mark:]]
        assert ("contact", u.uid) in events and ("contact_failure", u.uid) not in events
        successes += 1
        # release for the next attempt
        world._detach(u, world.step_index * world.dt)
        world.circuit = world.circuit.__class__(diode_drop=world.circuit.diode_drop)
        u.phase = DockPhase.GROUNDED
        if u in world.active_units:
            world.active_units.remove(u)
    assert successes == 100
