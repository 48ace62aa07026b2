import pytest

from conftest import (
    DRAWS_CFG,
    check_altitude_band,
    check_energy_matches_telemetry,
    check_event_order,
    check_one_conducting_pack,
    check_primary_conduction,
    check_summary_bookkeeping,
    scaled_mission_scenario,
)
from flybat.engine import World
from flybat.mission import run_mission, summarize
from flybat.scenario import bundled_scenario, parse_scenario


def run_scaled(**kwargs):
    sc = scaled_mission_scenario(**kwargs)
    return run_mission(None, sc, keep_rows=True), sc


@pytest.fixture(scope="module")
def std_run():
    """One scaled two-unit mission shared by the read-only assertions."""
    sc = scaled_mission_scenario(name="std", fleet_size=2, pack_scale=0.08, seed=3)
    return run_mission(None, sc, keep_rows=True), sc


def test_mission_with_switches_extends_flight(std_run):
    result, _ = std_run
    s = result.summary
    assert s.switch_count >= 1
    assert s.termination_reason == "primary_depleted"
    assert s.total_time_s > s.solo_equivalent_time_s
    assert s.extension_factor > 1.0


def test_solo_degenerate_mission_matches_solo_time():
    result, _ = run_scaled(name="solo_degenerate", fleet_size=0, pack_scale=0.08)
    s = result.summary
    assert s.switch_count == 0
    assert s.dock_count == 0
    assert s.total_time_s == pytest.approx(s.solo_equivalent_time_s, rel=0.02)


def test_certain_contact_failure_never_switches():
    result, _ = run_scaled(
        name="always_fail",
        fleet_size=2,
        contact_failure_probability=1.0,
        pack_scale=0.08,
        seed=4,
    )
    s = result.summary
    assert s.switch_count == 0
    assert not result.log.of_kind("contact")
    assert s.contact_failures >= 1
    # the primary pays for everything, including carrying the dead weight
    # and rejecting downwash during the retries, so the mission is
    # strictly shorter than the solo hover
    assert s.total_time_s < s.solo_equivalent_time_s
    # energy oracle: everything came out of the primary
    assert s.primary_energy_wh == pytest.approx(24.42 * 0.08, rel=1e-6)
    assert s.secondary_energy_wh == 0.0


def test_event_ordering_and_switch_preconditions(std_run):
    result, _ = std_run
    events = result.log.events
    check_event_order(result.log)
    assert len(set(e.seq for e in events)) == len(events)
    # every switch to the secondary is preceded by an electrical-contact
    # event with no undock in between
    contact_live = False
    for e in events:
        if e.kind == "contact":
            contact_live = True
        elif e.kind == "undock" or e.kind == "mission_end":
            contact_live = False
        elif e.kind == "switch" and e.detail == "secondary":
            assert contact_live


def test_event_ordering_fuzzed_over_seeds():
    # each scaled mission makes one contact draw at p = 0.5: seed 7 draws
    # 0.625 (contact), seed 2 draws 0.262 (failure, undock, redispatch)
    retried = False
    for seed, turnaround in ((7, 5.0), (2, 5.0), (7, 60.0)):
        sc = scaled_mission_scenario(
            name=f"fuzz{seed}",
            fleet_size=2,
            contact_failure_probability=0.5,
            pack_scale=0.05,
            seed=seed,
        )
        sc.mission.turnaround_delay = turnaround
        sc.sim.duration = 250.0
        result = run_mission(None, sc)
        check_event_order(result.log)
        # a long turnaround outlasts the mission; nothing is logged after it
        assert result.log.events[-1].t <= result.summary.total_time_s
        for f in result.log.of_kind("contact_failure"):
            undock = [x for x in result.log.of_kind("undock") if x.seq > f.seq and x.uid == f.uid]
            if undock and any(x.seq > undock[0].seq for x in result.log.of_kind("dispatch")):
                retried = True
    # the seed set must keep covering a failed contact and its retry
    assert retried


def test_primary_conducts_only_between_undock_and_contact(std_run):
    result, _ = std_run
    check_primary_conduction(result.log, result.world.writer.rows)


def test_one_pack_conducts_per_step(std_run):
    result, _ = std_run
    check_one_conducting_pack(result.world.writer.rows)


def test_altitude_band_held_throughout(std_run):
    result, _ = std_run
    check_altitude_band(result.log)


def test_summary_bookkeeping_consistent(std_run):
    result, _ = std_run
    s = result.summary
    log = result.log
    check_summary_bookkeeping(log)
    assert s.contact_failures == 0
    depleted_secondaries = [e for e in log.of_kind("depleted") if e.detail == "secondary"]
    assert len(depleted_secondaries) == s.switch_count or s.termination_reason != "primary_depleted"
    assert s.undock_count == len(log.of_kind("undock"))


def test_summary_energy_matches_telemetry_integral(std_run):
    result, _ = std_run
    check_energy_matches_telemetry(result.world)


def test_summarize_requires_totals():
    from flybat.engine import MissionLog

    with pytest.raises(ValueError):
        summarize(MissionLog())


def test_turnaround_recharge_reuses_units():
    sc = scaled_mission_scenario(
        name="reuse", fleet_size=1, ground_recharge=True, pack_scale=0.05, seed=6
    )
    # leave gap budget for several sorties of the single unit
    sc.batteries.primary.capacity_ah = 2.2 * 0.3
    sc.mission.turnaround_delay = 2.0
    sc.sim.duration = 400.0
    result = run_mission(None, sc)
    # the single unit must fly more than one sortie
    assert result.summary.dock_count >= 2
    assert result.log.of_kind("recharged")


def test_paper_demo_prefix_converges_in_step_size():
    # the 60 s prefix (dispatch, approach, free-fall capture, switch and
    # docked hover) at 1 ms and 2 ms: the same events in the same order,
    # times within 2 ms and pack energies within 1e-4 relative (measured:
    # 1 ms and 4.9e-5). The energy comes from the powertrain's integral,
    # not from resolving the dynamics at 1 kHz
    worlds = []
    for dt in (0.001, 0.002):
        sc = bundled_scenario("paper_demo")
        sc.sim.dt = dt
        world = World(sc)
        world.run(60.0)
        worlds.append(world)
    fine, coarse = worlds
    assert [(e.kind, e.uid, e.detail) for e in fine.log.events] == [
        (e.kind, e.uid, e.detail) for e in coarse.log.events
    ]
    assert {"dispatch", "dock", "switch"} <= {e.kind for e in fine.log.events}
    assert all(abs(a.t - b.t) <= 0.002 for a, b in zip(fine.log.events, coarse.log.events))
    a, b = fine.summary_totals(), coarse.summary_totals()
    assert list(a["energy_drawn"]) == list(b["energy_drawn"])
    for k in ("primary_energy_wh", "secondary_energy_wh"):
        assert b[k] == pytest.approx(a[k], rel=1e-4)
    for k, wh in a["energy_drawn"].items():
        assert b["energy_drawn"][k] == pytest.approx(wh, rel=1e-4), k


def test_fleet_with_contact_draws_converges_in_step_size():
    # DRAWS_CFG's 32 s fleet mission (5 docks, 2 contact failures) at
    # 1 ms and at 2 ms (the coarse step, DT)
    worlds = []
    for dt in (0.001, 0.002):
        sc = parse_scenario(DRAWS_CFG)
        sc.sim.dt = dt
        world = World(sc)
        world.run()
        worlds.append(world)
    fine, coarse = worlds
    DT = 0.002
    # The same 74 events in the same order: each capture draws once, in
    # capture order, so the same captures draw the same outcomes
    assert len(fine.log.events) == 74
    assert [(e.kind, e.uid, e.detail) for e in fine.log.events] == [
        (e.kind, e.uid, e.detail) for e in coarse.log.events
    ]
    # Each sortie is dispatched by the undock before it, and its approach,
    # descent and free fall end where a threshold is crossed on the step
    # grid, so each sortie adds at most 2 DT of drift (measured: 1 or 2).
    # Four sorties follow the start-docked unit's: at most 8 DT (measured:
    # 7 DT, 14 ms, on the last dock)
    shifts = [abs(a.t - b.t) for a, b in zip(fine.log.events, coarse.log.events)]
    assert max(shifts) <= 8 * DT + 1e-9
    a, b = fine.summary_totals(), coarse.summary_totals()
    # every docked secondary drains to empty, whatever its span
    assert b["secondary_energy_wh"] == pytest.approx(a["secondary_energy_wh"], rel=1e-12)
    # With the secondaries' energy and the mission's 32 s fixed, a moved
    # event moves hover time between spans of the primary: one DT of host
    # hover (128.5 W over 2 ms) is 6.5e-5 of its 1.103 Wh, so 8 DT is at
    # most 5.2e-4 (measured: 2.7e-4)
    assert b["primary_energy_wh"] == pytest.approx(a["primary_energy_wh"], rel=5.2e-4)
