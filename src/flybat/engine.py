"""Fixed-step co-simulation of the host quadcopter and its battery fleet.

One deterministic timeline advances all subsystems at dt (default 1 ms):
docking state machines emit setpoints, cascaded PID controllers produce
thrust and torque (the host adds feedforward thrust against downwash),
the downwash model loads the lower vehicle, rigid-body states integrate
(the docked pair as a single composite body), and the powertrain turns
rotor power into pack discharge through the switching circuit.

All physics is deterministic; the only randomness is the electrical
contact draw at docking, consumed from a single seeded generator owned
by the world. Identical scenario and seed give byte-identical telemetry.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, replace

from . import docking as dk
from . import powertrain as pt
from .aero import DownwashModel, align_torque, downwash_force
from .control import CascadedPid, feedforward_lookup
from .docking import (
    APPROACH_ABOVE,
    DEPART,
    DESCEND,
    DOCKED,
    FREE_FALL,
    GROUNDED,
    LANDING,
    TAKEOFF,
    UNDOCK_ASCEND,
)
from .dynamics import (
    GRAVITY,
    LEG_HEIGHT,
    MOUNT_OFFSET,
    PLATFORM_HEIGHT,
    VehicleParams,
    body_constants,
    composite_com_offset,
    contact_load,
    docked_mass_share,
    rk4_flat,
)
from .geom import q_rotate
from .powertrain import NO_SOURCE, PRIMARY, SECONDARY, BusSample
from .telemetry import TelemetryWriter, format_tail

GROUND_COM = LEG_HEIGHT  # COM height of a grounded unit

# bit pattern of the host's state + integrators for the fast path
# (bytes tell -0.0 from 0.0)
_HOST_FIXED_POINT = struct.Struct("17d")

# a quiet step builds its bus sample as solve_bus does, without the named
# tuple's Python __new__
_new_tuple = tuple.__new__


class SimNumericsError(RuntimeError):
    """A non-finite value appeared; names the step and subsystem. A
    pickled copy keeps the message as it stands, such as a failed sweep
    point's with the point's name in front."""

    def __init__(self, step_index: int, subsystem: str, message: str | None = None):
        if message is None:
            message = f"non-finite value at step {step_index} in {subsystem}"
        super().__init__(message)
        self.step_index = step_index
        self.subsystem = subsystem

    def __reduce__(self):
        # the default reduction calls the class with args alone
        return type(self), (self.step_index, self.subsystem, str(self))


@dataclass(frozen=True)
class MissionEvent:
    """One mission transition. uid is the flying battery it concerns, if
    any; in_column is whether it shows in the telemetry events column."""

    t: float
    seq: int
    kind: str
    uid: int | None = None
    detail: str = ""
    in_column: bool = True


def events_column(events: list[MissionEvent]) -> str:
    """The telemetry events cell: the column events among events, in
    order, as kind:uid:detail (empty parts left out) joined by ';'. Two
    kinds keep their own token forms: contact_slip names no unit, and
    depleted names the pack before the unit (depleted:own:1)."""
    tokens = []
    for e in events:
        if not e.in_column:
            continue
        if e.uid is None or e.kind == "contact_slip":
            parts = (e.kind, e.detail)
        elif e.kind == "depleted":
            parts = (e.kind, e.detail, str(e.uid))
        else:
            parts = (e.kind, str(e.uid), e.detail)
        tokens.append(":".join(p for p in parts if p))
    return ";".join(tokens)


class MissionLog:
    """Ordered mission events plus end-of-run totals."""

    def __init__(self):
        self.events: list[MissionEvent] = []
        self.totals: dict[str, object] = {}

    def of_kind(self, kind: str) -> list[MissionEvent]:
        return [e for e in self.events if e.kind == kind]


class _Unit:
    """One flying battery: small quadcopter + its secondary pack. The
    vehicle and pack specs are the fleet's, held once by World; own_wh
    and secondary_wh are this unit's remaining energies, and own_key and
    secondary_key name its packs in World.energy_drawn. A landed unit
    that is not recharged is available at math.inf."""

    __slots__ = (
        "uid",
        "pid",
        "own_wh",
        "secondary_wh",
        "own_key",
        "secondary_key",
        "state",
        "phase",
        "ref",
        "home",
        "available_at",
        "thrust",
    )

    def __init__(self, uid, pid, own_pack, secondary, home):
        self.uid = uid
        self.pid = pid
        self.own_wh = own_pack.capacity_wh
        self.secondary_wh = secondary.capacity_wh
        self.own_key = f"unit{uid}.own"
        self.secondary_key = f"unit{uid}.secondary"
        self.home = home
        self.state = (
            home[0], home[1], GROUND_COM,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        self.phase = GROUNDED
        self.ref = [home[0], home[1], GROUND_COM]
        self.available_at = 0.0
        self.thrust = 0.0

    @property
    def airborne(self) -> bool:
        return self.phase not in (GROUNDED, DOCKED)


class World:
    """Mutable simulation state; stepped by exactly one caller."""

    def __init__(self, scenario, telemetry_path=None, keep_rows: bool = False):
        from .scenario import build_world_inputs

        inp = build_world_inputs(scenario)
        sim, m = scenario.sim, scenario.mission
        self.dt: float = sim.dt
        self.duration: float = sim.duration
        self.step_index: int = 0
        # the contact draws' generator; any object with a random() method
        # will do (a sweep swaps in one that draws for several points)
        self.rng = dk.Pcg64(sim.seed)

        # host vehicle
        self.main_params: VehicleParams = inp.main_params
        self.fb_params: VehicleParams = inp.fb_params
        # the docked pair, which only a fleet builds
        self.comp_params: VehicleParams | None = inp.comp_params
        self.d_com = composite_com_offset(
            inp.main_params.mass, inp.fb_params.mass, MOUNT_OFFSET
        )
        self.main_cfg = inp.main_cfg
        self.comp_cfg = inp.comp_cfg
        self.main_pid = CascadedPid(inp.main_cfg, inp.main_params.mass)
        self.k_thrust_main = pt.k_thrust_from_kp(inp.main_params.k_p)
        # (1/mass, principal moments, their inverses) for rk4_flat, of the
        # host alone and of the docked pair
        comp = self.comp_params
        self._main_solo_body = body_constants(inp.main_params)
        self._main_comp_body = None if comp is None else body_constants(comp)
        # the docked unit's share of the composite's mass (contact loads)
        self._docked_mass_share = (
            None if comp is None else docked_mass_share(inp.main_params.mass, inp.fb_params.mass)
        )
        hp = (m.hover_x, m.hover_y, m.hover_z)
        self.hover_position = hp
        self.main_state = (
            hp[0], hp[1], hp[2],
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        self.docked_unit: _Unit | None = None

        # powertrain
        self.primary: pt.BatteryPack = inp.primary
        self.primary_wh = inp.primary.capacity_wh
        drop = scenario.circuit.diode_drop
        self.circuit = pt.SwitchCircuit(diode_drop=drop)
        self.bus = BusSample(pt.ocv(self.primary, self.primary_wh) - drop, 0.0, 0.0, PRIMARY)

        # aero / feedforward
        self.downwash: DownwashModel = scenario.downwash
        self.ff_map = inp.ff_map

        # docking / fleet: every unit flies the fb vehicle with the same packs
        self.docking = scenario.docking
        self.mission = m
        fb = inp.fb_params
        self.k_thrust_fb = pt.k_thrust_from_kp(fb.k_p)
        self._fb_body = body_constants(fb)
        self.fb_own_pack: pt.BatteryPack = inp.fb_own_pack
        self.secondary: pt.BatteryPack = inp.secondary
        self.units: list[_Unit] = [
            _Unit(i, CascadedPid(inp.fb_cfg, fb.mass), self.fb_own_pack, self.secondary, home)
            for i, home in enumerate(inp.homes)
        ]
        self.active_units: list[_Unit] = []
        self.incoming: _Unit | None = None
        self.docked_at = 0.0  # when docked_unit docked

        # bookkeeping
        self.log = MissionLog()
        # why the mission ended; empty while it runs
        self.termination_reason = ""
        self.time_on_primary = 0.0
        self.time_on_secondary = 0.0
        # Wh drawn per pack ("primary", "unit<uid>.own", "unit<uid>.secondary")
        # in the order the packs first delivered energy; the primary's
        # entry is there from the start
        self.energy_drawn: dict[str, float] = {"primary": 0.0}
        self.contact_normal = 0.0
        self.contact_friction = 0.0
        self._slipping = False  # the docked contact slipped on the last step
        self.planar_drag_coeff = sim.planar_drag_coeff
        # log.events[_row_mark:] holds every event logged since the last
        # telemetry row (a quiet step logs none, and its row leaves the mark
        # as it is); _column_due is set when one of them shows in its column
        self._row_mark = 0
        self._column_due = False
        self._alt_err_abs_max = 0.0
        # quiescent-host memo (see step): the state tuple it holds for,
        # then (thrust, zx, zy, zz, load)
        self._host_memo_state: tuple | None = None
        self._host_memo: tuple = ()
        # quiet steps (see _arm_quiet) run before this time; every logged
        # event and every new host memo ends them. _quiet holds their
        # constants: the draining pack's capacity, cell count, internal
        # resistance, the diode drop, the memo's rotor load and the OCV
        # segment (s0, v0, slope, top).
        # _frame is their row frame: the docked unit's state tuple it
        # checked (None with no unit docked), and the row's values from
        # active_source on with their text
        self._quiet_until = -math.inf
        self._quiet: tuple = ()
        self._frame: tuple = ()

        self.telemetry_decim = max(1, round(1.0 / (sim.telemetry_hz * sim.dt)))
        self.writer = TelemetryWriter(telemetry_path, keep_rows=keep_rows)

        self._event(0.0, "takeoff", detail="main", in_column=False)
        if m.start_docked and self.units:
            u = self.units[0]
            self.active_units.append(u)
            self._attach(u, electrical=True, t=0.0)
            self.circuit = pt.command_switch(self.circuit, pt.SwitchTarget.USE_SECONDARY)
            self._event(0.0, "switch", detail="secondary", in_column=False)

    def _event(
        self, t: float, kind: str, uid: int | None = None, detail: str = "", in_column: bool = True
    ) -> None:
        """Record one transition; a column event also forces a telemetry
        row at the end of the step."""
        events = self.log.events
        events.append(MissionEvent(t, len(events), kind, uid, detail, in_column))
        self._quiet_until = -math.inf
        if in_column:
            self._column_due = True

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    def main_position(self) -> tuple[float, float, float]:
        s = self.main_state
        if self.docked_unit is None:
            return (s[0], s[1], s[2])
        off = q_rotate((s[6], s[7], s[8], s[9]), self.d_com)
        return (s[0] - off[0], s[1] - off[1], s[2] - off[2])

    def _platform_point(self) -> tuple[float, float, float]:
        """Platform surface center for the current host state."""
        s = self.main_state
        p = self.main_position()
        off = q_rotate((s[6], s[7], s[8], s[9]), (0.0, 0.0, PLATFORM_HEIGHT))
        return (p[0] + off[0], p[1] + off[1], p[2] + off[2])

    # ------------------------------------------------------------------
    # mission policy
    # ------------------------------------------------------------------

    def _dispatch(self, t: float) -> None:
        """Send the first grounded unit available by t to dock, if any."""
        for u in self.units:
            if u.phase is GROUNDED and t >= u.available_at:
                break
        else:
            return
        u.pid.reset()
        if u not in self.active_units:
            self.active_units.append(u)
        self.incoming = u
        self._event(t, "dispatch", u.uid)

    def _orchestrate(self, t: float) -> None:
        m = self.mission
        docked = self.docked_unit
        if docked is not None:
            electrical = self.circuit.secondary_present
            if electrical and docked.secondary_wh <= 0.0:
                # secondary exhausted: back to primary, shed the unit,
                # and launch the replacement in the same instant
                self.circuit = pt.command_switch(self.circuit, pt.SwitchTarget.USE_PRIMARY)
                self._event(t, "switch", detail="primary")
                self._undock(docked, t)
            elif not electrical and t - self.docked_at >= m.failure_redispatch_delay:
                self._undock(docked, t)
        elif self.incoming is None and m.fleet_size > 0 and t >= m.dispatch_delay:
            self._dispatch(t)

        if self.primary_wh <= 0.0 and not (
            self.docked_unit is not None and self.circuit.secondary_present
        ):
            self._end_mission(t, "primary_depleted")

    def _undock(self, u: _Unit, t: float) -> None:
        """Shed docked unit u: dispatch its replacement, detach u, climb off."""
        self._event(t, "undock", u.uid)
        self._dispatch(t)
        self._detach(u, t)
        u.phase = UNDOCK_ASCEND
        self._event(t, "phase", u.uid, u.phase.value)

    def _end_mission(self, t: float, reason: str) -> None:
        if not self.termination_reason:
            self.termination_reason = reason
            self._event(t, "mission_end", detail=reason)

    # ------------------------------------------------------------------
    # docking transitions
    # ------------------------------------------------------------------

    def _attach(self, u: _Unit, electrical: bool, t: float) -> None:
        ms = self.main_state
        q = (ms[6], ms[7], ms[8], ms[9])
        off = q_rotate(q, self.d_com)
        m_m, m_fb = self.main_params.mass, self.fb_params.mass
        total = m_m + m_fb
        us = u.state
        vx = (m_m * ms[3] + m_fb * us[3]) / total
        vy = (m_m * ms[4] + m_fb * us[4]) / total
        vz = (m_m * ms[5] + m_fb * us[5]) / total
        self.main_state = (
            ms[0] + off[0], ms[1] + off[1], ms[2] + off[2],
            vx, vy, vz,
            ms[6], ms[7], ms[8], ms[9], ms[10], ms[11], ms[12],
        )
        self.docked_unit = u
        self._slipping = False
        self.docked_at = t
        u.phase = DOCKED
        u.thrust = 0.0
        self.main_pid.retune(self.comp_cfg, self.comp_params.mass)
        self._event(t, "phase", u.uid, DOCKED.value, in_column=False)
        self._event(t, "dock", u.uid)
        if electrical:
            self.circuit = replace(self.circuit, secondary_present=True)
            self._event(t, "contact", u.uid)
        else:
            self._event(t, "contact_failure", u.uid)
        if self.incoming is u:
            self.incoming = None

    def _detach(self, u: _Unit, t: float) -> None:
        ms = self.main_state
        main_pos = self.main_position()
        mount = q_rotate((ms[6], ms[7], ms[8], ms[9]), MOUNT_OFFSET)
        self.main_state = (
            main_pos[0], main_pos[1], main_pos[2],
            ms[3], ms[4], ms[5],
            ms[6], ms[7], ms[8], ms[9], ms[10], ms[11], ms[12],
        )
        u.state = (
            main_pos[0] + mount[0], main_pos[1] + mount[1], main_pos[2] + mount[2],
            ms[3], ms[4], ms[5],
            ms[6], ms[7], ms[8], ms[9],
            0.0, 0.0, 0.0,
        )
        u.ref = [u.state[0], u.state[1], u.state[2]]
        u.pid.reset()
        self.docked_unit = None
        # the relay is already closed here (switch-back precedes undock)
        self.circuit = replace(self.circuit, relay_closed=True, secondary_present=False)
        self.main_pid.retune(self.main_cfg, self.main_params.mass)
        self.contact_normal = 0.0
        self.contact_friction = 0.0

    def _on_grounded(self, u: _Unit, t: float) -> None:
        u.state = (
            u.home[0], u.home[1], GROUND_COM,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        u.thrust = 0.0
        self.active_units.remove(u)
        self._event(t, "landing", u.uid)
        if self.mission.ground_recharge:
            u.available_at = t + self.mission.turnaround_delay
            u.own_wh = self.fb_own_pack.capacity_wh
            u.secondary_wh = self.secondary.capacity_wh
            self._event(t, "recharged", u.uid, in_column=False)
        else:
            u.available_at = math.inf

    def _crash(self, u: _Unit, t: float) -> None:
        """Rest a unit that fell out of the air where it hit the ground,
        for good: it is neither recharged nor dispatched again, and the
        next unit is sent in its place."""
        s = u.state
        u.state = (
            s[0], s[1], GROUND_COM,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        u.phase = GROUNDED
        u.available_at = math.inf
        self.active_units.remove(u)
        if self.incoming is u:
            self.incoming = None
        self._event(t, "crash", u.uid)

    # ------------------------------------------------------------------
    # per-step subsystems
    # ------------------------------------------------------------------

    def _step_unit(self, u: _Unit, t: float, dt: float, plat) -> bool:
        """Step one active unit that is not docked over dt, given this
        step's platform point: crash it if its own pack emptied in the air
        and its legs reached the ground, else step its FSM and, if it is
        still in the air, control and integrate it. Returns whether it
        flew."""
        # altitude is the leg plane's height above ground
        s = u.state
        altitude = s[2] - LEG_HEIGHT
        if altitude <= 0.0 and u.own_wh <= 0.0 and u.phase is not LANDING:
            self._crash(u, t)
            return False
        ph = dk.fsm_step(
            u.phase,
            self.docking,
            math.hypot(s[0] - plat[0], s[1] - plat[1]),
            altitude - plat[2],
            altitude,
        )
        if ph is not u.phase:
            if u.phase is FREE_FALL:
                self._event(t, "bounce_off", u.uid)
            u.phase = ph
            self._event(t, "phase", u.uid, ph.value)
            if ph is GROUNDED:
                self._on_grounded(u, t)
                return False
        if ph is FREE_FALL or u.own_wh <= 0.0:
            u.thrust = 0.0
            tqx = tqy = tqz = 0.0
        else:
            # the reference slews toward this phase's goal at its speed
            cfg = self.docking
            approach_z = plat[2] + cfg.hover_above_gap + LEG_HEIGHT
            if ph is APPROACH_ABOVE:
                gx, gy, gz, speed = plat[0], plat[1], approach_z, cfg.approach_speed
            elif ph is DESCEND:
                gx, gy, gz = plat[0], plat[1], plat[2] + cfg.drop_height + LEG_HEIGHT
                speed = cfg.descent_rate
            elif ph is TAKEOFF:
                gx, gy, gz, speed = u.home[0], u.home[1], approach_z, cfg.vertical_speed
            elif ph is UNDOCK_ASCEND:
                gx, gy, gz, speed = plat[0], plat[1], approach_z, cfg.vertical_speed
            elif ph is DEPART:
                gx, gy, gz, speed = u.home[0], u.home[1], approach_z, cfg.depart_speed
            else:
                # LANDING, as a grounded unit returned above and a docked
                # one is not stepped
                gx, gy, gz, speed = u.home[0], u.home[1], GROUND_COM, cfg.vertical_speed
            ref = u.ref
            dx = gx - ref[0]
            dy = gy - ref[1]
            dz = gz - ref[2]
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            step = speed * dt
            if dist <= step:
                ref[0], ref[1], ref[2] = gx, gy, gz
                rvx = rvy = rvz = 0.0
            else:
                k = step / dist
                ref[0] += dx * k
                ref[1] += dy * k
                ref[2] += dz * k
                kv = speed / dist
                rvx = dx * kv
                rvy = dy * kv
                rvz = dz * kv
            pid = u.pid
            u.thrust, q_des = pid.position_flat(
                s[0], s[1], s[2], s[3], s[4], s[5],
                ref[0], ref[1], ref[2], rvx, rvy, rvz,
                0.0, 0.0, 0.0, 0.0, dt,
            )
            tqx, tqy, tqz = pid.attitude_flat(
                s[6], s[7], s[8], s[9], s[10], s[11], s[12], q_des, dt
            )
        # thrust along the body z axis of the unit's attitude
        qw, qx, qy, qz = s[6], s[7], s[8], s[9]
        thrust = u.thrust
        inv_mass, ii, jj = self._fb_body
        u.state = ns = rk4_flat(
            s, dt, inv_mass, ii, jj,
            2.0 * (qx * qz + qw * qy) * thrust,
            2.0 * (qy * qz - qw * qx) * thrust,
            (1.0 - 2.0 * (qx * qx + qy * qy)) * thrust,
            tqx, tqy, tqz,
        )
        if not math.isfinite(sum(ns)):
            raise SimNumericsError(self.step_index, f"unit {u.uid} dynamics")
        return True

    def step(self) -> None:
        """Advance the world one dt. A quiet step (see _arm_quiet) drains
        the one conducting pack inline, calling no powertrain function,
        and writes a due row from the stretch's row frame. Every other
        step is a full step and ends in _finish_step."""
        dt = self.dt
        i = self.step_index
        t = i * dt

        # A quiet step repeats the last one but for the pack energies. It
        # drains the pack with the float operations of solve_bus's
        # one-source branch and discharge in their order, and commits only
        # when the state of charge lies in the stretch's OCV segment, the
        # bus is live, the pack keeps some energy and, on a row step, a
        # docked unit still holds the state tuple the frame checked. Any
        # other step goes on to the full step, which drains and
        # writes the same bits and re-arms the stretch or ends it.
        if t < self._quiet_until and self.main_state is self._host_memo_state:
            docked = self.docked_unit
            e = self.primary_wh if docked is None else docked.secondary_wh
            cap, cells, r, drop, load, s0, v0, k, top = self._quiet
            soc = e / cap
            if s0 < soc <= top:
                v = (v0 + k * (soc - s0)) * cells
                bus = v - drop
                c = load / bus
                # load * c / c is the pack's share of the load; a product
                # that does not underflow leaves a current and a share > 0,
                # as the bus is at least 2.8 V
                share = load * c
                if v - bus > 0.0 and share > 0.0:
                    left = e - (share / c + c * c * r) * dt / 3600.0
                    due = i % self.telemetry_decim == 0
                    checked, tail, text = self._frame
                    if left > 0.0 and (not due or docked is None or docked.state is checked):
                        if docked is None:
                            i_p, i_s = c, c * 0.0
                            self.bus = _new_tuple(BusSample, (bus, i_p, i_s, PRIMARY))
                            self.primary_wh = left
                            self.energy_drawn["primary"] += e - left
                            self.time_on_primary += dt
                        else:
                            i_p, i_s = c * 0.0, c
                            self.bus = _new_tuple(BusSample, (bus, i_p, i_s, SECONDARY))
                            docked.secondary_wh = left
                            drawn = self.energy_drawn
                            key = docked.secondary_key
                            drawn[key] = drawn.get(key, 0.0) + (e - left)
                            self.time_on_secondary += dt
                        if due and self.writer.sink:
                            # _write_row's six leading values (i_p + i_s is c,
                            # as the other current is +0.0), then the frame
                            self.writer.write_row(t, bus, c, i_p, i_s, bus * c, tail, text)
                        self.step_index = i + 1
                        return

        # cheap finiteness test: a nan or inf anywhere makes the sum one
        ms = self.main_state
        if not math.isfinite(sum(ms)):
            raise SimNumericsError(self.step_index, "host dynamics")

        self._orchestrate(t)
        if self.termination_reason:
            self._write_row(t)
            return
        # --- flying batteries (see _step_unit), and the feedforward,
        # downwash and align torque of those that flew on the host; a lone
        # docked unit has nothing to step. A unit reads only its own state
        # and the platform point the host had before it integrates ------
        active = self.active_units
        docked = self.docked_unit
        ms = self.main_state
        ff = 0.0
        fx = fy = fz = 0.0
        tx = ty = tz = 0.0
        airborne = []
        if active and (docked is None or len(active) > 1):
            mpx, mpy, mpz = self.main_position()
            plat = self._platform_point()
            for u in tuple(active):
                if u.phase is DOCKED:
                    continue
                try:
                    if not self._step_unit(u, t, dt, plat):
                        continue
                except dk.DockingError as exc:
                    raise SimNumericsError(self.step_index, "docking geometry") from exc
                airborne.append(u)
                uth = u.thrust
                if uth <= 0.0:
                    continue
                us = u.state
                rel = (us[0] - mpx, us[1] - mpy, us[2] - mpz)
                ff += feedforward_lookup(self.ff_map, rel)
                fz += downwash_force(self.downwash, rel, uth)[2]
                tq = align_torque(self.downwash, rel)
                tx += tq[0]
                ty += tq[1]
                tz += tq[2]

        # --- host setpoint and control ------------------------------------
        hx, hy, hz = self.hover_position
        svx = sax = 0.0
        m = self.mission
        oscillating = m.oscillation_amplitude > 0.0 and m.oscillation_omega > 0.0
        if oscillating:
            ramp = t / 5.0
            if ramp > 1.0:
                ramp = 1.0
            a = m.oscillation_amplitude * ramp
            w = m.oscillation_omega
            wt = w * t
            hx += a * math.sin(wt)
            svx = a * w * math.cos(wt)
            sax = -a * w * w * math.sin(wt)
        if docked is not None:
            hz += self.d_com[2]

        drag_fx = drag_fy = 0.0
        if self.planar_drag_coeff > 0.0:
            vx, vy = ms[3], ms[4]
            vmag = math.sqrt(vx * vx + vy * vy)
            if vmag > 0.0:
                c = self.planar_drag_coeff * vmag
                drag_fx = -c * vx
                drag_fy = -c * vy
                fx += drag_fx
                fy += drag_fy

        # A host whose state and integrators map onto themselves bitwise,
        # under a standing setpoint and no load from the units, repeats the
        # same step: reuse its thrust, thrust axis and rotor load and leave
        # state and integrators as they are. The memo is keyed by the state
        # tuple's identity, which stands for the rest: the integrators
        # change only when the host integrates, and gains, mass, body and
        # the docked setpoint height only on dock and undock, and each of
        # these assigns a new state tuple; the planar drag is a function of
        # the state. The units' sums start at +0.0 and add finite terms, so
        # they are never -0.0 and the zero test matches them bit for bit.
        pid = self.main_pid
        inv_mass, ii, jj = self._main_solo_body if docked is None else self._main_comp_body
        unloaded = not (ff or fz or tx or ty or tz)
        hit = unloaded and ms is self._host_memo_state
        if hit:
            thrust, zx, zy, zz, load = self._host_memo
        else:
            ints = (pid.ix, pid.iy, pid.iz, pid.iyaw)
            thrust, q_des = pid.position_flat(
                ms[0], ms[1], ms[2], ms[3], ms[4], ms[5],
                hx, hy, hz, svx, 0.0, 0.0,
                sax, 0.0, 0.0, ff, dt,
            )
            atx, aty, atz = pid.attitude_flat(
                ms[6], ms[7], ms[8], ms[9], ms[10], ms[11], ms[12], q_des, dt
            )
            # body z axis (thrust axis) of the host attitude
            qw, qx, qy, qz = ms[6], ms[7], ms[8], ms[9]
            zx = 2.0 * (qx * qz + qw * qy)
            zy = 2.0 * (qy * qz - qw * qx)
            zz = 1.0 - 2.0 * (qx * qx + qy * qy)
            self.main_state = ns = rk4_flat(
                ms,
                dt,
                inv_mass,
                ii,
                jj,
                fx + zx * thrust,
                fy + zy * thrust,
                fz + zz * thrust,
                tx + atx,
                ty + aty,
                tz + atz,
            )
            nz = ns[2]
            if nz != nz:
                raise SimNumericsError(self.step_index, "host dynamics")
            if docked is None:
                alt_err = nz - hz
            else:
                alt_err = (nz - self.d_com[2] * (1.0 - 2.0 * (ns[7] * ns[7] + ns[8] * ns[8]))) - (
                    hz - self.d_com[2]
                )
            if alt_err < 0.0:
                alt_err = -alt_err
            if alt_err > self._alt_err_abs_max:
                self._alt_err_abs_max = alt_err
            load = pt.total_rotor_power(thrust, self.k_thrust_main)
            if ns == ms and unloaded and not oscillating:
                self._arm_host_memo(ms, ints, (thrust, zx, zy, zz, load))

        # --- docked contact diagnostic ---------------------------------
        if docked is not None:
            ext_axial = drag_fx * zx + drag_fy * zy
            pl2 = drag_fx * drag_fx + drag_fy * drag_fy - ext_axial * ext_axial
            ext_planar = math.sqrt(pl2) if pl2 > 0.0 else 0.0
            self.contact_normal, self.contact_friction, held = contact_load(
                self._docked_mass_share, thrust, ext_axial, ext_planar, self.docking.mu
            )
            slipping = not held
            # one event per slip episode, on the step the contact lets go
            if slipping and not self._slipping:
                self._event(t, "contact_slip", docked.uid)
            self._slipping = slipping

        # --- free-fall impacts ------------------------------------------
        if airborne:
            for u in airborne:
                if u.phase is FREE_FALL:
                    # the drop assumes a quasi-static platform; flag the
                    # assumption when the host accelerates hard mid-fall
                    ax_h = (fx + zx * thrust) * inv_mass
                    ay_h = (fy + zy * thrust) * inv_mass
                    az_h = (fz + zz * thrust) * inv_mass - GRAVITY
                    if ax_h * ax_h + ay_h * ay_h + az_h * az_h > 4.0:
                        self._event(t, "platform_accel_warning", u.uid)
                    # the host has moved: the platform point of its new state
                    p = self._platform_point()
                    s = u.state
                    if (s[2] - LEG_HEIGHT) - p[2] <= 0.0:
                        lateral = math.hypot(s[0] - p[0], s[1] - p[1])
                        outcome = dk.capture_check(lateral, self.docking, self.rng)
                        if outcome.mechanical_engaged:
                            self._attach(u, outcome.electrical_engaged, t)
                            if outcome.electrical_engaged:
                                self.circuit = pt.command_switch(
                                    self.circuit, pt.SwitchTarget.USE_SECONDARY
                                )
                                self._event(t, "switch", detail="secondary")
                        else:
                            u.phase = APPROACH_ABOVE
                            self._event(t, "bounce_off", u.uid)
                            self._event(t, "phase", u.uid, u.phase.value, in_column=False)

        # airborne lists every unit that flew this step
        if hit and not airborne:
            self._arm_quiet(docked)
        self._finish_step(t, dt, load, airborne)

    def _finish_step(self, t: float, dt: float, load: float, airborne) -> None:
        """The end of every step: drain the packs under the host's rotor
        load and the airborne units' own loads, write the telemetry row if
        one is due, and count the step."""
        # --- powertrain --------------------------------------------------
        docked = self.docked_unit
        if docked is None:
            bus = pt.solve_bus(self.circuit, self.primary, self.primary_wh, None, 0.0, load)
        else:
            bus = pt.solve_bus(
                self.circuit, self.primary, self.primary_wh,
                self.secondary, docked.secondary_wh, load,
            )
        self.bus = bus
        drawn = self.energy_drawn
        if bus.active_source is NO_SOURCE:
            if load > 0.0:
                self._end_mission(t, "primary_depleted")
        else:
            i_p = bus.current_primary
            i_s = bus.current_secondary
            if i_p > 0.0:
                share = load * i_p / (i_p + i_s)
                before = self.primary_wh
                self.primary_wh = left = pt.discharge(self.primary, before, share, dt, i_p)
                drawn["primary"] += before - left
                self.time_on_primary += dt
                if left <= 0.0:
                    self._event(t, "depleted", detail="primary")
            if i_s > 0.0:
                share = load * i_s / (i_p + i_s)
                before = docked.secondary_wh
                docked.secondary_wh = left = pt.discharge(self.secondary, before, share, dt, i_s)
                key = docked.secondary_key
                drawn[key] = drawn.get(key, 0.0) + (before - left)
                self.time_on_secondary += dt
                if left <= 0.0:
                    self._event(t, "depleted", docked.uid, "secondary")
        if airborne:
            for u in airborne:
                if u.thrust > 0.0 and u.own_wh > 0.0:
                    p_fb = pt.total_rotor_power(u.thrust, self.k_thrust_fb)
                    before = u.own_wh
                    u.own_wh = left = pt.discharge(self.fb_own_pack, before, p_fb, dt)
                    drawn[u.own_key] = drawn.get(u.own_key, 0.0) + (before - left)
                    if left <= 0.0:
                        self._event(t, "depleted", u.uid, "own")

        # --- telemetry ----------------------------------------------------
        if self.step_index % self.telemetry_decim == 0 or self._column_due:
            self._check_finite()
            self._write_row(t)
        self.step_index += 1

    def _arm_quiet(self, docked: _Unit | None) -> None:
        """End the quiet stretch, then arm a new one after a step that hit
        the host memo with no unit active but the docked one. While the
        host keeps the memo's state tuple and no event is logged, such a
        step repeats: the mission policy does nothing, the host memo holds
        (it arms only under a standing setpoint), and a docked contact
        carries the same load. A later step then only drains the one
        conducting pack under the memo's rotor load and writes telemetry
        (see step), until the stretch's end time: a lone host's next
        dispatch, else never, as the clock is run's. A docked unit must
        sit on an electrical contact that holds, with the relay open (a
        failed contact is shed after a delay). So the pack that conducts
        is the primary alone (relay closed, no secondary) or the docked
        unit's secondary alone (relay open). The stretch's constants are
        that pack's capacity, cell count and internal resistance, the
        diode drop, the memo's rotor load and the OCV segment of the
        pack's state of charge; a full, empty or NaN state of charge lies
        in no segment and arms nothing.

        The row frame is set here too. The stretch holds the host state and
        the docked unit's state tuples fixed, so they pass _check_finite
        once, here; a stretch whose states fail it is not quiet, and its
        row steps raise in _finish_step as on the full path. The columns
        from active_source on (the pack's source, the host and unit
        positions, the unit's id and phase, the contact force and an empty
        events cell) cannot change either; the frame keeps them and their
        text, format_tail's."""
        self._quiet_until = -math.inf
        if docked is not None and (self._slipping or self.circuit.relay_closed):
            return
        try:
            self._check_finite()
        except SimNumericsError:
            return
        if docked is None:
            pack, energy, source, checked = self.primary, self.primary_wh, PRIMARY, None
        else:
            pack, energy, source = self.secondary, docked.secondary_wh, SECONDARY
            checked = docked.state
        span = pt.ocv_segment(energy / pack.capacity_wh)
        if span is None:
            return
        self._quiet = (
            pack.capacity_wh, float(pack.cell_count), pack.internal_resistance,
            self.circuit.diode_drop, self._host_memo[4], *span,
        )
        tail = self._row_tail(source, "")
        self._frame = (checked, tail, format_tail(tail))
        self._quiet_until = math.inf
        if docked is None and self.units:
            # the next dispatch (see _orchestrate)
            ready = min(u.available_at for u in self.units)
            self._quiet_until = max(self.mission.dispatch_delay, ready)

    def _arm_host_memo(self, ms, ints, outputs) -> None:
        """Arm the host fast path if the step just taken from state ms and
        integrators ints mapped both onto themselves bit for bit."""
        pid = self.main_pid
        now = (pid.ix, pid.iy, pid.iz, pid.iyaw)
        ns = self.main_state
        if now != ints or _HOST_FIXED_POINT.pack(*ns, *now) != _HOST_FIXED_POINT.pack(*ms, *ints):
            return
        self._host_memo_state = ns
        self._host_memo = outputs
        # the quiet steps' constants hold the last memo's rotor load
        self._quiet_until = -math.inf

    def _check_finite(self) -> None:
        if not all(map(math.isfinite, self.main_state)):
            raise SimNumericsError(self.step_index, "host dynamics")
        for u in self.active_units:
            if not all(map(math.isfinite, u.state)):
                raise SimNumericsError(self.step_index, f"unit {u.uid} dynamics")
        if not math.isfinite(self.bus.bus_voltage):
            raise SimNumericsError(self.step_index, "powertrain")

    def _telemetry_unit(self) -> _Unit | None:
        if self.docked_unit is not None:
            return self.docked_unit
        if self.incoming is not None:
            return self.incoming
        for u in self.active_units:
            return u
        return None

    def _row_tail(self, source: pt.ActiveSource, events: str) -> tuple:
        """A row's values from active_source on, given the bus source and
        the events cell."""
        mp = self.main_position()
        u = self._telemetry_unit()
        # an Enum's _value_ is its value without the property's Python call
        if u is None:
            fb_id, fb_phase, fb_pos = -1, "none", (0.0, 0.0, 0.0)
        elif u is self.docked_unit:
            # slaved to the platform while docked
            s = self.main_state
            mount = q_rotate((s[6], s[7], s[8], s[9]), MOUNT_OFFSET)
            fb_id, fb_phase = u.uid, u.phase._value_
            fb_pos = (mp[0] + mount[0], mp[1] + mount[1], mp[2] + mount[2])
        else:
            fb_id, fb_phase, fb_pos = u.uid, u.phase._value_, (u.state[0], u.state[1], u.state[2])
        return (
            source._value_, mp[0], mp[1], mp[2],
            fb_id, fb_phase, fb_pos[0], fb_pos[1], fb_pos[2],
            self.contact_normal, events,
        )

    def _write_row(self, t: float) -> None:
        """Write a due row and mark its events written. A writer with no
        sink gets no row, and the row is not built; the caller's
        _check_finite and this bookkeeping still run, so a row step checks
        the same values with or without a sink."""
        events = self.log.events
        if self.writer.sink:
            v, i_p, i_s, source = self.bus
            i_total = i_p + i_s
            mark = self._row_mark
            tail = self._row_tail(source, events_column(events[mark:]) if len(events) > mark else "")
            self.writer.write_row(t, v, i_total, i_p, i_s, v * i_total, tail)
        self._row_mark = len(events)
        self._column_due = False

    # ------------------------------------------------------------------

    def run(self, duration: float | None = None, step=None) -> MissionLog:
        """Step until the mission ends, for duration at most and never past
        sim.duration, which ends a wall_clock mission as wall_clock; any
        other stop on the clock is the duration_guard. step, if given, is
        called in place of self.step and must call self.step once: a
        sweep's hook takes checkpoints and splits the world this way.
        The loop counts the steps left and breaks once the mission has
        ended, so a run of an ended mission takes no step."""
        if duration is None:
            duration = self.duration
        if not (math.isfinite(duration) and duration > 0.0):
            raise ValueError(f"duration must be finite and positive, got {duration}")
        clock_steps = round(self.duration / self.dt)
        n_steps = min(round(duration / self.dt), clock_steps)
        if step is None:
            step = self.step
        try:
            for _ in range(self.step_index, n_steps):
                if self.termination_reason:
                    break
                step()
        finally:
            self.writer.close()
        wall = self.mission.termination == "wall_clock" and self.step_index >= clock_steps
        self._end_mission(self.step_index * self.dt, "wall_clock" if wall else "duration_guard")
        self.log.totals = self.summary_totals()
        return self.log

    def solo_equivalent_time(self) -> float:
        """Hover time of the host alone on a full primary pack."""
        load = pt.hover_power(self.main_params.mass, self.main_params.k_p)
        return pt.time_to_depletion(
            self.primary, self.primary.capacity_wh, load, 0.1, self.circuit.diode_drop
        )

    def summary_totals(self) -> dict[str, object]:
        """Every MissionSummary field the run itself fixes, by name. The
        counts are of logged events: switches to the secondary, failed
        contacts, docks, and undocks (entries into undock_ascend)."""
        t_total = self.step_index * self.dt
        solo = self.solo_equivalent_time()
        counts = Counter((e.kind, e.detail) for e in self.log.events)
        drawn = self.energy_drawn
        return {
            "total_time_s": t_total,
            "solo_equivalent_time_s": solo,
            "extension_factor": t_total / solo if solo > 0.0 else float("nan"),
            "switch_count": counts["switch", "secondary"],
            "contact_failures": counts["contact_failure", ""],
            "dock_count": counts["dock", ""],
            "undock_count": counts["phase", UNDOCK_ASCEND.value],
            "time_on_primary_s": self.time_on_primary,
            "time_on_secondary_s": self.time_on_secondary,
            "max_altitude_error_m": self._alt_err_abs_max,
            "primary_energy_wh": drawn["primary"],
            # summed in first-delivery order, which fixes the float rounding
            "secondary_energy_wh": sum(v for k, v in drawn.items() if k.endswith(".secondary")),
            "energy_drawn": dict(drawn),
        }
