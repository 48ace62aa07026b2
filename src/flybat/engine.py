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
from dataclasses import dataclass

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
    rk4_flat,
)
from .geom import q_rotate
from .telemetry import TelemetryRow, TelemetryWriter

GROUND_COM = LEG_HEIGHT  # COM height of a grounded unit

# bit patterns for the host fast path: state + integrators, and the
# setpoint/feedforward/wrench inputs (bytes tell -0.0 from 0.0)
_HOST_FIXED_POINT = struct.Struct("17d")
_HOST_INPUTS = struct.Struct("12d")

# read on every step; an Enum class attribute read is slow on Python 3.11
NO_SOURCE = pt.ActiveSource.NONE

# the four possible FSM command sets, keyed by (dock, undock)
_DOCK_COMMANDS = {
    (dock, undock): dk.DockCommands(dock=dock, undock=undock)
    for dock in (False, True)
    for undock in (False, True)
}


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
    """Ordered mission events plus end-of-run accumulators."""

    def __init__(self):
        self.events: list[MissionEvent] = []
        self.totals: dict[str, float | int] = {}
        self.energy_drawn: dict[str, float] = {}

    def of_kind(self, kind: str) -> list[MissionEvent]:
        return [e for e in self.events if e.kind == kind]


class _Unit:
    """One flying battery: small quadcopter + its secondary pack. The
    pack specs are shared by the fleet; own_wh and secondary_wh are this
    unit's remaining energies, and the *_drawn_wh totals stay None until
    the pack first delivers energy."""

    __slots__ = (
        "uid",
        "params",
        "k_thrust",
        "inv_mass",
        "ii",
        "jj",
        "pid",
        "own_pack",
        "secondary",
        "own_wh",
        "secondary_wh",
        "own_drawn_wh",
        "secondary_drawn_wh",
        "state",
        "phase",
        "ref",
        "home",
        "available_at",
        "spent",
        "cmd_dock",
        "cmd_undock",
        "thrust",
        "docked_since",
    )

    def __init__(self, uid, params, cfg, own_pack, secondary, home):
        self.uid = uid
        self.params = params
        self.k_thrust = pt.k_thrust_from_kp(params.k_p)
        self.inv_mass, self.ii, self.jj = body_constants(params)
        self.pid = CascadedPid(cfg, params.mass)
        self.own_pack = own_pack
        self.secondary = secondary
        self.own_wh = own_pack.capacity_wh
        self.secondary_wh = secondary.capacity_wh
        self.own_drawn_wh: float | None = None
        self.secondary_drawn_wh: float | None = None
        self.home = home
        self.state = (
            home[0], home[1], GROUND_COM,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        self.phase = GROUNDED
        self.ref = [home[0], home[1], GROUND_COM]
        self.available_at = 0.0
        self.spent = False
        self.cmd_dock = False
        self.cmd_undock = False
        self.thrust = 0.0
        self.docked_since = None

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
        self.rng = dk.Pcg64(sim.seed)
        self.rng_draws = 0

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
        self._docked_mass_share = None if comp is None else inp.fb_params.mass / comp.mass
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
        self.bus = pt.BusSample(
            pt.ocv(self.primary, self.primary_wh) - drop, 0.0, 0.0, pt.ActiveSource.PRIMARY
        )

        # aero / feedforward
        self.downwash: DownwashModel = scenario.downwash
        self.ff_map = inp.ff_map

        # docking / fleet
        self.docking = scenario.docking
        self.mission = m
        self.units: list[_Unit] = [
            _Unit(i, inp.fb_params, inp.fb_cfg, inp.fb_own_pack, inp.secondary, home)
            for i, home in enumerate(inp.homes)
        ]
        self.active_units: list[_Unit] = []
        self.incoming: _Unit | None = None

        # bookkeeping
        self.log = MissionLog()
        self.terminated = False
        self.termination_reason = ""
        self.time_on_primary = 0.0
        self.time_on_secondary = 0.0
        self.primary_drawn_wh = 0.0
        # units in the order their secondaries first delivered energy
        self._secondary_draw_order: list[_Unit] = []
        self.switch_count = 0
        self.contact_failure_count = 0
        self.dock_count = 0
        self.undock_count = 0
        self.contact_normal = 0.0
        self.contact_friction = 0.0
        self._slipping = False  # the docked contact slipped on the last step
        self.planar_drag_coeff = sim.planar_drag_coeff
        # log.events[_row_mark:] are the events since the last telemetry
        # row; _column_due is set when one of them shows in its column
        self._row_mark = 0
        self._column_due = False
        self._alt_err_abs_max = 0.0
        # quiescent-host memo (see step): the state tuple it holds for,
        # then (cfg, mass, body constants, ix, iy, iz, iyaw, packed inputs,
        # (thrust, zx, zy, zz, load))
        self._host_memo_state: tuple | None = None
        self._host_memo: tuple = ()

        self.telemetry_decim = max(1, round(1.0 / (sim.telemetry_hz * sim.dt)))
        self.writer = TelemetryWriter(telemetry_path, keep_rows=keep_rows)

        self._event(0.0, "takeoff", detail="main", in_column=False)
        if m.start_docked and self.units:
            u = self.units[0]
            self.active_units.append(u)
            self._attach(u, electrical=True, t=0.0)
            self.circuit = pt.command_switch(self.circuit, pt.SwitchTarget.USE_SECONDARY)
            self._event(0.0, "switch", detail="secondary", in_column=False)
            self.switch_count += 1

    def _event(
        self, t: float, kind: str, uid: int | None = None, detail: str = "", in_column: bool = True
    ) -> None:
        """Record one transition; a column event also forces a telemetry
        row at the end of the step."""
        events = self.log.events
        events.append(MissionEvent(t, len(events), kind, uid, detail, in_column))
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

    def _available_unit(self, t: float) -> _Unit | None:
        for u in self.units:
            if u.phase is GROUNDED and not u.spent and t >= u.available_at:
                return u
        return None

    def _dispatch(self, u: _Unit, t: float) -> None:
        u.cmd_dock = True
        u.pid.reset()
        if u not in self.active_units:
            self.active_units.append(u)
        self.incoming = u
        self._event(t, "dispatch", u.uid)

    def _orchestrate(self, t: float) -> None:
        m = self.mission
        if m.termination == "wall_clock" and t >= self.duration:
            self._end_mission(t, "wall_clock")
            return

        docked = self.docked_unit
        if docked is not None:
            electrical = self.circuit.secondary_present
            if electrical and docked.secondary_wh <= 0.0:
                # secondary exhausted: back to primary, shed the unit,
                # and launch the replacement in the same instant
                self.circuit = pt.command_switch(self.circuit, pt.SwitchTarget.USE_PRIMARY)
                self._event(t, "switch", detail="primary")
                self._command_undock(docked, t)
                nxt = self._available_unit(t)
                if nxt is not None:
                    self._dispatch(nxt, t)
            elif not electrical and docked.docked_since is not None:
                if t - docked.docked_since >= m.failure_redispatch_delay:
                    self._command_undock(docked, t)
                    nxt = self._available_unit(t)
                    if nxt is not None:
                        self._dispatch(nxt, t)
        elif self.incoming is None and m.fleet_size > 0 and t >= m.dispatch_delay:
            nxt = self._available_unit(t)
            if nxt is not None:
                self._dispatch(nxt, t)

        if self.primary_wh <= 0.0 and not (
            self.docked_unit is not None and self.circuit.secondary_present
        ):
            self._end_mission(t, "primary_depleted")

    def _command_undock(self, u: _Unit, t: float) -> None:
        u.cmd_undock = True
        self._event(t, "undock", u.uid)

    def _end_mission(self, t: float, reason: str) -> None:
        if not self.terminated:
            self.terminated = True
            self.termination_reason = reason
            self._event(t, "mission_end", detail=reason)

    # ------------------------------------------------------------------
    # docking transitions
    # ------------------------------------------------------------------

    def _attach(self, u: _Unit, electrical: bool, t: float) -> None:
        ms = self.main_state
        q = (ms[6], ms[7], ms[8], ms[9])
        off = q_rotate(q, self.d_com)
        m_m, m_fb = self.main_params.mass, u.params.mass
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
        u.phase = DOCKED
        u.docked_since = t
        u.thrust = 0.0
        self.main_pid.retune(self.comp_cfg, self.comp_params.mass)
        self.dock_count += 1
        self._event(t, "phase", u.uid, DOCKED.value, in_column=False)
        self._event(t, "dock", u.uid)
        if electrical:
            self.circuit = pt.SwitchCircuit(
                relay_closed=self.circuit.relay_closed,
                diode_drop=self.circuit.diode_drop,
                secondary_present=True,
                switch_command=self.circuit.switch_command,
            )
            self._event(t, "contact", u.uid)
        else:
            self.contact_failure_count += 1
            self._event(t, "contact_failure", u.uid)
        if self.incoming is u:
            self.incoming = None

    def _detach(self, u: _Unit, t: float) -> None:
        ms = self.main_state
        q = (ms[6], ms[7], ms[8], ms[9])
        off = q_rotate(q, self.d_com)
        mount = q_rotate(q, MOUNT_OFFSET)
        main_pos = (ms[0] - off[0], ms[1] - off[1], ms[2] - off[2])
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
        u.docked_since = None
        self.docked_unit = None
        self.undock_count += 1
        # the relay is already closed here (switch-back precedes undock)
        self.circuit = pt.SwitchCircuit(
            relay_closed=True,
            diode_drop=self.circuit.diode_drop,
            secondary_present=False,
            switch_command=pt.SwitchTarget.USE_PRIMARY,
        )
        self.main_pid.retune(self.main_cfg, self.main_params.mass)
        self.contact_normal = 0.0
        self.contact_friction = 0.0

    def _on_grounded(self, u: _Unit, t: float) -> None:
        u.state = (
            u.home[0], u.home[1], GROUND_COM,
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        )
        u.thrust = 0.0
        u.cmd_dock = False
        u.cmd_undock = False
        if u in self.active_units:
            self.active_units.remove(u)
        self._event(t, "landing", u.uid)
        if self.mission.ground_recharge:
            u.available_at = t + self.mission.turnaround_delay
            u.own_wh = u.own_pack.capacity_wh
            u.secondary_wh = u.secondary.capacity_wh
            self._event(t, "recharged", u.uid, in_column=False)
        else:
            u.spent = True

    # ------------------------------------------------------------------
    # per-step subsystems
    # ------------------------------------------------------------------

    def _step_fsms(self, t: float) -> tuple[float, float, float] | None:
        """Step every active unit's FSM; returns the platform point they
        used, or None if none was computed after the last detach."""
        plat = None  # the platform point, until a detach moves it
        for u in tuple(self.active_units):
            if u.phase is DOCKED:
                if u.cmd_undock:
                    self._detach(u, t)
                    plat = None
                    u.phase = UNDOCK_ASCEND
                    u.cmd_undock = False
                    self._event(t, "phase", u.uid, u.phase.value)
                continue
            if plat is None:
                plat = self._platform_point()
            # altitude is the leg plane's height above ground
            s = u.state
            altitude = s[2] - LEG_HEIGHT
            new_phase = dk.fsm_step(
                u.phase,
                self.docking,
                (math.hypot(s[0] - plat[0], s[1] - plat[1]), altitude - plat[2]),
                altitude,
                _DOCK_COMMANDS[u.cmd_dock, u.cmd_undock],
            )
            if new_phase is not u.phase:
                if new_phase is DOCKED:
                    # impact handled post-integration; ignore here
                    continue
                if u.phase is FREE_FALL and new_phase is APPROACH_ABOVE:
                    self._event(t, "bounce_off", u.uid)
                u.phase = new_phase
                if new_phase is TAKEOFF:
                    u.cmd_dock = False
                self._event(t, "phase", u.uid, new_phase.value)
                if new_phase is GROUNDED:
                    self._on_grounded(u, t)
        return plat

    def _fly_unit(self, u: _Unit, dt: float, plat) -> None:
        """Control and integrate one airborne unit over dt, given this
        step's platform point."""
        s = u.state
        if u.phase is FREE_FALL or u.own_wh <= 0.0:
            u.thrust = 0.0
            tqx = tqy = tqz = 0.0
        else:
            # the reference slews toward this phase's goal at its speed
            ph = u.phase
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
            elif ph is LANDING:
                gx, gy, gz, speed = u.home[0], u.home[1], GROUND_COM, cfg.vertical_speed
            else:
                gx = None
            ref = u.ref
            if gx is None:
                rvx = rvy = rvz = 0.0
            else:
                dx = gx - ref[0]
                dy = gy - ref[1]
                dz = gz - ref[2]
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                step = speed * dt
                if dist <= step or dist == 0.0:
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
                0.0, 0.0, 0.0, 0.0, 0.0, dt,
            )
            tqx, tqy, tqz = pid.attitude_flat(
                s[6], s[7], s[8], s[9], s[10], s[11], s[12], q_des, dt
            )
        # thrust along the body z axis of the unit's attitude
        qw, qx, qy, qz = s[6], s[7], s[8], s[9]
        thrust = u.thrust
        u.state = ns = rk4_flat(
            s, dt, u.inv_mass, u.ii, u.jj,
            2.0 * (qx * qz + qw * qy) * thrust,
            2.0 * (qy * qz - qw * qx) * thrust,
            (1.0 - 2.0 * (qx * qx + qy * qy)) * thrust,
            tqx, tqy, tqz,
        )
        if not math.isfinite(sum(ns)):
            raise SimNumericsError(self.step_index, f"unit {u.uid} dynamics")

    def step(self) -> None:
        """Advance the world one dt."""
        dt = self.dt
        t = self.step_index * dt

        # cheap finiteness test: a nan or inf anywhere makes the sum one
        ms = self.main_state
        if not math.isfinite(sum(ms)):
            raise SimNumericsError(self.step_index, "host dynamics")

        self._orchestrate(t)
        if self.terminated:
            self._write_row(t)
            return
        active = self.active_units
        docked = self.docked_unit
        plat = None
        # a lone docked unit has FSM work only when told to undock
        if active and (docked is None or len(active) > 1 or docked.cmd_undock):
            try:
                plat = self._step_fsms(t)
            except dk.DockingError as exc:
                raise SimNumericsError(self.step_index, "docking geometry") from exc

        # --- flying battery controls and integration -------------------
        docked = self.docked_unit
        ms = self.main_state
        airborne = None
        if active and (docked is None or len(active) > 1):
            airborne = [u for u in active if u.phase is not DOCKED]
        if airborne:
            if docked is None:
                mpx, mpy, mpz = ms[0], ms[1], ms[2]
            else:
                off = q_rotate((ms[6], ms[7], ms[8], ms[9]), self.d_com)
                mpx, mpy, mpz = ms[0] - off[0], ms[1] - off[1], ms[2] - off[2]
            if plat is None:
                plat = self._platform_point()
            for u in airborne:
                self._fly_unit(u, dt, plat)

        # --- host setpoint, downwash, control ---------------------------
        hx, hy, hz = self.hover_position
        svx = sax = 0.0
        m = self.mission
        if m.oscillation_amplitude > 0.0 and m.oscillation_omega > 0.0:
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

        ff = 0.0
        fx = fy = fz = 0.0
        tx = ty = tz = 0.0
        if airborne:
            for u in airborne:
                uth = u.thrust
                if uth <= 0.0:
                    continue
                us = u.state
                rel = (us[0] - mpx, us[1] - mpy, us[2] - mpz)
                ff += feedforward_lookup(self.ff_map, rel)
                f = downwash_force(self.downwash, rel, uth)
                fz += f[2]
                tq = align_torque(self.downwash, rel)
                tx += tq[0]
                ty += tq[1]
                tz += tq[2]

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

        # A host whose state and integrators map onto themselves bitwise
        # under unchanged inputs repeats the same step: reuse its thrust,
        # thrust axis and rotor load and leave state and integrators as
        # they are.
        # Objects are matched by identity (any write replaces them), the
        # inputs bit for bit.
        pid = self.main_pid
        body = self._main_solo_body if docked is None else self._main_comp_body
        inv_mass, ii, jj = body
        memo = self._host_memo
        if (
            ms is self._host_memo_state
            and pid.cfg is memo[0]
            and pid.mass is memo[1]
            and body is memo[2]
            and pid.ix is memo[3]
            and pid.iy is memo[4]
            and pid.iz is memo[5]
            and pid.iyaw is memo[6]
            and _HOST_INPUTS.pack(hx, hy, hz, svx, sax, ff, fx, fy, fz, tx, ty, tz) == memo[7]
        ):
            thrust, zx, zy, zz, load = memo[8]
        else:
            ints = (pid.ix, pid.iy, pid.iz, pid.iyaw)
            thrust, q_des = pid.position_flat(
                ms[0], ms[1], ms[2], ms[3], ms[4], ms[5],
                hx, hy, hz, svx, 0.0, 0.0,
                sax, 0.0, 0.0, ff, 0.0, dt,
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
            if ns == ms:
                inputs = (hx, hy, hz, svx, sax, ff, fx, fy, fz, tx, ty, tz)
                self._arm_host_memo(ms, ints, body, inputs, (thrust, zx, zy, zz, load))

        # --- docked contact diagnostic ---------------------------------
        if docked is not None:
            ext_axial = drag_fx * zx + drag_fy * zy
            pl2 = drag_fx * drag_fx + drag_fy * drag_fy - ext_axial * ext_axial
            ext_planar = math.sqrt(pl2) if pl2 > 0.0 else 0.0
            ratio = self._docked_mass_share
            self.contact_normal = ratio * (thrust + ext_axial)
            self.contact_friction = ratio * ext_planar
            slipping = not (
                self.contact_normal >= 0.0
                and self.contact_friction <= self.docking.mu * self.contact_normal
            )
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
                        if outcome.draw is not None:
                            self.rng_draws += 1
                        if outcome.mechanical_engaged:
                            self._attach(u, outcome.electrical_engaged, t)
                            if outcome.electrical_engaged:
                                self.circuit = pt.command_switch(
                                    self.circuit, pt.SwitchTarget.USE_SECONDARY
                                )
                                self._event(t, "switch", detail="secondary")
                                self.switch_count += 1
                        else:
                            u.phase = APPROACH_ABOVE
                            self._event(t, "bounce_off", u.uid)
                            self._event(t, "phase", u.uid, u.phase.value, in_column=False)

        # --- powertrain --------------------------------------------------
        docked = self.docked_unit
        if docked is None:
            bus = pt.solve_bus(self.circuit, self.primary, self.primary_wh, None, 0.0, load)
        else:
            bus = pt.solve_bus(
                self.circuit, self.primary, self.primary_wh,
                docked.secondary, docked.secondary_wh, load,
            )
        self.bus = bus
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
                self.primary_drawn_wh += before - left
                self.time_on_primary += dt
                if left <= 0.0:
                    self._event(t, "depleted", detail="primary")
            if i_s > 0.0 and docked is not None:
                share = load * i_s / (i_p + i_s)
                before = docked.secondary_wh
                docked.secondary_wh = left = pt.discharge(docked.secondary, before, share, dt, i_s)
                if docked.secondary_drawn_wh is None:
                    docked.secondary_drawn_wh = 0.0
                    self._secondary_draw_order.append(docked)
                docked.secondary_drawn_wh += before - left
                self.time_on_secondary += dt
                if left <= 0.0:
                    self._event(t, "depleted", docked.uid, "secondary")
        if airborne:
            for u in airborne:
                if u.thrust > 0.0 and u.own_wh > 0.0:
                    p_fb = pt.total_rotor_power(u.thrust, u.k_thrust)
                    before = u.own_wh
                    u.own_wh = left = pt.discharge(u.own_pack, before, p_fb, dt)
                    if u.own_drawn_wh is None:
                        u.own_drawn_wh = 0.0
                    u.own_drawn_wh += before - left
                    if left <= 0.0:
                        self._event(t, "depleted", u.uid, "own")

        # --- telemetry ----------------------------------------------------
        if self.step_index % self.telemetry_decim == 0 or self._column_due:
            self._check_finite()
            self._write_row(t)
        self.step_index += 1

    def _arm_host_memo(self, ms, ints, body, inputs, outputs) -> None:
        """Arm the host fast path if the step just taken from state ms and
        integrators ints mapped both onto themselves bit for bit."""
        pid = self.main_pid
        now = (pid.ix, pid.iy, pid.iz, pid.iyaw)
        ns = self.main_state
        if now != ints or _HOST_FIXED_POINT.pack(*ns, *now) != _HOST_FIXED_POINT.pack(*ms, *ints):
            return
        self._host_memo_state = ns
        self._host_memo = (pid.cfg, pid.mass, body, *now, _HOST_INPUTS.pack(*inputs), outputs)

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

    def _write_row(self, t: float) -> None:
        mp = self.main_position()
        u = self._telemetry_unit()
        if u is None:
            fb_id, fb_phase, fb_pos = -1, "none", (0.0, 0.0, 0.0)
        elif u is self.docked_unit:
            # slaved to the platform while docked
            s = self.main_state
            mount = q_rotate((s[6], s[7], s[8], s[9]), MOUNT_OFFSET)
            fb_id, fb_phase = u.uid, u.phase.value
            fb_pos = (mp[0] + mount[0], mp[1] + mount[1], mp[2] + mount[2])
        else:
            fb_id, fb_phase, fb_pos = u.uid, u.phase.value, (u.state[0], u.state[1], u.state[2])
        v, i_p, i_s, source = self.bus
        i_total = i_p + i_s
        events = self.log.events
        mark = self._row_mark
        row = TelemetryRow(
            t, v, i_total, i_p, i_s, v * i_total, source.value,
            mp[0], mp[1], mp[2],
            fb_id, fb_phase, fb_pos[0], fb_pos[1], fb_pos[2],
            self.contact_normal,
            events_column(events[mark:]) if len(events) > mark else "",
        )
        self.writer.write_row(row)
        self._row_mark = len(events)
        self._column_due = False

    # ------------------------------------------------------------------

    def run(self, duration: float | None = None) -> MissionLog:
        """Step until termination or the duration guard elapses."""
        if duration is None:
            duration = self.duration
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        n_steps = round(duration / self.dt)
        step = self.step
        try:
            while self.step_index < n_steps and not self.terminated:
                step()
        finally:
            self.writer.close()
        t_end = self.step_index * self.dt
        if not self.terminated:
            self._end_mission(t_end, "duration_guard")
        self.log.totals = self.summary_totals()
        # keyed by pack, for the packs that delivered energy
        drawn = {"primary": self.primary_drawn_wh}
        for u in self._secondary_draw_order:
            drawn[f"unit{u.uid}.secondary"] = u.secondary_drawn_wh
        for u in self.units:
            if u.own_drawn_wh is not None:
                drawn[f"unit{u.uid}.own"] = u.own_drawn_wh
        self.log.energy_drawn = drawn
        return self.log

    def solo_equivalent_time(self) -> float:
        """Hover time of the host alone on a full primary pack."""
        load = pt.hover_power(self.main_params.mass, self.main_params.k_p)
        return pt.time_to_depletion(
            self.primary, self.primary.capacity_wh, load, 0.1, self.circuit.diode_drop
        )

    def summary_totals(self) -> dict[str, float | int]:
        """Every MissionSummary field the run itself fixes, by name."""
        t_total = self.step_index * self.dt
        solo = self.solo_equivalent_time()
        return {
            "total_time_s": t_total,
            "solo_equivalent_time_s": solo,
            "extension_factor": t_total / solo if solo > 0.0 else float("nan"),
            "switch_count": self.switch_count,
            "contact_failures": self.contact_failure_count,
            "dock_count": self.dock_count,
            "undock_count": self.undock_count,
            "time_on_primary_s": self.time_on_primary,
            "time_on_secondary_s": self.time_on_secondary,
            "max_altitude_error_m": self._alt_err_abs_max,
            "primary_energy_wh": self.primary_drawn_wh,
            # summed in first-draw order, which fixes the float rounding
            "secondary_energy_wh": sum(u.secondary_drawn_wh for u in self._secondary_draw_order),
        }
