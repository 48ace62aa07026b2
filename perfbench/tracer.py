"""Per-layer call tracing for flybat, applied from outside the package.

`Tracer.install()` replaces a fixed set of flybat functions and methods
with timing wrappers, and `uninstall()` puts every original object back.
Wrappers go where flybat looks the names up at call time: on
`flybat.engine`'s own bindings for the functions it imports by name
(`rk4_flat`, `feedforward_lookup`, `downwash_force`, `align_torque`), on
the `flybat.powertrain` and `flybat.docking` modules for `pt.*` and
`dk.*`, and on the classes for methods.

Only in-memory aggregates are kept: per phase and function, a call
count, busy nanoseconds and self nanoseconds (busy minus the wrapped
callees), plus one coarse span per setup, run and summary phase of each
mission. Nothing is recorded per call; paper_demo makes tens of millions
of wrapped calls.

Phases follow the mission's own structure: `World.__init__` is setup,
`World.run` is run, `World.summary_totals` and `mission.summarize` are
summary. Calls made while `World()` is being built (the k_p bisection
drives `discharge` about 430 k times) land in the setup table, never in
the run-phase counts. State is kept per thread, so the threaded sweep
neither loses updates nor mixes phases between points.
"""

from __future__ import annotations

import importlib
import struct
import threading
import time

SETUP, RUN, SUMMARY, OTHER = "setup", "run", "summary", "other"

# (module, class or None, attribute, metric prefix)
TIMED = (
    ("flybat.engine", "World", "step", "engine.step"),
    ("flybat.engine", None, "rk4_flat", "dynamics.rk4_flat"),
    ("flybat.engine", None, "feedforward_lookup", "control.feedforward_lookup"),
    ("flybat.engine", None, "downwash_force", "aero.downwash_force"),
    ("flybat.engine", None, "align_torque", "aero.align_torque"),
    ("flybat.control", "CascadedPid", "position_flat", "control.position_flat"),
    ("flybat.control", "CascadedPid", "attitude_flat", "control.attitude_flat"),
    ("flybat.powertrain", None, "solve_bus", "powertrain.solve_bus"),
    ("flybat.powertrain", None, "discharge", "powertrain.discharge"),
    ("flybat.powertrain", None, "solve_kp_for_endurance", "powertrain.solve_kp_for_endurance"),
    ("flybat.docking", None, "fsm_step", "docking.fsm_step"),
    ("flybat.docking", None, "capture_check", "docking.capture_check"),
    ("flybat.telemetry", "TelemetryWriter", "write_row", "telemetry.write_row"),
    ("flybat.scenario", None, "build_world_inputs", "scenario.build_world_inputs"),
)

# (module, class or None, attribute, metric prefix, phase entered for the call)
PHASED = (
    ("flybat.engine", "World", "__init__", "engine.init", SETUP),
    ("flybat.engine", "World", "run", "engine.run", RUN),
    ("flybat.engine", "World", "summary_totals", "engine.summary_totals", SUMMARY),
    ("flybat.mission", None, "summarize", "mission.summarize", SUMMARY),
)

# the CLI binds run_mission by name; wrapped for per-point wall and wait time
CLI_RUN_MISSION = ("flybat.cli", None, "run_mission")

_HOST_KEY = struct.Struct("17d")


class _ThreadState:
    __slots__ = ("phase", "table", "tables", "stack", "counts", "spans", "prev_world", "prev_key")

    def __init__(self):
        self.phase = OTHER
        self.tables = {OTHER: {}}
        self.table = self.tables[OTHER]
        self.stack = []
        self.counts = {}
        self.spans = []
        self.prev_world = None
        self.prev_key = None

    def enter(self, phase):
        prev = self.phase
        self.phase = phase
        self.table = self.tables.setdefault(phase, {})
        return prev

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.snapshot()` after."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            ts = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(ts)
            return ts

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, after=None):
        state = self._state
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            ts = state()
            stack = ts.stack
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = ts.table.get(name)
                if rec is None:
                    rec = ts.table[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if after is not None:
                after(ts, args, result)
            return result

        return wrapper

    def _phased(self, fn, name, phase):
        state = self._state
        clock = time.perf_counter_ns
        timed = self._timed(fn, name)

        def wrapper(*args, **kwargs):
            ts = state()
            prev = ts.enter(phase)
            t0 = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                ts.spans.append((phase, name, t0, clock()))
                ts.enter(prev)

        return wrapper

    def _cli_run_mission(self, fn):
        from flybat.telemetry import dump_telemetry

        state = self._state

        def wrapper(*args, **kwargs):
            w0 = time.perf_counter_ns()
            c0 = time.thread_time_ns()
            result = fn(*args, **kwargs)
            wall = time.perf_counter_ns() - w0
            cpu = time.thread_time_ns() - c0
            ts = state()
            ts.count("cli.run_mission.calls")
            ts.count("cli.run_mission.wall_ns", wall)
            ts.count("cli.run_mission.wait_ns", wall - cpu)
            rows = result.world.writer.rows
            if rows is not None:
                ts.count("telemetry.memory_bytes", len(dump_telemetry(rows)))
            return result

        return wrapper

    @staticmethod
    def _after_step(ts, args, _result):
        world = args[0]
        pid = world.main_pid
        key = _HOST_KEY.pack(*world.main_state, pid.ix, pid.iy, pid.iz, pid.iyaw)
        if ts.prev_world is world and key == ts.prev_key:
            ts.count("engine.repeat_steps")
        ts.prev_world = world
        ts.prev_key = key
        airborne = 0
        for u in world.active_units:
            if u.airborne:
                airborne += 1
        ts.count("engine.airborne_unit_steps", airborne)

    @staticmethod
    def _after_capture(ts, _args, outcome):
        if outcome.electrical_engaged:
            ts.count("docking.electrical")

    # -- install / uninstall -------------------------------------------------

    def _patch(self, module, cls, attr, make):
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, owned))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        after = {"engine.step": self._after_step, "docking.capture_check": self._after_capture}
        try:
            for module, cls, attr, name in TIMED:
                self._patch(module, cls, attr, lambda fn, n=name: self._timed(fn, n, after.get(n)))
            for module, cls, attr, name, phase in PHASED:
                self._patch(module, cls, attr, lambda fn, n=name, p=phase: self._phased(fn, n, p))
            self._patch(*CLI_RUN_MISSION, self._cli_run_mission)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates of every thread: {"tables": {phase: {name: [calls,
        busy_ns, self_ns]}}, "counts": {name: n}, "spans": [[thread,
        phase, name, start_ns, end_ns], ...]}."""
        tables: dict[str, dict[str, list[int]]] = {}
        counts: dict[str, int] = {}
        spans = []
        with self._lock:
            states = list(self._states)
        for i, ts in enumerate(states):
            for phase, table in ts.tables.items():
                merged = tables.setdefault(phase, {})
                for name, rec in table.items():
                    acc = merged.setdefault(name, [0, 0, 0])
                    for k in range(3):
                        acc[k] += rec[k]
            for name, n in ts.counts.items():
                counts[name] = counts.get(name, 0) + n
            spans.extend([i, *span] for span in ts.spans)
        return {"tables": tables, "counts": counts, "spans": spans}
