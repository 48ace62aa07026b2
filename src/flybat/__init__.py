"""Deterministic simulator of mid-air docking and in-flight battery
switching between a host quadcopter and a fleet of flying batteries."""

from .aero import DownwashModel, align_torque, downwash_force
from .control import (
    CascadedPid,
    CascadedPidConfig,
    FeedforwardMap,
    build_ff_map,
    default_config,
    export_map_csv,
    feedforward_lookup,
)
from .docking import ContactOutcome, DockPhase, capture_check, fsm_step
from .dynamics import VehicleParams, composite_params, contact_load, docked_mass_share
from .endurance import (
    OPTIMAL_PHI,
    DesignComparison,
    EnduranceInputs,
    EnduranceReport,
    design_comparison,
    flight_time,
    normalized_curve,
)
from .engine import MissionLog, SimNumericsError, World
from .mission import MissionResult, MissionSummary, run_mission, summarize
from .powertrain import (
    ActiveSource,
    BatteryPack,
    BusSample,
    SwitchCircuit,
    SwitchTarget,
    command_switch,
    discharge,
    hover_power,
    ocv,
    solve_bus,
)
from .scenario import Scenario, ScenarioError, bundled_scenario, load_scenario, parse_scenario
from .telemetry import TelemetryRow, read_telemetry

__version__ = "0.1.0"
