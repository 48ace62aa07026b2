"""Hover endurance as a function of battery mass fraction.

With base mass m0 (everything except the battery), battery mass fraction
phi of the total, energy density gamma (Wh/kg) and powertrain constant
k_p (W/kg^1.5):

    total mass   = m0 / (1 - phi)
    battery mass = phi/(1-phi) * m0
    hover power  = k_p * total_mass**1.5
    flight time  = 3600 * gamma * battery_mass / hover_power
                 ~ phi * sqrt(1 - phi) / sqrt(m0)

The shape factor f(phi) = phi*sqrt(1-phi) peaks at phi = 2/3; adding
battery beyond two thirds of the vehicle mass shortens the flight.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt

from .powertrain import hover_power

OPTIMAL_PHI = 2.0 / 3.0  # the battery mass fraction that maximizes hover flight time


class EnduranceError(ValueError):
    """Raised for invalid endurance inputs."""


@dataclass(frozen=True)
class EnduranceInputs:
    m0: float  # kg, mass excluding battery
    phi: float  # battery fraction of total mass, [0, 1)
    gamma: float  # Wh/kg
    k_p: float  # W/kg^1.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isfinite(value):
                raise EnduranceError(f"{f.name} must be finite, got {value}")
        if self.m0 <= 0.0:
            raise EnduranceError(f"m0 must be positive, got {self.m0}")
        if not 0.0 <= self.phi < 1.0:
            raise EnduranceError(f"phi must be in [0, 1), got {self.phi}")
        if self.gamma <= 0.0 or self.k_p <= 0.0:
            raise EnduranceError("gamma and k_p must be positive")


@dataclass(frozen=True)
class EnduranceReport:
    flight_time: float  # s
    total_mass: float  # kg
    battery_mass: float  # kg
    hover_power: float  # W
    normalized_time: float  # flight time over the phi = 2/3 optimum


def shape_factor(phi: float) -> float:
    """f(phi) = phi * sqrt(1 - phi), the phi-dependence of flight time."""
    if not 0.0 <= phi < 1.0:
        raise EnduranceError(f"phi must be in [0, 1), got {phi}")
    return phi * sqrt(1.0 - phi)


def normalized_flight_time(phi: float) -> float:
    """f(phi) / f(2/3); equals 1 at the optimum."""
    return shape_factor(phi) / shape_factor(OPTIMAL_PHI)


def flight_time(inputs: EnduranceInputs) -> EnduranceReport:
    """Hover flight time for a battery mass fraction phi."""
    battery_mass = inputs.phi / (1.0 - inputs.phi) * inputs.m0
    total_mass = inputs.m0 / (1.0 - inputs.phi)
    power = hover_power(total_mass, inputs.k_p)
    t = 3600.0 * inputs.gamma * battery_mass / power
    return EnduranceReport(
        flight_time=t,
        total_mass=total_mass,
        battery_mass=battery_mass,
        hover_power=power,
        normalized_time=normalized_flight_time(inputs.phi),
    )


def normalized_curve(phi_grid=None) -> list[tuple[float, float]]:
    """(phi, normalized flight time) pairs over a phi grid.

    Defaults to 512 evenly spaced points in [0, 0.999]. The curve is a
    pure function of phi: it does not depend on gamma, k_p, or m0."""
    if phi_grid is None:
        n = 512
        phi_grid = [0.999 * i / (n - 1) for i in range(n)]
    return [(float(p), normalized_flight_time(float(p))) for p in phi_grid]


@dataclass(frozen=True)
class DesignComparison:
    """Observed configuration versus the phi = 2/3 design at equal m0."""

    observed_time: float  # s
    optimal_time: float  # s
    optimal_battery_mass: float  # kg
    optimal_total_mass: float  # kg
    gamma_over_kp: float  # (Wh/kg) / (W/kg^1.5), the identifiable calibration


def design_comparison(solo: EnduranceInputs, solo_observed_time: float) -> DesignComparison:
    """Calibrate the gamma/k_p ratio from one observed flight time, then
    report what the optimal-phi design would achieve at the same m0.

    Only the ratio gamma/k_p is identifiable from a single observed
    time; gamma and k_p individually are not."""
    if not (isfinite(solo_observed_time) and solo_observed_time > 0.0):
        raise EnduranceError(f"observed time must be positive and finite, got {solo_observed_time}")
    norm = normalized_flight_time(solo.phi)
    if norm <= 0.0:
        raise EnduranceError("cannot calibrate from a zero-battery configuration")
    # T = 3600 * (gamma/k_p) * f(phi) / sqrt(m0)
    ratio = solo_observed_time * sqrt(solo.m0) / (3600.0 * shape_factor(solo.phi))
    optimal_time = solo_observed_time / norm
    battery = OPTIMAL_PHI / (1.0 - OPTIMAL_PHI) * solo.m0
    total = solo.m0 / (1.0 - OPTIMAL_PHI)
    return DesignComparison(
        observed_time=solo_observed_time,
        optimal_time=optimal_time,
        optimal_battery_mass=battery,
        optimal_total_mass=total,
        gamma_over_kp=ratio,
    )
