"""Parametric downwash disturbance between vertically separated vehicles.

Only the lower vehicle is affected. The force on it is purely vertical
(downward), with a Gaussian falloff in lateral offset and an exponential
falloff in vertical gap:

    |F| = peak_force_ratio * upper_thrust
          * exp(-(lateral/lateral_decay)^2) * exp(-gap/vertical_decay)

The induced torque tilts the lower vehicle so that it drifts toward
vertical alignment with the upper one; its magnitude grows with lateral
offset under the same envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, sqrt

from .geom import Vec3


@dataclass
class DownwashModel:
    """The scenario's [downwash] section; `Scenario.validate` checks the
    ranges."""

    peak_force_ratio: float = 0.25  # fraction of upper thrust at zero offset, zero gap
    lateral_decay: float = 0.12  # m, roughly the small vehicle's prop span
    vertical_decay: float = 0.5  # m
    align_torque_gain: float = 0.05  # N*m per m of lateral offset at zero gap


def _envelope(model: DownwashModel, lateral: float, gap: float) -> float:
    u = lateral / model.lateral_decay
    return exp(-u * u) * exp(-gap / model.vertical_decay)


def downwash_force(model: DownwashModel, rel_pos: Vec3, upper_thrust: float) -> Vec3:
    """Force on the lower vehicle, world frame.

    rel_pos points from the lower vehicle to the upper one. A vehicle
    above its neighbour (rel_pos z < 0) feels nothing; planar components
    are identically zero."""
    dz = rel_pos[2]
    if dz < 0.0 or upper_thrust <= 0.0:
        return (0.0, 0.0, 0.0)
    lateral = sqrt(rel_pos[0] * rel_pos[0] + rel_pos[1] * rel_pos[1])
    mag = model.peak_force_ratio * upper_thrust * _envelope(model, lateral, dz)
    return (0.0, 0.0, -mag)


def align_torque(model: DownwashModel, rel_pos: Vec3) -> Vec3:
    """Torque on the lower vehicle, body frame (near-level assumption).

    Directed so the induced tilt accelerates the lower vehicle toward
    the point beneath the upper one: for the upper vehicle offset along
    +x the torque is about +y, tilting the thrust axis toward +x."""
    dz = rel_pos[2]
    if dz < 0.0:
        return (0.0, 0.0, 0.0)
    dx, dy = rel_pos[0], rel_pos[1]
    lateral = sqrt(dx * dx + dy * dy)
    if lateral == 0.0:
        return (0.0, 0.0, 0.0)
    mag = model.align_torque_gain * lateral * _envelope(model, lateral, dz)
    # z_hat x planar_offset_direction
    inv = 1.0 / lateral
    return (-dy * inv * mag, dx * inv * mag, 0.0)
