"""Small quaternion and vector helpers used by the dynamics and control loops.

Everything operates on plain tuples of floats. The simulation steps at
1 kHz, so these stay allocation-light and avoid numpy for 3-vectors.
Quaternions are (w, x, y, z), unit norm, body-to-world.
"""

from __future__ import annotations

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]


def q_rotate(q: Quat, v: Vec3) -> Vec3:
    """Rotate vector v from body to world frame by unit quaternion q."""
    w, qx, qy, qz = q
    vx, vy, vz = v
    # t = 2 * (q_vec x v); v' = v + w*t + q_vec x t
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + w * tx + qy * tz - qz * ty,
        vy + w * ty + qz * tx - qx * tz,
        vz + w * tz + qx * ty - qy * tx,
    )
