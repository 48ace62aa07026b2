"""Small quaternion and vector helpers used by the dynamics and control loops.

Everything operates on plain tuples of floats. The simulation steps at
1 kHz, so these stay allocation-light and avoid numpy for 3-vectors.
Quaternions are (w, x, y, z), unit norm, body-to-world.
"""

from __future__ import annotations

from math import atan2, cos, sin, sqrt

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]


def q_normalize(q: Quat) -> Quat:
    n = sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    inv = 1.0 / n
    return (q[0] * inv, q[1] * inv, q[2] * inv, q[3] * inv)


def q_multiply(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def q_conjugate(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


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


def q_body_z(q: Quat) -> Vec3:
    """World-frame direction of the body z axis (thrust axis)."""
    w, x, y, z = q
    return (2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y))


def q_error_rotvec(q_current: Quat, q_desired: Quat) -> Vec3:
    """Axis-angle rotation (body frame) taking q_current to q_desired.

    Shortest arc: the scalar part is forced non-negative before
    extracting the rotation vector.
    """
    e = q_multiply(q_conjugate(q_current), q_desired)
    w, x, y, z = e
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = sqrt(x * x + y * y + z * z)
    if s < 1.0e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    angle = 2.0 * atan2(s, w)
    k = angle / s
    return (x * k, y * k, z * k)


def q_from_yaw(yaw: float) -> Quat:
    half = 0.5 * yaw
    return (cos(half), 0.0, 0.0, sin(half))


def attitude_from_thrust_direction(f_des: Vec3, yaw: float) -> Quat:
    """Quaternion whose body z axis points along f_des with the given yaw.

    Falls back to pure yaw when the desired force is degenerate (near zero
    or pointing straight down).
    """
    fx, fy, fz = f_des
    n = sqrt(fx * fx + fy * fy + fz * fz)
    if n < 1.0e-9:
        return q_from_yaw(yaw)
    zx, zy, zz = fx / n, fy / n, fz / n
    if zz < -0.999999:
        return q_from_yaw(yaw)
    # x_c is the yaw heading; build an orthonormal triad around z_b = f_des/|f_des|
    cx, cy = cos(yaw), sin(yaw)
    # y_b = z_b x x_c, then x_b = y_b x z_b
    yx = zy * 0.0 - zz * cy
    yy = zz * cx - zx * 0.0
    yz = zx * cy - zy * cx
    yn = sqrt(yx * yx + yy * yy + yz * yz)
    yx, yy, yz = yx / yn, yy / yn, yz / yn
    xx = yy * zz - yz * zy
    xy = yz * zx - yx * zz
    xz = yx * zy - yy * zx
    # matrix (columns x_b, y_b, z_b) to quaternion
    return _matrix_to_quat((xx, yx, zx), (xy, yy, zy), (xz, yz, zz))


def _matrix_to_quat(r0, r1, r2) -> Quat:
    m00, m01, m02 = r0
    m10, m11, m12 = r1
    m20, m21, m22 = r2
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = sqrt(tr + 1.0) * 2.0
        return q_normalize(((0.25 * s), (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s))
    if m00 > m11 and m00 > m22:
        s = sqrt(1.0 + m00 - m11 - m22) * 2.0
        return q_normalize(((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s))
    if m11 > m22:
        s = sqrt(1.0 + m11 - m00 - m22) * 2.0
        return q_normalize(((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s))
    s = sqrt(1.0 + m22 - m00 - m11) * 2.0
    return q_normalize(((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s))
