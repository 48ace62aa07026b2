"""Cascaded PID position/attitude control and the feedforward thrust map.

The position loop turns position error into a desired acceleration (PID
with reference-velocity damping and optional acceleration feedforward),
from which the desired total thrust and attitude follow. The attitude
loop is PD on the axis-angle rotation error with integral action on yaw.
The host vehicle adds a feedforward thrust looked up from a map over the
relative position of the vehicle above it; the small vehicle flies the
same cascade without the feedforward term.

Gains come from pole placement on the double-integrator approximation,
at the natural frequencies and damping ratios of the scenario's
[control] section. Attitude gains are stated in torque units, scaled by
the vehicle inertia.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import atan2, hypot, inf, sqrt

from .dynamics import GRAVITY, VehicleParams
from .geom import Quat, Vec3

log = logging.getLogger(__name__)

POS_INT_LIMIT = 2.0  # m*s, clamp on each integrated position error
YAW_INT_LIMIT = 0.5  # rad*s, clamp on the integrated yaw error


class ControlError(ValueError):
    """Raised for invalid controller configuration."""


@dataclass(frozen=True)
class CascadedPidConfig:
    """Controller gains and thrust limit. Each position gain acts alike
    on all three axes."""

    pos_p: float  # 1/s^2
    pos_i: float  # 1/s^3
    pos_d: float  # 1/s
    att_p: Vec3  # N*m/rad
    att_d: Vec3  # N*m/(rad/s)
    yaw_i: float  # N*m/(rad*s)
    max_thrust: float  # N

    def __post_init__(self):
        if any(g < 0.0 for g in (self.pos_p, self.pos_i, self.pos_d)):
            raise ControlError("position gains must be non-negative")
        if any(g < 0.0 for g in (*self.att_p, *self.att_d)) or self.yaw_i < 0.0:
            raise ControlError("attitude gains must be non-negative")
        if self.max_thrust <= 0.0:
            raise ControlError("max_thrust must be positive")


def default_config(
    params: VehicleParams, pos_wn: float, pos_zeta: float, att_wn: float, att_zeta: float
) -> CascadedPidConfig:
    """Pole-placement gains for one vehicle: natural frequencies in rad/s."""
    kp = pos_wn * pos_wn
    kd = 2.0 * pos_zeta * pos_wn
    ki = 0.5 * kp  # slow integral; Routh margin kp*kd >> ki
    att_p = tuple(i * att_wn * att_wn for i in params.inertia)
    att_d = tuple(i * 2.0 * att_zeta * att_wn for i in params.inertia)
    return CascadedPidConfig(
        pos_p=kp,
        pos_i=ki,
        pos_d=kd,
        att_p=att_p,
        att_d=att_d,
        yaw_i=params.inertia[2] * 50.0,
        max_thrust=params.max_thrust,
    )


class CascadedPid:
    """One controller instance per vehicle; holds integrator state. The
    gains of cfg are kept as two flat tuples, which the 1 kHz loops
    unpack into locals."""

    __slots__ = ("mass", "pos_gains", "att_gains", "ix", "iy", "iz", "iyaw")

    def __init__(self, cfg: CascadedPidConfig, mass: float):
        self.retune(cfg, mass)
        self.reset()

    def reset(self) -> None:
        self.ix = 0.0
        self.iy = 0.0
        self.iz = 0.0
        self.iyaw = 0.0

    def retune(self, cfg: CascadedPidConfig, mass: float) -> None:
        """Swap gains and mass (dock/undock transitions); integrators
        carry over since they act in acceleration units."""
        self.mass = mass
        self.pos_gains = (cfg.pos_p, cfg.pos_i, cfg.pos_d, cfg.max_thrust)
        self.att_gains = (*cfg.att_p, *cfg.att_d, cfg.yaw_i)

    def position_flat(
        self, px, py, pz, vx, vy, vz, rx, ry, rz, rvx, rvy, rvz,
        ffx, ffy, ffz, ff_thrust, dt,
    ) -> tuple[float, Quat]:
        """Desired total thrust (N, clamped) and attitude for this step.

        (rx, ry, rz) is the reference position and (rvx, rvy, rvz) the
        reference velocity (zero for a fixed hover point); (ffx, ffy,
        ffz) is a feedforward acceleration for scripted maneuvers, and
        ff_thrust the downwash-rejection term added directly to the
        total thrust. The heading is held at 0, along world x."""
        kp, ki, kd, max_thrust = self.pos_gains
        lim = POS_INT_LIMIT
        ex, ey, ez = rx - px, ry - py, rz - pz
        ix = self.ix + ex * dt
        iy = self.iy + ey * dt
        iz = self.iz + ez * dt
        self.ix = ix = lim if ix > lim else (-lim if ix < -lim else ix)
        self.iy = iy = lim if iy > lim else (-lim if iy < -lim else iy)
        self.iz = iz = lim if iz > lim else (-lim if iz < -lim else iz)
        ax = kp * ex + ki * ix + kd * (rvx - vx) + ffx
        ay = kp * ey + ki * iy + kd * (rvy - vy) + ffy
        az = kp * ez + ki * iz + kd * (rvz - vz) + ffz
        m = self.mass
        fx, fy, fz = m * ax, m * ay, m * (az + GRAVITY)
        n = sqrt(fx * fx + fy * fy + fz * fz)
        thrust = n + ff_thrust
        if thrust < 0.0:
            thrust = 0.0
        elif thrust > max_thrust:
            thrust = max_thrust
        # Attitude whose body z axis points along (fx, fy, fz) at heading
        # 0, or level when that force is near zero, points straight down
        # or lies along world x. One 1 kHz call per vehicle, so the
        # triad, the rotation matrix to quaternion step and the
        # normalisation are written out; tests/test_control.py checks them
        # bit for bit against the composed helpers at heading 0.
        if n < 1.0e-9:
            return thrust, (1.0, 0.0, 0.0, 0.0)
        zx, zy, zz = fx / n, fy / n, fz / n
        if zz < -0.999999:
            return thrust, (1.0, 0.0, 0.0, 0.0)
        # x_c = (1, 0, 0) is the heading; y_b = z_b x x_c, x_b = y_b x z_b
        yx = zy * 0.0 - zz * 0.0
        yy = zz - zx * 0.0
        yz = zx * 0.0 - zy
        yn = sqrt(yx * yx + yy * yy + yz * yz)
        if yn == 0.0:
            return thrust, (1.0, 0.0, 0.0, 0.0)
        yx, yy, yz = yx / yn, yy / yn, yz / yn
        xx = yy * zz - yz * zy
        xy = yz * zx - yx * zz
        xz = yx * zy - yy * zx
        # the matrix with columns x_b, y_b, z_b as a quaternion
        tr = xx + yy + zz
        if tr > 0.0:
            s = sqrt(tr + 1.0) * 2.0
            w, x, y, z = 0.25 * s, (yz - zy) / s, (zx - xz) / s, (xy - yx) / s
        else:
            # xx = (zz/yn)*zz + (zy/yn)*zy > 0, and tr <= 0 forces zz < 0,
            # so yy = zz/yn < 0: xx is the largest diagonal entry
            s = sqrt(1.0 + xx - yy - zz) * 2.0
            w, x, y, z = (yz - zy) / s, 0.25 * s, (yx + xy) / s, (zx + xz) / s
        inv = 1.0 / sqrt(w * w + x * x + y * y + z * z)
        return thrust, (w * inv, x * inv, y * inv, z * inv)

    def attitude_flat(self, qw, qx, qy, qz, wx, wy, wz, q_des, dt) -> Vec3:
        """Body torque from PD on the rotation error plus yaw integral.

        The error is the body-frame axis-angle rotation taking (qw, qx, qy,
        qz) to q_des along the shortest arc: the scalar part of
        conj(q) * q_des is forced non-negative before the rotation vector
        is taken."""
        dw, dx, dy, dz = q_des
        nx, ny, nz = -qx, -qy, -qz
        w = qw * dw - nx * dx - ny * dy - nz * dz
        x = qw * dx + nx * dw + ny * dz - nz * dy
        y = qw * dy - nx * dz + ny * dw + nz * dx
        z = qw * dz + nx * dy - ny * dx + nz * dw
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        s = sqrt(x * x + y * y + z * z)
        if s < 1.0e-12:
            ex, ey, ez = 2.0 * x, 2.0 * y, 2.0 * z
        else:
            k = 2.0 * atan2(s, w) / s
            ex, ey, ez = x * k, y * k, z * k
        kpx, kpy, kpz, kdx, kdy, kdz, kiyaw = self.att_gains
        lim = YAW_INT_LIMIT
        iyaw = self.iyaw + ez * dt
        self.iyaw = iyaw = lim if iyaw > lim else (-lim if iyaw < -lim else iyaw)
        return (
            kpx * ex - kdx * wx,
            kpy * ey - kdy * wy,
            kpz * ez - kdz * wz + kiyaw * iyaw,
        )


# --------------------------------------------------------------------------
# Feedforward thrust map
# --------------------------------------------------------------------------

@dataclass
class FeedforwardMap:
    """Extra host thrust, binned over (lateral offset, vertical gap) of
    the vehicle above. Values sit at bin centers; lookups interpolate
    bilinearly between centers and read zero outside the binned area.
    Edges, centers and values are tuples of floats, fixed at
    construction: each axis has two or more finite, strictly increasing
    edges, and each value is finite and non-negative."""

    lat_edges: tuple[float, ...]  # nl + 1
    gap_edges: tuple[float, ...]  # ng + 1
    values: tuple[tuple[float, ...], ...]  # nl rows of ng, N

    def __post_init__(self):
        self.lat_edges = lat = tuple(float(x) for x in self.lat_edges)
        self.gap_edges = gap = tuple(float(x) for x in self.gap_edges)
        self.values = tuple(tuple(float(x) for x in row) for row in self.values)
        for axis, edges in (("lat_edges", lat), ("gap_edges", gap)):
            if len(edges) < 2 or not all(-inf < a < b < inf for a, b in zip(edges, edges[1:])):
                raise ControlError(
                    f"{axis} must be two or more finite, strictly increasing edges, got {edges}"
                )
        nl, ng = len(lat) - 1, len(gap) - 1
        if len(self.values) != nl or any(len(row) != ng for row in self.values):
            raise ControlError(f"map values do not match bins ({nl}, {ng})")
        if not all(0.0 <= x < inf for row in self.values for x in row):
            raise ControlError("feedforward thrust entries must be finite and non-negative")
        self.lat_centers = tuple(0.5 * (a + b) for a, b in zip(lat, lat[1:]))
        self.gap_centers = tuple(0.5 * (a + b) for a, b in zip(gap, gap[1:]))


def zero_map(lat_edges, gap_edges) -> FeedforwardMap:
    row = [0.0] * (len(gap_edges) - 1)
    return FeedforwardMap(lat_edges, gap_edges, [row] * (len(lat_edges) - 1))


def _interp_axis(centers: tuple[float, ...], x: float) -> tuple[int, int, float]:
    """Clamped linear interpolation weights on a center grid."""
    if x <= centers[0]:
        return 0, 0, 0.0
    if x >= centers[-1]:
        n = len(centers) - 1
        return n, n, 0.0
    j = bisect_left(centers, x) - 1
    c0 = centers[j]
    return j, j + 1, (x - c0) / (centers[j + 1] - c0)


def feedforward_lookup(ff_map: FeedforwardMap, rel_pos: Vec3) -> float:
    """Feedforward thrust (N) for the given relative position of the
    upper vehicle (lower-to-upper). Zero outside the map support or when
    the upper vehicle is below."""
    gap = rel_pos[2]
    if gap < 0.0:
        return 0.0
    lateral = hypot(rel_pos[0], rel_pos[1])
    if lateral > ff_map.lat_edges[-1] or gap > ff_map.gap_edges[-1]:
        return 0.0
    i0, i1, ti = _interp_axis(ff_map.lat_centers, lateral)
    j0, j1, tj = _interp_axis(ff_map.gap_centers, gap)
    v = ff_map.values
    a = v[i0][j0] * (1.0 - tj) + v[i0][j1] * tj
    b = v[i1][j0] * (1.0 - tj) + v[i1][j1] * tj
    return a * (1.0 - ti) + b * ti


def build_ff_map(telemetry, lat_edges, gap_edges) -> FeedforwardMap:
    """Bin-average integral thrust offsets into a feedforward map.

    telemetry is an iterable of (rel_pos, integral_thrust_offset) pairs
    gathered while holding station at various relative separations.
    Cells with no samples stay zero; an all-empty input yields a zero
    map with a warning."""
    lat_edges = [float(x) for x in lat_edges]
    gap_edges = [float(x) for x in gap_edges]
    nl, ng = len(lat_edges) - 1, len(gap_edges) - 1
    total = [[0.0] * ng for _ in range(nl)]
    count = [[0] * ng for _ in range(nl)]
    for rel_pos, offset in telemetry:
        lateral = hypot(rel_pos[0], rel_pos[1])
        gap = rel_pos[2]
        if not (lat_edges[0] <= lateral <= lat_edges[-1]):
            continue
        if not (gap_edges[0] <= gap <= gap_edges[-1]):
            continue
        i = min(bisect_right(lat_edges, lateral) - 1, nl - 1)
        j = min(bisect_right(gap_edges, gap) - 1, ng - 1)
        total[i][j] += max(0.0, float(offset))
        count[i][j] += 1
    if not any(any(row) for row in count):
        log.warning("no usable feedforward samples; returning a zero map")
        return zero_map(lat_edges, gap_edges)
    values = [[t / n if n else 0.0 for t, n in zip(*rows)] for rows in zip(total, count)]
    return FeedforwardMap(lat_edges, gap_edges, values)


def map_from_model(model, upper_thrust: float, lat_edges, gap_edges) -> FeedforwardMap:
    """Feedforward map evaluated directly from a downwash model at bin
    centers: the converged result of the learn-from-integrals procedure."""
    from .aero import downwash_force

    m = zero_map(lat_edges, gap_edges)
    values = [
        [-downwash_force(model, (lat, 0.0, gap), upper_thrust)[2] for gap in m.gap_centers]
        for lat in m.lat_centers
    ]
    return FeedforwardMap(m.lat_edges, m.gap_edges, values)


def export_map_csv(ff_map: FeedforwardMap, path) -> None:
    # full precision so imported maps reproduce the lookup bit for bit
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# ff_map schema=1\n")
        fh.write("lat_edges," + ",".join(f"{x:.17g}" for x in ff_map.lat_edges) + "\n")
        fh.write("gap_edges," + ",".join(f"{x:.17g}" for x in ff_map.gap_edges) + "\n")
        for row in ff_map.values:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def import_map_csv(path) -> FeedforwardMap:
    """The map export_map_csv wrote; any fault in the file is a
    ControlError that names it."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("# ff_map"):
        raise ControlError(f"{path} is not a feedforward map file")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, label in enumerate(("lat_edges", "gap_edges")):
        if i >= len(rows) or rows[i][0] != label:
            raise ControlError(f"{path}: {label} row missing or mislabelled")
    try:
        lat = [float(x) for x in rows[0][1:]]
        gap = [float(x) for x in rows[1][1:]]
        return FeedforwardMap(lat, gap, [[float(x) for x in row] for row in rows[2:]])
    except ValueError as exc:
        raise ControlError(f"{path}: {exc}") from None
