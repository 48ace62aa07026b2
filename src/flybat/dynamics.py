"""Rigid-body vehicle dynamics, docked-pair composition, and the docked
contact rule.

World frame is z-up with gravity 9.81 m/s^2. States use SI units
throughout. The docked pair is treated as a single rigid body while
engaged; `contact_load` evaluates the contact loads diagnostically from
the zero-relative-acceleration condition:

    normal   = m_fb * f_T / (m_m + m_fb)
    friction = m_fb * f_ext_planar / (m_m + m_fb)

with f_T the host's total thrust along its body z axis and f_ext_planar
an external force in the platform plane. Rotary coupling between the
bodies is neglected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import Vec3

GRAVITY = 9.81

PLATFORM_HEIGHT = 0.10  # m, platform surface above host COM
LEG_HEIGHT = 0.05  # m, docked vehicle COM above its leg plane
MOUNT_HEIGHT = PLATFORM_HEIGHT + LEG_HEIGHT  # m, host COM -> docked COM along body z
MOUNT_OFFSET = (0.0, 0.0, MOUNT_HEIGHT)


class DynamicsError(ValueError):
    """Raised for invalid vehicle parameters or contact inputs."""


@dataclass
class VehicleParams:
    """Physical parameters of one quadcopter.

    k_p is the powertrain constant relating hover electric power to
    total_mass**1.5 (W / kg^1.5); inertia is (ixx, iyy, izz), the
    moments about the body's principal axes, which are its body axes
    (kg m^2).
    """

    mass: float
    max_thrust: float
    inertia: Vec3
    k_p: float

    def __post_init__(self):
        if self.mass <= 0.0:
            raise DynamicsError(f"mass must be positive, got {self.mass}")
        if self.max_thrust <= self.mass * GRAVITY:
            raise DynamicsError(
                f"max_thrust {self.max_thrust} N cannot hover a {self.mass} kg vehicle"
            )
        if len(self.inertia) != 3 or not all(i > 0.0 for i in self.inertia):
            raise DynamicsError(
                f"inertia must be three positive moments (ixx, iyy, izz), got {self.inertia}"
            )


# --------------------------------------------------------------------------
# Flat-state integrator core
# --------------------------------------------------------------------------

# one vehicle's state: world-frame position and velocity, unit
# body-to-world attitude quaternion, body-frame angular velocity
State13 = tuple  # (px,py,pz, vx,vy,vz, qw,qx,qy,qz, wx,wy,wz)


def body_constants(params: VehicleParams):
    """rk4_flat's constants of one body: (1/mass, (ixx, iyy, izz),
    (1/ixx, 1/iyy, 1/izz))."""
    ixx, iyy, izz = params.inertia
    return 1.0 / params.mass, (ixx, iyy, izz), (1.0 / ixx, 1.0 / iyy, 1.0 / izz)


def rk4_flat(s, dt, inv_mass, ii, jj, fx, fy, fz, tx, ty, tz) -> State13:
    """One fixed step with the wrench held constant over the step.

    ii and jj are the principal moments of inertia and their inverses
    (body_constants). The force (fx, fy, fz) is world-frame and
    excludes gravity, which the integrator adds; the torque (tx, ty, tz)
    is body-frame. The rotational states (quaternion, body rates) take a
    classical RK4 step (stages unrolled; this is the 1 kHz hot path);
    under a zero-order-hold force the translational RK4 stages collapse
    to the exact constant-acceleration update, which is applied in closed
    form. The attitude is renormalized after the combine."""
    ax = fx * inv_mass
    ay = fy * inv_mass
    az = fz * inv_mass - GRAVITY
    px, py, pz, vx, vy, vz = s[0], s[1], s[2], s[3], s[4], s[5]
    qw, qx, qy, qz, wx, wy, wz = s[6], s[7], s[8], s[9], s[10], s[11], s[12]

    half_dt2 = 0.5 * dt * dt
    npx = px + vx * dt + ax * half_dt2
    npy = py + vy * dt + ay * half_dt2
    npz = pz + vz * dt + az * half_dt2
    nvx = vx + ax * dt
    nvy = vy + ay * dt
    nvz = vz + az * dt

    ixx, iyy, izz = ii
    jxx, jyy, jzz = jj

    # stage 1; body rates follow Euler's equations, J (t - w x I w)
    lx = ixx * wx
    ly = iyy * wy
    lz = izz * wz
    a_qw = 0.5 * (-qx * wx - qy * wy - qz * wz)
    a_qx = 0.5 * (qw * wx + qy * wz - qz * wy)
    a_qy = 0.5 * (qw * wy - qx * wz + qz * wx)
    a_qz = 0.5 * (qw * wz + qx * wy - qy * wx)
    a_wx = jxx * (tx - (wy * lz - wz * ly))
    a_wy = jyy * (ty - (wz * lx - wx * lz))
    a_wz = jzz * (tz - (wx * ly - wy * lx))

    # stage 2
    h = 0.5 * dt
    sqw = qw + h * a_qw
    sqx = qx + h * a_qx
    sqy = qy + h * a_qy
    sqz = qz + h * a_qz
    swx = wx + h * a_wx
    swy = wy + h * a_wy
    swz = wz + h * a_wz
    lx = ixx * swx
    ly = iyy * swy
    lz = izz * swz
    b_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    b_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    b_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    b_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    b_wx = jxx * (tx - (swy * lz - swz * ly))
    b_wy = jyy * (ty - (swz * lx - swx * lz))
    b_wz = jzz * (tz - (swx * ly - swy * lx))

    # stage 3
    sqw = qw + h * b_qw
    sqx = qx + h * b_qx
    sqy = qy + h * b_qy
    sqz = qz + h * b_qz
    swx = wx + h * b_wx
    swy = wy + h * b_wy
    swz = wz + h * b_wz
    lx = ixx * swx
    ly = iyy * swy
    lz = izz * swz
    c_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    c_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    c_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    c_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    c_wx = jxx * (tx - (swy * lz - swz * ly))
    c_wy = jyy * (ty - (swz * lx - swx * lz))
    c_wz = jzz * (tz - (swx * ly - swy * lx))

    # stage 4
    sqw = qw + dt * c_qw
    sqx = qx + dt * c_qx
    sqy = qy + dt * c_qy
    sqz = qz + dt * c_qz
    swx = wx + dt * c_wx
    swy = wy + dt * c_wy
    swz = wz + dt * c_wz
    lx = ixx * swx
    ly = iyy * swy
    lz = izz * swz
    d_qw = 0.5 * (-sqx * swx - sqy * swy - sqz * swz)
    d_qx = 0.5 * (sqw * swx + sqy * swz - sqz * swy)
    d_qy = 0.5 * (sqw * swy - sqx * swz + sqz * swx)
    d_qz = 0.5 * (sqw * swz + sqx * swy - sqy * swx)
    d_wx = jxx * (tx - (swy * lz - swz * ly))
    d_wy = jyy * (ty - (swz * lx - swx * lz))
    d_wz = jzz * (tz - (swx * ly - swy * lx))

    sixth = dt / 6.0
    nqw = qw + sixth * (a_qw + 2.0 * (b_qw + c_qw) + d_qw)
    nqx = qx + sixth * (a_qx + 2.0 * (b_qx + c_qx) + d_qx)
    nqy = qy + sixth * (a_qy + 2.0 * (b_qy + c_qy) + d_qy)
    nqz = qz + sixth * (a_qz + 2.0 * (b_qz + c_qz) + d_qz)
    nwx = wx + sixth * (a_wx + 2.0 * (b_wx + c_wx) + d_wx)
    nwy = wy + sixth * (a_wy + 2.0 * (b_wy + c_wy) + d_wy)
    nwz = wz + sixth * (a_wz + 2.0 * (b_wz + c_wz) + d_wz)
    qn = (nqw * nqw + nqx * nqx + nqy * nqy + nqz * nqz) ** 0.5
    # a collapsed norm means the state already blew up; propagate NaN to
    # the engine's finite checks instead of dividing by zero
    inv = 1.0 / qn if qn > 0.0 else float("nan")
    return (
        npx, npy, npz, nvx, nvy, nvz,
        nqw * inv, nqx * inv, nqy * inv, nqz * inv,
        nwx, nwy, nwz,
    )


def docked_mass_share(main_mass: float, fb_mass: float) -> float:
    """The docked unit's share of the pair's mass, m_fb / (m_m + m_fb)."""
    if main_mass <= 0.0 or fb_mass <= 0.0:
        raise DynamicsError(f"masses must be positive, got {main_mass} and {fb_mass}")
    return fb_mass / (main_mass + fb_mass)


def composite_params(
    main: VehicleParams, fb: VehicleParams, mount_height: float
) -> VehicleParams:
    """Parameters of the rigidly docked pair, about the combined center
    of mass.

    The docked vehicle's center of mass sits mount_height above the
    host's, on the host body z axis, so the body axes stay principal:
    each vehicle adds m * d**2 about x and y for its distance d from the
    combined center of mass, and nothing about z. Thrust limits and the
    powertrain constant stay those of the host (its rotors do the work)."""
    m_m, m_fb = main.mass, fb.mass
    total = m_m + m_fb
    d_com = mount_height * docked_mass_share(m_m, m_fb)  # host COM -> combined COM
    d_fb = mount_height - d_com
    a_main = m_m * (d_com * d_com)
    a_fb = m_fb * (d_fb * d_fb)
    (mxx, myy, mzz), (fxx, fyy, fzz) = main.inertia, fb.inertia
    return VehicleParams(
        mass=total,
        max_thrust=main.max_thrust,
        inertia=(((mxx + a_main) + fxx) + a_fb, ((myy + a_main) + fyy) + a_fb, mzz + fzz),
        k_p=main.k_p,
    )


def composite_com_offset(main_mass: float, fb_mass: float, mount_offset: Vec3) -> Vec3:
    """Offset from the host COM to the combined COM, host body axes."""
    s = docked_mass_share(main_mass, fb_mass)
    return (mount_offset[0] * s, mount_offset[1] * s, mount_offset[2] * s)


def contact_load(share, thrust, ext_axial, ext_planar, mu):
    """(normal, friction, held) of the docked contact for the pair to
    co-accelerate.

    share is `docked_mass_share`; thrust is the host's along its body z
    axis, and ext_axial and ext_planar the parts of an external force on
    the host along that axis and in the platform plane (its magnitude).
    normal presses the legs into the platform. The passive mechanism
    holds while normal is not tensile and dry friction with coefficient
    mu covers the in-plane load."""
    normal = share * (thrust + ext_axial)
    friction = share * ext_planar
    return normal, friction, normal >= 0.0 and friction <= mu * normal
