"""Free-floating base + single-joint arm dynamics on a shared rotation
axis: mass matrix, Coriolis terms, momentum-conserving playback, RK4
integration, and PD joint tracking. Gravity is zero throughout."""

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import Diverged, ModeUnsupported, OutOfDomain, SingularMass
from .traj import GRID_RTOL, GRID_TOL, format_rows, time_grid

DIVERGE_LIMIT = 1e6


class Mode(Enum):
    COAXIAL = "Coaxial"
    PLANAR_OFFSET = "PlanarOffset"


@dataclass(frozen=True)
class SmsParams:
    """Masses, inertias, and geometry of the two-body model.

    In Coaxial mode both centers of mass sit on the rotation axis
    (hinge_offset = arm_cm_offset = 0) and arm_inertia_cm is the arm's
    effective inertia about the system axis.
    """

    base_mass: float
    arm_mass: float
    base_inertia: float
    arm_inertia_cm: float
    hinge_offset: float = 0.0
    arm_cm_offset: float = 0.0
    mode: Mode = Mode.COAXIAL

    def __post_init__(self):
        if not all(map(math.isfinite, (
                self.base_mass, self.arm_mass, self.base_inertia,
                self.arm_inertia_cm, self.hinge_offset, self.arm_cm_offset))):
            raise ValueError("masses, inertias and offsets must be finite")
        if self.base_mass <= 0 or self.arm_mass <= 0:
            raise ValueError("masses must be positive")
        if self.base_inertia < 0 or self.arm_inertia_cm < 0:
            raise ValueError("inertias must be non-negative")
        if self.hinge_offset < 0 or self.arm_cm_offset < 0:
            raise ValueError("offsets must be non-negative")
        if self.mode is Mode.COAXIAL and (self.hinge_offset or self.arm_cm_offset):
            raise ValueError("Coaxial mode requires zero offsets")

    @property
    def reduced_mass(self):
        return self.base_mass * self.arm_mass / (self.base_mass + self.arm_mass)


@dataclass
class SmsState:
    base_angle: float
    joint_angle: float
    base_rate: float
    joint_rate: float
    t: float = 0.0


@dataclass
class SmsTrajectory:
    """Simulation history on a uniform time grid."""

    times: np.ndarray
    base_angle: np.ndarray
    joint_angle: np.ndarray
    base_rate: np.ndarray
    joint_rate: np.ndarray
    torque: np.ndarray
    momentum: np.ndarray
    metadata: dict = field(default_factory=dict)  # simulate_pd's tracking_error


@dataclass(frozen=True)
class PdGains:
    kp: float
    kd: float
    torque_limit: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kp, self.kd, self.torque_limit))):
            raise ValueError("gains and torque_limit must be finite")
        if self.kp < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")
        if self.torque_limit <= 0:
            raise ValueError("torque_limit must be positive")


def ets7_params():
    """ETS-VII roll-axis model, the one CONFIG_DEFAULTS describes."""
    return params_from_config(CONFIG_DEFAULTS)


def lizard_params():
    """Lizard body/tail inertias about the roll axis (SI units)."""
    return SmsParams(
        base_mass=2.9e-3,
        arm_mass=0.29e-3,
        base_inertia=6.6e-8,
        arm_inertia_cm=5.29e-8,
        mode=Mode.COAXIAL,
    )


def mass_matrix(p, theta):
    """2x2 symmetric inertia matrix in (base angle, joint angle) coordinates;
    an array theta gives a (2, 2, *theta.shape) stack."""
    mu = p.reduced_mass
    rh, d = p.hinge_offset, p.arm_cm_offset
    c = np.cos(theta)
    m11 = p.base_inertia + p.arm_inertia_cm + mu * (rh * rh + d * d + 2 * rh * d * c)
    m12 = p.arm_inertia_cm + mu * (d * d + rh * d * c)
    m22 = np.broadcast_to(p.arm_inertia_cm + mu * d * d, np.shape(c))
    return np.array([[m11, m12], [m12, m22]])


def coriolis(p, theta, base_rate, joint_rate):
    """Coriolis/centrifugal generalized-force vector C(q, qdot) qdot (broadcasts)."""
    h = -p.reduced_mass * p.hinge_offset * p.arm_cm_offset * np.sin(theta)
    row1 = h * joint_rate * base_rate + h * (base_rate + joint_rate) * joint_rate
    row2 = -h * base_rate * base_rate
    return np.array([row1, row2])


def angular_momentum(p, s):
    """System angular momentum: first row of M(theta) qdot."""
    M = mass_matrix(p, s.joint_angle)
    return float(M[0, 0] * s.base_rate + M[0, 1] * s.joint_rate)


def kinetic_energy(p, s):
    qd = np.array([s.base_rate, s.joint_rate])
    M = mass_matrix(p, s.joint_angle)
    return 0.5 * float(qd @ M @ qd)


def _rk4_track(p, dt, state, t0, ref, ref_d, kp, kd, lo, hi):
    """The one RK4 loop of `simulate_pd` and `step_rk4`: sample i records
    the state, the torque u = min(max(kp (ref[i] - theta) + kd (ref_d[i] -
    theta_d), lo), hi) and the momentum, and one step with u held leads to
    sample i + 1. Returns the (6, len(ref)) history phi, theta, phi_d,
    theta_d, u, L. The stages are written out over scalar floats with the
    constants of `mass_matrix` and `coriolis` hoisted in their operation
    order, so both modes run this loop exactly; stage 1's mass-matrix row
    is the momentum row. A step calls only `cos` and `sin` and multiplies
    only floats; its clamp and range tests are comparisons (NaN fails them).
    Raises SingularMass at any stage, and Diverged (dated from t0) unless
    every |state| <= DIVERGE_LIMIT after a step."""
    mu = p.reduced_mass
    rh, d, ia = p.hinge_offset, p.arm_cm_offset, p.arm_inertia_cm
    m11_0, m11_c, m11_k = p.base_inertia + ia, rh * rh + d * d, 2 * rh * d
    m12_c, m12_k, m22, h_k = d * d, rh * d, ia + mu * d * d, -mu * rh * d
    cos, sin, lim, nlim = math.cos, math.sin, DIVERGE_LIMIT, -DIVERGE_LIMIT
    half, sixth = 0.5 * dt, dt / 6.0
    a, th, ad, thd = map(float, state)
    n = len(ref)
    history = np.empty((6, n))
    phi_v, theta_v, phi_d_v, theta_d_v, tau_v, L_v = map(memoryview, history)
    for i, r, rd in zip(range(n), ref, ref_d):
        u = kp * (r - th) + kd * (rd - thd)
        u = lo if u < lo else hi if u > hi else u  # min(max(u, lo), hi), lo <= hi
        c, h = cos(th), h_k * sin(th)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        phi_v[i] = a
        theta_v[i] = th
        phi_d_v[i] = ad
        theta_d_v[i] = thd
        tau_v[i] = u
        L_v[i] = m11 * ad + m12 * thd
        if i == n - 1:
            break
        det = m11 * m22 - m12 * m12
        if -1e-300 < det < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd * ad + h * (ad + thd) * thd), u + h * ad * ad
        a1, b1 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad2, thd2 = ad + half * a1, thd + half * b1
        x = th + half * thd
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if -1e-300 < det < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd2 * ad2 + h * (ad2 + thd2) * thd2), u + h * ad2 * ad2
        a2, b2 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad3, thd3 = ad + half * a2, thd + half * b2
        x = th + half * thd2
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if -1e-300 < det < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd3 * ad3 + h * (ad3 + thd3) * thd3), u + h * ad3 * ad3
        a3, b3 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad4, thd4 = ad + dt * a3, thd + dt * b3
        x = th + dt * thd3
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if -1e-300 < det < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd4 * ad4 + h * (ad4 + thd4) * thd4), u + h * ad4 * ad4
        a4, b4 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        a, th, ad, thd = (a + sixth * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4),
                          th + sixth * (thd + 2.0 * thd2 + 2.0 * thd3 + thd4),
                          ad + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                          thd + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4))
        if not (nlim <= a <= lim and nlim <= th <= lim and nlim <= ad <= lim
                and nlim <= thd <= lim):
            raise Diverged(f"state blew up at t = {t0 + (i + 1) * dt:.3f} s")
    return history


def _rk4_track_folded(p, dt, state, t0, ref, ref_d, kp, kd, lo, hi):
    """`_rk4_track` for zero offsets: M is constant and h = 0, so stages
    2-4 repeat stage 1's accelerations (up to the sign of a zero), and u
    feeds back through the joint alone: the base follows the scalar joint
    loop in whole-array passes (`np.add.accumulate` adds in order). With
    the RK4 sums in their order, +0.0 rates (IEEE sums never reach -0.0
    from +0.0) give a bit-identical history; `step_rk4` keeps `_rk4_track`."""
    ia = p.arm_inertia_cm
    m11, m12, m22 = p.base_inertia + ia, ia, ia
    det, lim, nlim = m11 * m22 - m12 * m12, DIVERGE_LIMIT, -DIVERGE_LIMIT
    half, sixth = 0.5 * dt, dt / 6.0
    a, th, ad, thd = map(float, state)
    n = len(ref)
    if n > 1 and abs(det) < 1e-300:
        raise SingularMass("mass matrix not invertible")
    history = np.empty((6, n))
    _, theta_v, _, theta_d_v, tau_v, _ = map(memoryview, history)
    bad = n  # the first sample out of the limit
    for i, r, rd in zip(range(n), ref, ref_d):
        u = kp * (r - th) + kd * (rd - thd)
        u = lo if u < lo else hi if u > hi else u  # min(max(u, lo), hi), lo <= hi
        theta_v[i], theta_d_v[i], tau_v[i] = th, thd, u
        if i == n - 1:
            break
        b1 = m11 * u / det
        thd2, thd4 = thd + half * b1, thd + dt * b1
        th, thd = (th + sixth * (thd + 2.0 * thd2 + 2.0 * thd2 + thd4),
                   thd + sixth * (b1 + 2.0 * b1 + 2.0 * b1 + b1))
        if not (nlim <= th <= lim and nlim <= thd <= lim):
            bad = i + 1
            break
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = -m12 * history[4, :min(bad, n - 1)] / det
        rate = np.add.accumulate(np.r_[ad, sixth * (a1 + 2 * a1 + 2 * a1 + a1)])
        ad1 = rate[:-1]
        ad2, ad4 = ad1 + half * a1, ad1 + dt * a1
        angle = np.add.accumulate(np.r_[a, sixth * (ad1 + 2 * ad2 + 2 * ad2 + ad4)])
        beyond = ~((np.abs(angle[1:]) <= lim) & (np.abs(rate[1:]) <= lim))
    if beyond.any():
        bad = min(bad, int(beyond.argmax()) + 1)
    if bad < n:
        raise Diverged(f"state blew up at t = {t0 + bad * dt:.3f} s")
    history[0], history[2], history[5] = angle, rate, m11 * rate + m12 * history[3]
    return history


def step_rk4(p, s, tau_joint, dt):
    """Classical 4th-order step with the joint torque held over the step.

    Raises OutOfDomain for a dt that is not finite and positive or a
    non-finite torque, and Diverged unless every component of the new state
    satisfies |x| <= DIVERGE_LIMIT."""
    tau = float(tau_joint)
    if not 0 < dt < math.inf:
        raise OutOfDomain(f"dt must be finite and positive, got {dt:g}")
    if not math.isfinite(tau):
        raise OutOfDomain(f"joint torque must be finite, got {tau!r}")
    # zero gains and lo = hi = tau hold tau over the one step
    ref, ref_d = (s.joint_angle,) * 2, (s.joint_rate,) * 2
    history = _rk4_track(p, dt, (s.base_angle, s.joint_angle, s.base_rate,
                                 s.joint_rate), s.t, ref, ref_d, 0.0, 0.0, tau, tau)
    return SmsState(*history[:4, 1].tolist(), s.t + dt)


def simulate_prescribed(p, joint_traj, L0=0.0, base_angle0=math.pi):
    """Kinematic playback of a joint trajectory under momentum conservation.

    The joint angle/rate are imposed; the base rate follows from
    L0 = M11 phidot + M12 thetadot at every sample and the base angle is
    integrated by the trapezoid rule. The joint torque required to realize
    the motion is back-computed and reported. Raises Diverged, dated from
    the first such sample, unless every value it reports is finite in the
    unit it is written in.
    """
    if joint_traj.rate is None:
        raise ValueError("joint trajectory must carry rates")
    times = joint_traj.times
    n = len(times)
    theta, theta_d = joint_traj.angle, joint_traj.rate
    with np.errstate(all="ignore"):  # a value that is not finite is refused below
        (m11, m12), (_, m22) = mass_matrix(p, theta)
        phi_d = (L0 - m12 * theta_d) / m11
        phi = base_angle0 + np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(times) * (phi_d[:-1] + phi_d[1:]))))
        phi_dd = np.gradient(phi_d, times) if n >= 3 else np.zeros(n)
        theta_dd = np.gradient(theta_d, times) if n >= 3 else np.zeros(n)
        tau = m12 * phi_dd + m22 * theta_dd + coriolis(p, theta, phi_d, theta_d)[1]
        L = m11 * phi_d + m12 * theta_d
        bad = ~np.isfinite((np.degrees(phi), np.degrees(phi_d), tau, L)).all(axis=0)
    if bad.any():
        raise Diverged(f"playback is not finite at t = {times[bad.argmax()]:.3f} s")
    return SmsTrajectory(times.copy(), phi, theta.copy(), phi_d,
                         theta_d.copy(), tau, L)


def simulate_pd(p, joint_ref, gains, dt, base_angle0=math.pi,
                joint_angle0=None):
    """PD joint tracking of a reference trajectory on a free-floating base,
    from the reference's first time to its last.

    The joint torque is clamped to the gains' torque limit; the base is
    unactuated. Raises OutOfDomain for a dt that traj.time_grid refuses, a
    dt whose grid misses the reference's last time by more than GRID_TOL +
    GRID_RTOL max|t| or a non-finite initial angle, and Diverged unless
    every state |x| <= DIVERGE_LIMIT.
    """
    t0, t_end = float(joint_ref.times[0]), float(joint_ref.times[-1])
    times = time_grid(t0, t_end - t0, dt)
    if abs(times[-1] - t_end) > GRID_TOL + GRID_RTOL * max(abs(t0), abs(t_end)):
        raise OutOfDomain(f"dt = {dt:g} s ends the grid at {times[-1]:.9g} s, not at the "
                          f"reference's last time {t_end:.9g} s")
    th0 = joint_ref.angle[0] if joint_angle0 is None else joint_angle0
    if not (math.isfinite(base_angle0) and math.isfinite(th0)):
        raise OutOfDomain(f"initial angles must be finite, got "
                          f"{base_angle0:g} and {th0:g}")
    th_ref = np.interp(times, joint_ref.times, joint_ref.angle)
    thd_ref = np.zeros_like(times) if joint_ref.rate is None \
        else np.interp(times, joint_ref.times, joint_ref.rate)
    track = _rk4_track if p.hinge_offset or p.arm_cm_offset else _rk4_track_folded
    limit = gains.torque_limit
    history = track(p, dt, (base_angle0, th0, 0.0, 0.0), t0,
                    memoryview(th_ref), memoryview(thd_ref),
                    gains.kp, gains.kd, -limit, limit)
    return SmsTrajectory(times, *history,
                         metadata={"tracking_error": th_ref - history[1]})


def base_reaction_estimate(p, delta_theta):
    """Closed-form base rotation for a joint sweep in Coaxial mode."""
    if p.mode is not Mode.COAXIAL:
        raise ModeUnsupported("base reaction is path-dependent with offsets")
    ia = p.arm_inertia_cm
    return -(ia / (p.base_inertia + ia)) * delta_theta


def inertia_ratio(p):
    """Arm effective inertia over base inertia; inf for a base without inertia."""
    return p.arm_inertia_cm / p.base_inertia if p.base_inertia else math.inf


def write_trajectory_csv(traj, stream):
    """Emit `t,phi_deg,theta_deg,phi_rate_deg_s,theta_rate_deg_s,tau_Nm,L`."""
    stream.write("t,phi_deg,theta_deg,phi_rate_deg_s,theta_rate_deg_s,tau_Nm,L\n")
    stream.writelines(format_rows("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n", (
        traj.times, *map(np.degrees, (traj.base_angle, traj.joint_angle, traj.base_rate,
                                      traj.joint_rate)), traj.torque, traj.momentum)))


# Config file handling: `key = value` lines, '#' comments.

#: The ETS-VII roll-axis model (`ets7_params`), PD gains and run settings.
CONFIG_DEFAULTS = {
    "base_mass": 2550.0,
    "arm_mass": 140.4,
    "base_inertia": 6200.0,
    "arm_inertia_cm": 360.0,
    "hinge_offset": 0.0,
    "arm_cm_offset": 0.0,
    "mode": "Coaxial",
    "dt": 0.01,
    "kp": 2000.0,
    "kd": 20000.0,
    "torque_limit": 10.0,
    "base_angle0_deg": 180.0,
}


def parse_config(text):
    """Parse a key = value config into a plain dict over CONFIG_DEFAULTS."""
    cfg = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in cfg:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key == "mode":
            if value not in (Mode.COAXIAL.value, Mode.PLANAR_OFFSET.value):
                raise ValueError(f"config line {lineno}: bad mode {value!r}")
            cfg[key] = value
        else:
            try:
                cfg[key] = float(value)
            except ValueError:
                raise ValueError(f"config line {lineno}: {key} must be a number, "
                                 f"got {value!r}") from None
            if not math.isfinite(cfg[key]):
                raise ValueError(f"config line {lineno}: {key} must be finite, "
                                 f"got {value!r}")
    return cfg


def params_from_config(cfg):
    values = {f.name: cfg[f.name] for f in fields(SmsParams)}
    return SmsParams(**{**values, "mode": Mode(cfg["mode"])})


def gains_from_config(cfg):
    return PdGains(**{f.name: cfg[f.name] for f in fields(PdGains)})
