"""Equivalence of the array and scalar fast paths with the per-step and
per-sample formulations they replaced.

The `oracle_*` functions below are frozen copies of those formulations and
serve as the oracle: a 2x2 `np.array` mass matrix and an `np.array` RK4
state per stage, `np.interp` per step, one `evaluate` per weight and one
formatted write per row. Where the arithmetic is unchanged the results
must be equal; where `np.cos`/`np.sin` over an array replace
`math.cos`/`math.sin` per sample (prescribed playback) they must agree
to 1e-12 relative.
"""

import io
import math

import numpy as np
import pytest

from bioright import objective, smsdyn, traj
from bioright.errors import Diverged, SingularMass
from bioright.objective import ObjectiveContext
from bioright.smsdyn import (DIVERGE_LIMIT, Mode, PdGains, SmsState,
                             SmsTrajectory, ets7_params, lizard_params)

from test_smsdyn import planar_params

REL = 1e-12


# -- frozen oracle -----------------------------------------------------------

def oracle_mass_matrix(p, theta):
    if p.mode is Mode.COAXIAL:
        ia = p.arm_inertia_cm
        return np.array([[p.base_inertia + ia, ia], [ia, ia]])
    mu = p.reduced_mass
    rh, d = p.hinge_offset, p.arm_cm_offset
    c = math.cos(theta)
    m11 = p.base_inertia + p.arm_inertia_cm + mu * (rh * rh + d * d + 2 * rh * d * c)
    m12 = p.arm_inertia_cm + mu * (d * d + rh * d * c)
    m22 = p.arm_inertia_cm + mu * d * d
    return np.array([[m11, m12], [m12, m22]])


def oracle_coriolis(p, theta, base_rate, joint_rate):
    if p.mode is Mode.COAXIAL:
        return np.zeros(2)
    h = -p.reduced_mass * p.hinge_offset * p.arm_cm_offset * math.sin(theta)
    row1 = h * joint_rate * base_rate + h * (base_rate + joint_rate) * joint_rate
    row2 = -h * base_rate * base_rate
    return np.array([row1, row2])


def oracle_accel(p, y, tau_joint):
    theta = y[1]
    qd = y[2:4]
    M = oracle_mass_matrix(p, theta)
    m11, m12, m22 = M[0, 0], M[0, 1], M[1, 1]
    det = m11 * m22 - m12 * m12
    if abs(det) < 1e-300:
        raise SingularMass("mass matrix not invertible")
    c = oracle_coriolis(p, theta, qd[0], qd[1])
    r0, r1 = -c[0], tau_joint - c[1]
    qdd0 = (m22 * r0 - m12 * r1) / det
    qdd1 = (m11 * r1 - m12 * r0) / det
    return np.array([qd[0], qd[1], qdd0, qdd1])


def oracle_step_rk4(p, s, tau_joint, dt):
    y = s.as_array()
    k1 = oracle_accel(p, y, tau_joint)
    k2 = oracle_accel(p, y + 0.5 * dt * k1, tau_joint)
    k3 = oracle_accel(p, y + 0.5 * dt * k2, tau_joint)
    k4 = oracle_accel(p, y + dt * k3, tau_joint)
    y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return SmsState(y[0], y[1], y[2], y[3], s.t + dt)


def oracle_simulate_pd(p, joint_ref, gains, dt, base_angle0=math.pi,
                     joint_angle0=None):
    if joint_angle0 is None:
        joint_angle0 = float(joint_ref.angle[0])
    n = int(round(float(joint_ref.times[-1]) / dt)) + 1
    ref_rate = joint_ref.rate if joint_ref.rate is not None \
        else np.zeros(len(joint_ref.times))
    s = SmsState(base_angle0, joint_angle0, 0.0, 0.0, 0.0)
    out = np.empty((8, n))
    for i in range(n):
        t = i * dt
        th_ref = float(np.interp(t, joint_ref.times, joint_ref.angle))
        thd_ref = float(np.interp(t, joint_ref.times, ref_rate))
        u = gains.kp * (th_ref - s.joint_angle) + gains.kd * (thd_ref - s.joint_rate)
        u = float(np.clip(u, -gains.torque_limit, gains.torque_limit))
        M = oracle_mass_matrix(p, s.joint_angle)
        out[:, i] = (t, s.base_angle, s.joint_angle, s.base_rate,
                     s.joint_rate, u,
                     float(M[0, 0] * s.base_rate + M[0, 1] * s.joint_rate),
                     th_ref - s.joint_angle)
        if i + 1 < n:
            s = oracle_step_rk4(p, s, u, dt)
            if np.max(np.abs(s.as_array())) > DIVERGE_LIMIT:
                raise Diverged(f"state blew up at t = {s.t:.3f} s")
    return out


def oracle_simulate_prescribed(p, joint_traj, L0=0.0, base_angle0=math.pi):
    times = joint_traj.times
    n = len(times)
    theta = joint_traj.angle
    theta_d = joint_traj.rate
    m11 = np.empty(n)
    m12 = np.empty(n)
    m22 = np.empty(n)
    for i in range(n):
        M = oracle_mass_matrix(p, theta[i])
        m11[i], m12[i], m22[i] = M[0, 0], M[0, 1], M[1, 1]
    phi_d = (L0 - m12 * theta_d) / m11
    phi = base_angle0 + np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(times) * (phi_d[:-1] + phi_d[1:]))))
    phi_dd = np.gradient(phi_d, times) if n >= 3 else np.zeros(n)
    theta_dd = np.gradient(theta_d, times) if n >= 3 else np.zeros(n)
    tau = np.empty(n)
    for i in range(n):
        cvec = oracle_coriolis(p, theta[i], phi_d[i], theta_d[i])
        tau[i] = m12[i] * phi_dd[i] + m22[i] * theta_dd[i] + cvec[1]
    L = m11 * phi_d + m12 * theta_d
    return SmsTrajectory(times.copy(), phi, theta.copy(), phi_d,
                         theta_d.copy(), tau, L)


def oracle_weight_sweep(resolution, tr, context):
    rows = [objective.evaluate(w, tr, context)[1]
            for w in objective.simplex_grid(resolution)]
    return rows, min(rows, key=lambda r: r.J)


def oracle_sms_csv(tr):
    stream = io.StringIO()
    stream.write("t,phi_deg,theta_deg,phi_rate_deg_s,theta_rate_deg_s,tau_Nm,L\n")
    r2d = 180.0 / math.pi
    for i, t in enumerate(tr.times):
        stream.write(f"{t:.9g},{tr.base_angle[i] * r2d:.9g},"
                     f"{tr.joint_angle[i] * r2d:.9g},"
                     f"{tr.base_rate[i] * r2d:.9g},"
                     f"{tr.joint_rate[i] * r2d:.9g},"
                     f"{tr.torque[i]:.9g},{tr.momentum[i]:.9g}\n")
    return stream.getvalue()


def oracle_traj_csv(tr):
    stream = io.StringIO()
    stream.write("t,angle_deg,rate_deg_s\n")
    rate = tr.rate if tr.rate is not None else np.full(len(tr.times), np.nan)
    for t, a, r in zip(tr.times, np.degrees(tr.angle), np.degrees(rate)):
        stream.write(f"{t:.9g},{a:.9g},{r:.9g}\n")
    return stream.getvalue()


def oracle_report_csv(report):
    stream = io.StringIO()
    for name, definition in sorted(report.definitions.items()):
        stream.write(f"# {name}: {definition}\n")
    stream.write("w_safety,w_stability,w_efficiency,"
                 "phi_safety,phi_stability,phi_efficiency,J\n")
    for row in report.rows:
        w = row.weights
        stream.write(f"{w.w_safety:.6f},{w.w_stability:.6f},"
                     f"{w.w_efficiency:.6f},{row.phi_safety:.9g},"
                     f"{row.phi_stability:.9g},{row.phi_efficiency:.9g},"
                     f"{row.J:.9g}\n")
    a = report.argmin
    stream.write(f"# argmin,{a.weights.w_safety:.6f},"
                 f"{a.weights.w_stability:.6f},{a.weights.w_efficiency:.6f},"
                 f"J={a.J:.9g}\n")
    return stream.getvalue()


# -- fixtures ----------------------------------------------------------------

MODELS = {"coaxial": ets7_params(), "planar_offset": planar_params()}
GAINS = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
CONTEXT = ObjectiveContext(rate_limit=math.radians(0.30),
                           base_angle_target=math.pi, torque_limit=10.0)


def surrogate(dt=0.05):
    return traj.synth_second_order(13.85, 64.5, 225.0, dt)


def pd_fields(out):
    return np.array([out.times, out.base_angle, out.joint_angle,
                     out.base_rate, out.joint_rate, out.torque,
                     out.momentum, out.metadata["tracking_error"]])


def assert_rel_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= REL * scale


# -- smsdyn ------------------------------------------------------------------

# A light model with fast rates, where the Coriolis terms are not lost in
# the rounding of the rates as they are at spacecraft scale.
LIGHT = smsdyn.SmsParams(1.0, 1.0, 0.1, 0.05, 0.8, 0.6, Mode.PLANAR_OFFSET)


@pytest.mark.parametrize("p", [*MODELS.values(), LIGHT],
                         ids=[*MODELS, "planar_light"])
@pytest.mark.parametrize("tau", [0.0, 3.5, -12.0])
def test_rk4_step_equal_to_oracle(p, tau):
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = SmsState(*rng.uniform(-4.0, 4.0, 2), *rng.uniform(-3.0, 3.0, 2),
                     rng.uniform(0.0, 9.0))
        got = smsdyn.step_rk4(p, s, tau, 0.05)
        want = oracle_step_rk4(p, s, tau, 0.05)
        assert np.array_equal(got.as_array(), want.as_array())
        assert got.t == want.t


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSimulatePd:
    def test_equal_to_oracle(self, name):
        p, ref = MODELS[name], surrogate()
        out = smsdyn.simulate_pd(p, ref, GAINS, dt=0.05)
        assert np.array_equal(pd_fields(out),
                              oracle_simulate_pd(p, ref, GAINS, dt=0.05))

    def test_saturated_torque_equal_to_oracle(self, name):
        p, ref = MODELS[name], surrogate()
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=0.01)
        out = smsdyn.simulate_pd(p, ref, gains, dt=0.05, joint_angle0=0.0)
        saturated = np.abs(out.torque) == gains.torque_limit
        assert saturated.any() and not saturated.all()
        assert np.array_equal(pd_fields(out), oracle_simulate_pd(
            p, ref, gains, dt=0.05, joint_angle0=0.0))

    def test_coarse_reference_grid(self, name):
        # the reference is interpolated between its 1.5 s samples
        p = MODELS[name]
        t = 1.5 * np.arange(31)
        angle = np.pi * (1 - np.cos(np.pi * t / t[-1])) / 2
        ref = traj.differentiate(traj.JointTrajectory(t, angle))
        out = smsdyn.simulate_pd(p, ref, GAINS, dt=0.05, base_angle0=0.25)
        assert np.array_equal(pd_fields(out), oracle_simulate_pd(
            p, ref, GAINS, dt=0.05, base_angle0=0.25))

    def test_diverges_at_same_step(self, name):
        base = MODELS[name]
        p = smsdyn.SmsParams(
            lizard_params().base_mass, lizard_params().arm_mass,
            lizard_params().base_inertia, lizard_params().arm_inertia_cm,
            base.hinge_offset * 1e-3, base.arm_cm_offset * 1e-3, base.mode)
        t = np.linspace(0, 10, 11)
        ref = traj.JointTrajectory(t, np.full(11, 1.0), np.zeros(11))
        gains = PdGains(kp=2000.0, kd=0.0, torque_limit=1e9)
        with pytest.raises(Diverged) as want:
            oracle_simulate_pd(p, ref, gains, dt=1.0, joint_angle0=0.0)
        with pytest.raises(Diverged) as got:
            smsdyn.simulate_pd(p, ref, gains, dt=1.0, joint_angle0=0.0)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSimulatePrescribed:
    @pytest.mark.parametrize("L0", [0.0, 12.5])
    def test_close_to_oracle(self, name, L0):
        p, ref = MODELS[name], surrogate(dt=0.01)
        got = smsdyn.simulate_prescribed(p, ref, L0=L0)
        want = oracle_simulate_prescribed(p, ref, L0=L0)
        for field in ("times", "base_angle", "joint_angle", "base_rate",
                      "joint_rate", "torque"):
            assert_rel_close(getattr(got, field), getattr(want, field))
        # with L0 = 0 the momentum is rounding noise of M11 phi_d + M12 theta_d
        terms = np.abs(oracle_mass_matrix(p, 0.0)[0, 1] * ref.rate)
        assert float(np.max(np.abs(got.momentum - want.momentum))) \
            <= REL * max(abs(L0), float(np.max(terms)))

    def test_mass_matrix_and_coriolis_broadcast(self, name):
        p = MODELS[name]
        theta = np.linspace(-4.0, 4.0, 41)
        rates = np.linspace(-0.3, 0.2, 41), np.linspace(0.1, -0.4, 41)
        M = smsdyn.mass_matrix(p, theta)
        C = smsdyn.coriolis(p, theta, *rates)
        assert M.shape == (2, 2, 41) and C.shape == (2, 41)
        for k, th in enumerate(theta):
            assert_rel_close(M[..., k], oracle_mass_matrix(p, th))
            want = oracle_coriolis(p, th, rates[0][k], rates[1][k])
            assert np.all(np.abs(C[:, k] - want)
                          <= REL * max(np.max(np.abs(want)), 1e-300))


def test_coaxial_mass_matrix_exact():
    p = ets7_params()
    theta = np.linspace(-4.0, 4.0, 41)
    M = smsdyn.mass_matrix(p, theta)
    assert np.array_equal(M, np.repeat(oracle_mass_matrix(p, 0.0)[..., None],
                                       41, axis=2))


# -- objective ---------------------------------------------------------------

def pd_run():
    return smsdyn.simulate_pd(ets7_params(), surrogate(), GAINS, dt=0.05)


@pytest.mark.parametrize("resolution", [2, 4, 50])
def test_weight_sweep_equals_evaluate(resolution):
    tr = pd_run()
    report = objective.weight_sweep(resolution, tr, CONTEXT)
    rows, argmin = oracle_weight_sweep(resolution, tr, CONTEXT)
    assert report.rows == rows
    assert report.argmin == argmin
    assert report.rows.index(report.argmin) == rows.index(argmin)


def test_weight_sweep_tie_picks_first():
    # a motionless base at its target with zero torque scores J = 0 everywhere
    t = np.linspace(0.0, 10.0, 101)
    zeros = np.zeros(101)
    tr = SmsTrajectory(t, np.full(101, math.pi), zeros, zeros, zeros, zeros,
                       zeros)
    report = objective.weight_sweep(4, tr, CONTEXT)
    rows, argmin = oracle_weight_sweep(4, tr, CONTEXT)
    assert all(r.J == 0.0 for r in report.rows)
    assert report.argmin is report.rows[0]
    assert report.argmin == argmin


# -- writers -----------------------------------------------------------------

def test_sms_writer_byte_identical():
    for tr in (pd_run(), smsdyn.simulate_prescribed(
            MODELS["planar_offset"], surrogate(dt=0.1), L0=3.0)):
        buf = io.StringIO()
        smsdyn.write_trajectory_csv(tr, buf)
        assert buf.getvalue() == oracle_sms_csv(tr)


@pytest.mark.parametrize("with_rate", [True, False])
def test_traj_writer_byte_identical(with_rate):
    tr = surrogate(dt=0.05)
    if not with_rate:
        tr = traj.JointTrajectory(tr.times, tr.angle)
    buf = io.StringIO()
    traj.write_trajectory_csv(tr, buf)
    assert buf.getvalue() == oracle_traj_csv(tr)


def test_report_writer_byte_identical():
    report = objective.weight_sweep(50, pd_run(), CONTEXT)
    buf = io.StringIO()
    objective.write_report_csv(report, buf)
    assert buf.getvalue() == oracle_report_csv(report)
