"""Equivalence of the array and scalar fast paths with the per-step and
per-sample formulations they replaced.

The `oracle_*` functions below are frozen copies of those formulations and
serve as the oracle: a 2x2 `np.array` mass matrix and an `np.array` RK4
state per stage, `np.interp` per step, one `evaluate` per weight and one
formatted write per row. Where the arithmetic is unchanged the results
must be equal; where `np.cos`/`np.sin` over an array replace
`math.cos`/`math.sin` per sample (prescribed playback) they must agree
to 1e-12 relative.

The frame layer and the dataset writers have frozen oracles too: the
per-frame `segment_series` and `relative_leg_series` with their scalar
axis, leg and Euler formulas, the per-sample `json.dump` writer and the
per-row CSV writer. The batched series must match them to 1e-12 with
equal validity, and the writers byte for byte.

The tracker-CSV loader has a frozen oracle as well: the per-row
`csv.reader` loader with `int()`/`float()` per token. The whole-column
`np.loadtxt` loader must give array-equal datasets on every CSV fixture
and on the benchmark recordings, and raise the same error class on the
same line for each malformed input. The one intended difference is
pinned: `float()` reads "1_0" and non-ASCII digits, the numpy parse does
not.

The general RK4 loop `smsdyn._rk4_track` is frozen as `oracle_rk4_track`:
PD tracking on a zero-offset model runs a folded loop whose history must
equal it byte for byte (`tobytes`, so the sign of a zero counts). The
per-sample `traj.smooth` loop is frozen as `oracle_smooth`, and the
windowed average must equal it.
"""

import csv
import importlib.util
import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bioright import cli, frames, keypoints, objective, rotmath, smsdyn, traj
from bioright.errors import (DegenerateAxes, Diverged, EmptyDataset,
                             GimbalLockWarning, MissingKeypoint, NoValidFrames,
                             OutOfDomain, ParseError, SchemaError,
                             SingularMass)
from bioright.frames import Segment
from bioright.objective import ObjectiveContext
from bioright.smsdyn import (DIVERGE_LIMIT, Mode, PdGains, SmsState,
                             SmsTrajectory, ets7_params, lizard_params)

from conftest import (REST_POSE, csv_text, dataset_from_poses, full_csv_dataset,
                      roll_matrix)
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

# "replay" is the PlanarOffset model of the replay benchmark workload.
MODELS = {"coaxial": ets7_params(), "planar_offset": planar_params(),
          "replay": planar_params(hinge_offset=1.0)}
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


def test_pd_on_replay_shaped_reference_equal_to_oracle():
    # a 151-sample flip, differentiated and stretched to 225 s (1.5 s grid)
    flip = traj.synth_second_order(13.85, 0.043, 0.150, 1e-3)
    ref = traj.time_scale(traj.differentiate(
        traj.JointTrajectory(flip.times, flip.angle)), 225.0)
    out = smsdyn.simulate_pd(MODELS["replay"], ref, GAINS, dt=0.01)
    assert len(out.times) == 22501
    assert np.array_equal(pd_fields(out), oracle_simulate_pd(
        MODELS["replay"], ref, GAINS, dt=0.01))


def test_pd_singular_mass_like_oracle():
    p = smsdyn.SmsParams(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(SingularMass) as want:
        oracle_simulate_pd(p, surrogate(), GAINS, dt=0.05)
    with pytest.raises(SingularMass) as got:
        smsdyn.simulate_pd(p, surrogate(), GAINS, dt=0.05)
    assert str(got.value) == str(want.value)


# -- frozen oracle: the general RK4 loop for zero-offset PD tracking ----------

def oracle_rk4_track(p, dt, state, t0, ref, ref_d, kp, kd, lo, hi):
    mu = p.reduced_mass
    rh, d, ia = p.hinge_offset, p.arm_cm_offset, p.arm_inertia_cm
    m11_0, m11_c, m11_k = p.base_inertia + ia, rh * rh + d * d, 2 * rh * d
    m12_c, m12_k, m22, h_k = d * d, rh * d, ia + mu * d * d, -mu * rh * d
    cos, sin, lim = math.cos, math.sin, DIVERGE_LIMIT
    half, sixth = 0.5 * dt, dt / 6.0
    a, th, ad, thd = map(float, state)
    n = len(ref)
    history = np.empty((6, n))
    phi_v, theta_v, phi_d_v, theta_d_v, tau_v, L_v = map(memoryview, history)
    for i in range(n):
        u = kp * (ref[i] - th) + kd * (ref_d[i] - thd)
        u = min(max(u, lo), hi)
        c, h = cos(th), h_k * sin(th)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        phi_v[i], theta_v[i], phi_d_v[i], theta_d_v[i], tau_v[i] = a, th, ad, thd, u
        L_v[i] = m11 * ad + m12 * thd
        if i == n - 1:
            break
        det = m11 * m22 - m12 * m12
        if abs(det) < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd * ad + h * (ad + thd) * thd), u + h * ad * ad
        a1, b1 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad2, thd2 = ad + half * a1, thd + half * b1
        x = th + half * thd
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if abs(det) < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd2 * ad2 + h * (ad2 + thd2) * thd2), u + h * ad2 * ad2
        a2, b2 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad3, thd3 = ad + half * a2, thd + half * b2
        x = th + half * thd2
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if abs(det) < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd3 * ad3 + h * (ad3 + thd3) * thd3), u + h * ad3 * ad3
        a3, b3 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        ad4, thd4 = ad + dt * a3, thd + dt * b3
        x = th + dt * thd3
        c, h = cos(x), h_k * sin(x)
        m11, m12 = m11_0 + mu * (m11_c + m11_k * c), ia + mu * (m12_c + m12_k * c)
        det = m11 * m22 - m12 * m12
        if abs(det) < 1e-300:
            raise SingularMass("mass matrix not invertible")
        r0, r1 = -(h * thd4 * ad4 + h * (ad4 + thd4) * thd4), u + h * ad4 * ad4
        a4, b4 = (m22 * r0 - m12 * r1) / det, (m11 * r1 - m12 * r0) / det
        a, th, ad, thd = (a + sixth * (ad + 2 * ad2 + 2 * ad3 + ad4),
                          th + sixth * (thd + 2 * thd2 + 2 * thd3 + thd4),
                          ad + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
                          thd + sixth * (b1 + 2 * b2 + 2 * b3 + b4))
        if not (abs(a) <= lim and abs(th) <= lim and abs(ad) <= lim
                and abs(thd) <= lim):
            raise Diverged(f"state blew up at t = {t0 + (i + 1) * dt:.3f} s")
    return history


def oracle_track_pd(p, joint_ref, gains, dt, base_angle0=math.pi,
                    joint_angle0=None):
    """`simulate_pd`'s inputs to the general loop, and its history."""
    t0 = float(joint_ref.times[0])
    n = int(round((float(joint_ref.times[-1]) - t0) / dt)) + 1
    times = t0 + np.arange(n) * dt
    th_ref = np.interp(times, joint_ref.times, joint_ref.angle)
    thd_ref = np.zeros(n) if joint_ref.rate is None \
        else np.interp(times, joint_ref.times, joint_ref.rate)
    th0 = joint_ref.angle[0] if joint_angle0 is None else joint_angle0
    limit = gains.torque_limit
    return np.vstack((times, oracle_rk4_track(
        p, dt, (base_angle0, th0, 0.0, 0.0), t0, memoryview(th_ref),
        memoryview(thd_ref), gains.kp, gains.kd, -limit, limit)))


def coarse_reference():
    t = 1.5 * np.arange(31)
    angle = np.pi * (1 - np.cos(np.pi * t / t[-1])) / 2
    return traj.differentiate(traj.JointTrajectory(t, angle))


def replay_shaped_reference():
    flip = traj.synth_second_order(13.85, 0.043, 0.150, 1e-3)
    return traj.time_scale(traj.differentiate(
        traj.JointTrajectory(flip.times, flip.angle)), 225.0)


def zero_reference(zero):
    t = np.linspace(0.0, 10.0, 11)
    return traj.JointTrajectory(t, np.full(11, zero), np.full(11, zero))


LIZARD = lizard_params()
# (model, reference, gains, dt, base_angle0, joint_angle0); every model
# here has zero offsets, so `simulate_pd` runs the folded loop.
FOLDED_CASES = {
    "surrogate": (ets7_params(), surrogate, GAINS, 0.05, math.pi, None),
    "saturated": (ets7_params(), surrogate,
                  PdGains(kp=2000.0, kd=20000.0, torque_limit=0.01), 0.05,
                  math.pi, 0.0),
    "coarse_grid": (ets7_params(), coarse_reference, GAINS, 0.05, 0.25, None),
    "replay_shaped": (ets7_params(), replay_shaped_reference, GAINS, 0.01,
                      math.pi, None),
    "reduced_base": (ets7_params(reduced_base=True), surrogate, GAINS, 0.05,
                     math.pi, None),
    "joint_angle0_neg_zero": (ets7_params(), surrogate, GAINS, 0.05, math.pi,
                              -0.0),
    "base_angle0_neg_zero": (ets7_params(), surrogate, GAINS, 0.05, -0.0, None),
    "zero_reference": (ets7_params(), lambda: zero_reference(0.0), GAINS, 0.5,
                       0.0, 0.0),
    "neg_zero_reference": (ets7_params(), lambda: zero_reference(-0.0), GAINS,
                           0.5, -0.0, 0.0),
    "lizard": (LIZARD, surrogate,
               PdGains(kp=1e-6, kd=1e-5, torque_limit=1e-7), 0.05, 0.0, None),
    "one_sample": (ets7_params(), lambda: traj.JointTrajectory([3.0], [1.0]),
                   GAINS, 0.05, math.pi, None),
    "planar_zero_offsets": (planar_params(hinge_offset=0.0, arm_cm_offset=0.0),
                            surrogate, GAINS, 0.05, math.pi, None),
}


def pd_history(out):
    return np.vstack((out.times, out.base_angle, out.joint_angle, out.base_rate,
                      out.joint_rate, out.torque, out.momentum))


@pytest.mark.parametrize("case", sorted(FOLDED_CASES))
def test_folded_pd_bytes_equal_general_loop(case):
    p, make_ref, gains, dt, phi0, th0 = FOLDED_CASES[case]
    ref = make_ref()
    out = smsdyn.simulate_pd(p, ref, gains, dt, base_angle0=phi0,
                             joint_angle0=th0)
    want = oracle_track_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    assert pd_history(out).tobytes() == want.tobytes()


def test_zero_offset_pd_runs_the_folded_loop(monkeypatch):
    def general(*args):
        raise AssertionError("general loop ran")
    monkeypatch.setattr(smsdyn, "_rk4_track", general)
    smsdyn.simulate_pd(ets7_params(), surrogate(), GAINS, 0.05)
    with pytest.raises(AssertionError):
        smsdyn.simulate_pd(MODELS["replay"], surrogate(), GAINS, 0.05)


def test_folded_pd_diverges_like_general_loop():
    t = np.linspace(0, 10, 11)
    ref = traj.JointTrajectory(t, np.full(11, 1.0), np.zeros(11))
    gains = PdGains(kp=2000.0, kd=0.0, torque_limit=1e9)
    with pytest.raises(Diverged) as want:
        oracle_track_pd(LIZARD, ref, gains, dt=1.0, joint_angle0=0.0)
    with pytest.raises(Diverged) as got:
        smsdyn.simulate_pd(LIZARD, ref, gains, dt=1.0, joint_angle0=0.0)
    assert str(got.value) == str(want.value)


def late_reference():
    t = 3.0 + np.arange(11.0)
    return traj.JointTrajectory(t, np.full(11, 1.0), np.zeros(11))


# (model, reference, gains, dt, base_angle0, joint_angle0, the time Diverged
# names). The folded loop steps the base after the joint, so each case
# pins which of the two leaves DIVERGE_LIMIT first.
DIVERGING = {
    # the base turns back 0.055 rad per joint rad and passes the limit
    # when the joint reaches 0.91 rad, at 34.7 s
    "base_after_many_steps": (ets7_params(), surrogate, GAINS, 0.05,
                              -(DIVERGE_LIMIT - 0.05), None, "34.700"),
    # sample 0 is never checked, so the first step is the one that fails
    "base_beyond_at_start": (ets7_params(), late_reference, GAINS, 0.5,
                             2 * DIVERGE_LIMIT, 0.0, "3.500"),
    # the base turns 1e-9 times as far as the joint, so only the joint fails
    "joint_first": (smsdyn.SmsParams(1.0, 1.0, 1e3, 1e-6), late_reference,
                    PdGains(kp=1e-4, kd=0.0, torque_limit=1e3), 1.0, 0.0, 0.0,
                    "7.000"),
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_folded_pd_diverges_at_the_general_loops_sample(case):
    p, make_ref, gains, dt, phi0, th0, when = DIVERGING[case]
    ref = make_ref()
    with pytest.raises(Diverged) as want:
        oracle_track_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    with pytest.raises(Diverged) as got:
        smsdyn.simulate_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    assert str(got.value) == str(want.value) == f"state blew up at t = {when} s"


@pytest.mark.parametrize("samples", [1, 2, 11])
def test_folded_pd_singular_mass_like_general_loop(samples):
    # one sample takes no step, so neither loop inverts M
    p = smsdyn.SmsParams(1.0, 1.0, 0.0, 0.0)
    ref = zero_reference(0.5) if samples == 11 else traj.JointTrajectory(
        np.arange(samples, dtype=float), np.full(samples, 0.5))
    if samples == 1:
        out = smsdyn.simulate_pd(p, ref, GAINS, dt=1.0)
        want = oracle_track_pd(p, ref, GAINS, dt=1.0)
        assert pd_history(out).tobytes() == want.tobytes()
        return
    with pytest.raises(SingularMass) as want:
        oracle_track_pd(p, ref, GAINS, dt=1.0)
    with pytest.raises(SingularMass) as got:
        smsdyn.simulate_pd(p, ref, GAINS, dt=1.0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("angles", [(math.pi, math.inf), (math.pi, math.nan),
                                    (-math.inf, 0.0), (math.nan, 0.0)],
                         ids=["joint_inf", "joint_nan", "base_inf", "base_nan"])
def test_non_finite_initial_angle_out_of_domain(name, angles):
    with pytest.raises(OutOfDomain, match="finite"):
        smsdyn.simulate_pd(MODELS[name], surrogate(), GAINS, 0.05,
                           base_angle0=angles[0], joint_angle0=angles[1])


# -- frozen oracle: per-sample smoothing, bisected surrogate frequency -------

def oracle_smooth(angle, window):
    n = len(angle)
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        k = min(i - lo, hi - 1 - i)
        out[i] = np.mean(angle[i - k:i + k + 1])
    return out


@pytest.mark.parametrize("window", [1, 3, 51, 2001])
def test_smooth_equal_to_oracle(window):
    rng = np.random.default_rng(3)
    t = np.arange(2001) * 0.01
    angle = np.cumsum(rng.normal(0.0, 0.05, 2001))
    got = traj.smooth(traj.JointTrajectory(t, angle), window)
    assert np.array_equal(got.angle, oracle_smooth(angle, window))
    assert got.rate is None


@pytest.mark.parametrize("overshoot, rise, duration, dt", [
    (13.85, 64.5, 225.0, 0.01), (13.85, 0.043, 0.150, 1e-3),
    (5.0, 2.0, 20.0, 0.01), (30.0, 1.0, 10.0, 0.01)])
def test_surrogate_rise_is_exact(monkeypatch, overshoot, rise, duration, dt):
    calls = []
    step_response = traj._step_response
    monkeypatch.setattr(traj, "_step_response",
                        lambda t, zeta, wn: calls.append((zeta, wn))
                        or step_response(t, zeta, wn))
    traj.synth_second_order(overshoot, rise, duration, dt)
    zeta, wn = calls[-1]
    monkeypatch.undo()
    assert abs(traj._analytic_rise(zeta, wn) - rise) <= 1e-9


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


def special_columns(rows, count, seed):
    """`count` columns of `rows` random cells; every 7th cell is NaN, +-inf,
    +-0.0 or subnormal in turn."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((count, rows)) * 10.0 ** rng.integers(-8, 9, (count, rows))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 0.0])
    flat = cells.reshape(-1)
    flat[::7] = np.resize(special, flat[::7].shape)
    return list(cells)


@pytest.mark.parametrize("rows", [0, 1, traj.WRITE_BLOCK - 1, traj.WRITE_BLOCK,
                                  traj.WRITE_BLOCK + 1, 2 * traj.WRITE_BLOCK + 1])
def test_block_writers_byte_identical_to_per_row(rows):
    assert traj.WRITE_BLOCK == 1024
    tr = SmsTrajectory(*special_columns(rows, 7, rows))
    buf = io.StringIO()
    smsdyn.write_trajectory_csv(tr, buf)
    assert buf.getvalue() == oracle_sms_csv(tr)
    times, angle, rate = special_columns(rows, 3, rows + 1)
    for tr in (SimpleNamespace(times=times, angle=angle, rate=rate),
               SimpleNamespace(times=times, angle=angle, rate=None)):
        buf = io.StringIO()
        traj.write_trajectory_csv(tr, buf)
        assert buf.getvalue() == oracle_traj_csv(tr)


def test_report_writer_byte_identical():
    report = objective.weight_sweep(50, pd_run(), CONTEXT)
    buf = io.StringIO()
    objective.write_report_csv(report, buf)
    assert buf.getvalue() == oracle_report_csv(report)


# -- frozen oracle: per-frame segment frames, per-sample JSON writer ---------

def oracle_dcm_from_axes(x_raw, y_temp):
    x_raw = np.asarray(x_raw, dtype=float)
    y_temp = np.asarray(y_temp, dtype=float)
    if np.linalg.norm(x_raw) <= rotmath.EPS_LEN:
        raise DegenerateAxes("x axis vector is near zero")
    cross = np.cross(x_raw, y_temp)
    if np.linalg.norm(cross) <= rotmath.EPS_LEN:
        raise DegenerateAxes("axis vectors are near parallel or zero")
    x = x_raw / np.linalg.norm(x_raw)
    z = np.cross(x, y_temp)
    z /= np.linalg.norm(z)
    y = np.cross(z, x)
    return np.array([x, y, z])


def oracle_leg_frame(segment, positions):
    a, b = frames.LEG_AXES[segment]
    y_raw = np.asarray(positions[b], dtype=float) - np.asarray(positions[a], dtype=float)
    ny = np.linalg.norm(y_raw)
    if ny <= rotmath.EPS_LEN:
        raise DegenerateAxes("zero-length limb axis")
    y = y_raw / ny
    z = np.cross(frames.X_INERTIAL, y)
    nz = np.linalg.norm(z)
    if nz <= rotmath.EPS_LEN:
        raise DegenerateAxes("limb parallel to inertial x")
    z /= nz
    x = np.cross(y, z)
    return np.array([x, y, z])


def oracle_segment_frame(segment, p):
    for kid in frames.REQUIRED_KEYPOINTS[segment]:
        if kid not in p:
            raise MissingKeypoint(f"keypoint {kid} required but absent")
    if segment is Segment.BODY:
        return oracle_dcm_from_axes(np.asarray(p[1]) - np.asarray(p[21]),
                                    np.asarray(p[13]) - np.asarray(p[12]))
    if segment is Segment.TAIL:
        return oracle_dcm_from_axes(np.asarray(p[23]) - np.asarray(p[21]),
                                    np.asarray(p[19]) - np.asarray(p[20]))
    return oracle_leg_frame(segment, p)


def oracle_dcm_to_euler321(R):
    R = np.asarray(R, dtype=float)
    sp = np.clip(-R[0, 2], -1.0, 1.0)
    pitch = np.arcsin(sp)
    if abs(pitch) > np.pi / 2 - rotmath.GIMBAL_MARGIN:
        warnings.warn("pitch at +/-90 deg: roll set to 0, free angle in yaw",
                      GimbalLockWarning, stacklevel=2)
        if pitch > 0:
            yaw = -np.arctan2(R[1, 0], R[1, 1])
        else:
            yaw = np.arctan2(-R[1, 0], R[1, 1])
        return (float(yaw), float(pitch), 0.0)
    yaw = np.arctan2(R[0, 1], R[0, 0])
    roll = np.arctan2(R[1, 2], R[2, 2])
    return (float(yaw), float(pitch), float(roll))


def oracle_series_from_rotations(segment, times, rotations, valid):
    euler = np.full((len(times), 3), np.nan)
    for i, ok in enumerate(valid):
        if ok:
            euler[i] = oracle_dcm_to_euler321(rotations[i])
    out = euler.copy()
    n, i = len(valid), 0
    while i < n:
        if not valid[i]:
            i += 1
            continue
        j = i
        while j < n and valid[j]:
            j += 1
        for c in range(3):
            out[i:j, c] = np.unwrap(euler[i:j, c])
        i = j
    return frames.SegmentFrameSeries(segment, np.asarray(times, dtype=float),
                                     rotations, out, np.asarray(valid), {})


def oracle_segment_series(dataset, segment):
    needed = frames.REQUIRED_KEYPOINTS[segment]
    times = np.arange(dataset.frame_count) / dataset.frame_rate
    rotations = []
    valid = np.zeros(dataset.frame_count, dtype=bool)
    for f in range(dataset.frame_count):
        positions = {}
        for kid in needed:
            track = dataset.tracks.get(kid)
            if track is None:
                continue
            idx = np.searchsorted(track.frames, f)
            if idx < len(track.frames) and track.frames[idx] == f and track.visible[idx]:
                positions[kid] = track.positions[idx]
        try:
            R = oracle_segment_frame(segment, positions)
        except (MissingKeypoint, DegenerateAxes):
            rotations.append(None)
            continue
        rotations.append(R)
        valid[f] = True
    if not valid.any():
        raise NoValidFrames(f"no valid frames for {segment.value}")
    return oracle_series_from_rotations(segment, times, rotations, valid)


def oracle_relative_leg_series(leg, body):
    valid = leg.valid & body.valid
    rotations = [np.asarray(leg.rotations[i]) @ np.asarray(body.rotations[i]).T
                 if ok else None for i, ok in enumerate(valid)]
    return oracle_series_from_rotations(leg.segment, leg.times, rotations, valid)


def oracle_save_json(dataset, stream):
    obj = {"frame_rate": dataset.frame_rate, "frame_count": dataset.frame_count,
           "unit": dataset.unit, "tracks": []}
    for kid in sorted(dataset.tracks):
        track = dataset.tracks[kid]
        samples = []
        for i, frame in enumerate(track.frames):
            s = {"frame": int(frame),
                 "x": float(track.positions[i][0]),
                 "y": float(track.positions[i][1]),
                 "visible": bool(track.visible[i])}
            if track.dim == 3:
                s["z"] = float(track.positions[i][2])
            samples.append(s)
        obj["tracks"].append({"id": kid, "name": track.name, "samples": samples})
    json.dump(obj, stream)


def oracle_save_csv(dataset, stream):
    some = next(iter(dataset.tracks.values()))
    cols = ["frame", "keypoint_id", "keypoint_name", "x", "y"] + \
        (["z"] if some.dim == 3 else []) + ["visible"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(cols)
    for kid in sorted(dataset.tracks):
        track = dataset.tracks[kid]
        for i, frame in enumerate(track.frames):
            coords = [repr(float(c)) for c in track.positions[i]] \
                if track.visible[i] else ["nan"] * track.dim
            writer.writerow([int(frame), kid, track.name, *coords,
                             int(track.visible[i])])


# -- fixtures: a recording with every kind of bad frame ----------------------

LOCK_FRAMES = (20, 21, 22)


def pitch_up():
    """Active rotation taking the inertial x axis onto +z."""
    return np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def awkward_dataset():
    """40 frames at 1 kHz: two full roll turns (so unwrapping matters)
    under a yaw sway, with invisible, absent, degenerate and gimbal-lock
    frames, and two tracks stored sparse."""
    n = 40
    poses = []
    for f in range(n):
        yaw = 0.4 * np.sin(f / 5.0)
        Rz = np.array([[np.cos(yaw), -np.sin(yaw), 0.0],
                       [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]])
        R = Rz @ roll_matrix(4 * np.pi * f / n)
        if f in LOCK_FRAMES:
            R = pitch_up() @ roll_matrix(0.3 * f)
        poses.append({kid: R @ np.asarray(p) for kid, p in REST_POSE.items()})
    poses[7][12] = poses[7][21] + 0.5 * (poses[7][1] - poses[7][21])
    poses[7][13] = poses[7][21] + 0.7 * (poses[7][1] - poses[7][21])
    poses[8][8] = poses[8][12].copy()
    poses[9][16] = poses[9][20] + np.array([0.1, 0.0, 0.0])
    poses[15][23] = poses[15][21].copy()
    visible = {1: np.ones(n, dtype=bool), 13: np.ones(n, dtype=bool),
               15: np.ones(n, dtype=bool)}
    visible[1][[3, 4]] = False
    visible[13][30] = False
    visible[15][[0, 1, 2]] = False
    ds = dataset_from_poses(poses, visible=visible)
    tracks = dict(ds.tracks)
    for kid, drop in ((19, [25, 26, 27]), (9, [5, 33, 39])):
        keep = np.setdiff1d(np.arange(n), drop)
        t = tracks[kid]
        tracks[kid] = keypoints.KeypointTrack(kid, t.name, keep, t.positions[keep],
                                              t.visible[keep])
    return keypoints.KeypointDataset(tracks, ds.frame_rate, n, "meter")


def record_gimbal(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, GimbalLockWarning) for w in caught)


def assert_series_match(got, want):
    assert np.array_equal(got.valid, want.valid)
    assert np.array_equal(np.isnan(got.euler), np.isnan(want.euler))
    assert np.nanmax(np.abs(got.euler - want.euler)) <= 1e-12
    for i, ok in enumerate(want.valid):
        if ok:
            assert np.max(np.abs(np.asarray(got.rotations[i])
                                 - want.rotations[i])) <= 1e-12
        else:
            assert got.rotations[i] is None


# -- frames ------------------------------------------------------------------

def test_fixture_has_every_kind_of_bad_frame():
    ds = awkward_dataset()
    invalid = {seg: set(np.flatnonzero(~record_gimbal(
        oracle_segment_series, ds, seg)[0].valid).tolist()) for seg in Segment}
    assert {3, 4, 7, 30} <= invalid[Segment.BODY]          # invisible, collinear
    assert {15, 25} <= invalid[Segment.TAIL]               # zero-length, absent
    assert 8 in invalid[Segment.RIGHT_FRONT_LEG]           # zero-length limb
    assert 9 in invalid[Segment.LEFT_HIND_LEG]             # limb along x_N
    assert {5, 33, 39} <= invalid[Segment.LEFT_FRONT_LEG]  # absent
    assert {0, 1, 2} <= invalid[Segment.RIGHT_HIND_LEG]    # invisible


@pytest.mark.parametrize("segment", list(Segment), ids=lambda s: s.value)
def test_segment_series_equal_to_oracle(segment):
    ds = awkward_dataset()
    want, want_locks = record_gimbal(oracle_segment_series, ds, segment)
    got, got_locks = record_gimbal(frames.segment_series, ds, segment)
    assert_series_match(got, want)
    assert got.metadata["gimbal_lock_frames"] == want_locks
    assert got_locks == (1 if want_locks else 0)
    if segment in (Segment.BODY, Segment.TAIL):
        assert want_locks == len(LOCK_FRAMES)


@pytest.mark.parametrize("leg", [s for s in Segment if s in frames.LEG_AXES],
                         ids=lambda s: s.value)
def test_relative_leg_series_equal_to_oracle(leg):
    ds = awkward_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GimbalLockWarning)
        body = frames.segment_series(ds, Segment.BODY)
        series = frames.segment_series(ds, leg)
    want, want_locks = record_gimbal(oracle_relative_leg_series, series, body)
    got, got_locks = record_gimbal(frames.relative_leg_series, series, body)
    assert_series_match(got, want)
    assert got.metadata["relative_to"] == "Body"
    assert got.metadata["gimbal_lock_frames"] == want_locks
    assert got_locks == (1 if want_locks else 0)


def test_relative_series_gimbal_lock_warns_once():
    n = 6
    rots = [np.eye(3)] * n
    locked = [rotmath.euler321_to_dcm(rotmath.EulerYPR(0.2, np.pi / 2, 0.1))] * n
    times = np.arange(n) / 1000.0
    body = frames.SegmentFrameSeries(Segment.BODY, times, rots,
                                     np.zeros((n, 3)), np.ones(n, bool), {})
    leg = frames.SegmentFrameSeries(Segment.LEFT_FRONT_LEG, times, locked,
                                    np.zeros((n, 3)), np.ones(n, bool), {})
    want, want_locks = record_gimbal(oracle_relative_leg_series, leg, body)
    got, got_locks = record_gimbal(frames.relative_leg_series, leg, body)
    assert (want_locks, got_locks, got.metadata["gimbal_lock_frames"]) == (n, 1, n)
    assert_series_match(got, want)


def test_absent_track_no_valid_frames_like_oracle():
    ds = awkward_dataset()
    tracks = {k: t for k, t in ds.tracks.items() if k != 9}
    ds = keypoints.KeypointDataset(tracks, ds.frame_rate, ds.frame_count, "meter")
    with pytest.raises(NoValidFrames):
        oracle_segment_series(ds, Segment.LEFT_FRONT_LEG)
    with pytest.raises(NoValidFrames):
        frames.segment_series(ds, Segment.LEFT_FRONT_LEG)


# -- keypoints: JSON writer and JSON ingest ----------------------------------

def pixel_recording():
    """2D pixel CSV: a yawing planar lizard with invisible rows and rows
    left out, and the same samples as a sparse JSON document."""
    rows, tracks = [], {}
    for f in range(30):
        yaw = 0.05 * f
        c, s = np.cos(yaw), np.sin(yaw)
        for kid, (x, y, _) in REST_POSE.items():
            if (kid, f) in ((12, 4), (9, 11), (21, 17)) or (kid == 16 and 20 <= f < 24):
                continue  # row left out
            vis = 0 if (kid, f) in ((1, 6), (13, 6), (8, 12)) else 1
            px = (300 + 1000 * (c * x - s * y), 200 - 1000 * (s * x + c * y))
            rows.append((f, kid, *(px if vis else (np.nan, np.nan)), vis))
            tracks.setdefault(kid, []).append(
                {"frame": f, "x": px[0] if vis else None,
                 "y": px[1] if vis else None, "visible": bool(vis)})
    doc = {"frame_rate": 1000.0, "frame_count": 30, "unit": "pixel",
           "tracks": [{"id": kid, "name": keypoints.KEYPOINT_NAMES[kid],
                       "samples": samples} for kid, samples in tracks.items()]}
    return csv_text(rows), json.dumps(doc)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("which", ["pixel_csv", "awkward_meter", "sparse"])
def test_dataset_writer_byte_identical(which, fmt):
    if which == "pixel_csv":
        ds = keypoints.load_dataset(io.StringIO(pixel_recording()[0]),
                                    format="csv", frame_rate=1000.0)
    elif which == "awkward_meter":
        ds = dataset_from_poses([REST_POSE] * 3)
        ds.tracks[5].positions[1] = np.nan
        ds.tracks[5].visible[1] = False
    else:
        ds = awkward_dataset()
    want, got = io.StringIO(), io.StringIO()
    (oracle_save_json if fmt == "json" else oracle_save_csv)(ds, want)
    keypoints.save_dataset(ds, got, format=fmt)
    assert got.getvalue() == want.getvalue()


def test_reconstruct_same_bytes_from_csv_and_sparse_json(tmp_path):
    csv_doc, json_doc = pixel_recording()
    (tmp_path / "rec.csv").write_text(csv_doc)
    (tmp_path / "rec.json").write_text(json_doc)
    for extra in ([], ["--segment", "RightFrontLeg", "--relative-to-body"]):
        out = {}
        for ext in ("csv", "json"):
            argv = ["reconstruct", "--input", str(tmp_path / f"rec.{ext}"),
                    "--output", str(tmp_path / f"out_{ext}.csv"),
                    "--segment", "Body", "--frame-rate", "1000"] + extra
            assert cli.main(argv) == 0
            out[ext] = (tmp_path / f"out_{ext}.csv").read_bytes()
        assert out["csv"] == out["json"]
        assert out["csv"].count(b",0\n") >= 2  # the invisible frames show


# -- keypoints: the whole-column CSV loader ----------------------------------

def oracle_parse_number(token, what, kind):
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None


def oracle_load_csv(text, frame_rate=1000.0, unit="pixel"):
    """The per-row loader: one csv.reader row, int()/float() per token."""
    reader = csv.reader(io.StringIO(text, newline=None))  # universal newlines
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("no header row") from None
    if header[:4] != ["frame", "keypoint_id", "keypoint_name", "x"]:
        raise ParseError(f"unexpected header {header!r}")
    has_z = "z" in header
    ncol = 7 if has_z else 6
    rows = {}  # id -> {frame: (coords, visible)}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != ncol:
            raise ParseError(f"line {lineno}: expected {ncol} fields, got {len(row)}")
        frame = oracle_parse_number(row[0], "frame", int)
        kid = oracle_parse_number(row[1], "keypoint_id", int)
        name = row[2]
        if kid not in keypoints.KEYPOINT_NAMES:
            raise SchemaError(f"line {lineno}: keypoint id {kid} out of range 1-23")
        if name != keypoints.KEYPOINT_NAMES[kid]:
            raise SchemaError(f"line {lineno}: unknown keypoint name {name!r} for id {kid}")
        coords = [oracle_parse_number(tok, "coordinate", float)
                  for tok in row[3:ncol - 1]]
        vis = row[ncol - 1]
        if vis not in ("0", "1"):
            raise ParseError(f"line {lineno}: visible must be 0 or 1, got {vis!r}")
        if vis == "1" and not all(map(math.isfinite, coords)):
            raise ParseError(f"line {lineno}: non-finite coordinate on a visible row")
        per = rows.setdefault(kid, {})
        if frame in per:
            raise SchemaError(f"line {lineno}: duplicate (frame {frame}, keypoint {kid})")
        per[frame] = (coords, vis == "1")
    if not rows:
        raise EmptyDataset("no data rows")
    frame_count = 1 + max(max(per) for per in rows.values())
    dim = 3 if has_z else 2
    tracks = {}
    for kid in sorted(rows):
        frames_idx = np.asarray(list(rows[kid]), dtype=int)
        if frames_idx.min() < 0:
            raise SchemaError(f"track {kid}: frame index outside 0..{frame_count - 1}")
        positions = np.full((frame_count, dim), np.nan)
        positions[frames_idx] = np.asarray([c for c, _ in rows[kid].values()],
                                           dtype=float).reshape(-1, dim)
        vis = np.zeros(frame_count, dtype=bool)
        vis[frames_idx] = [v for _, v in rows[kid].values()]
        positions[~vis] = np.nan
        tracks[kid] = keypoints.KeypointTrack(kid, keypoints.KEYPOINT_NAMES[kid],
                                              np.arange(frame_count), positions, vis)
    return keypoints.KeypointDataset(tracks, float(frame_rate), frame_count, unit)


def oracle_interpolate_gaps(track, max_gap):
    """interpolate_gaps weighted by sample index, as on dense tracks."""
    positions = track.positions.copy()
    visible = track.visible.copy()
    interpolated = track.interpolated.copy()
    vis_idx = np.flatnonzero(track.visible)
    for a, b in zip(vis_idx[:-1].tolist(), vis_idx[1:].tolist()):
        if 2 <= b - a <= max_gap + 1:
            w = (np.arange(a + 1, b) - a)[:, None] / (b - a)
            positions[a + 1:b] = (1 - w) * track.positions[a] + w * track.positions[b]
            visible[a + 1:b] = interpolated[a + 1:b] = True
    return positions, visible, interpolated


def load_new(text):
    return keypoints.load_dataset(io.StringIO(text), format="csv",
                                  frame_rate=1000.0)


def benchmark_recording(tmp_path, seed):
    """The tracker CSV text of the benchmark's `recording` workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate_recording(tmp_path, seed)
    return (tmp_path / "tracks.csv").read_text()


def assert_same_dataset(got, want):
    assert got.frame_count == want.frame_count
    assert list(got.tracks) == list(want.tracks)
    for kid, track in want.tracks.items():
        other = got.tracks[kid]
        assert other.name == track.name
        assert np.array_equal(other.frames, track.frames)
        assert np.array_equal(other.visible, track.visible)
        assert np.array_equal(other.positions, track.positions, equal_nan=True)


H2 = "frame,keypoint_id,keypoint_name,x,y,visible\n"
H3 = "frame,keypoint_id,keypoint_name,x,y,z,visible\n"


def csv_fixtures():
    """Every kind of tracker CSV the suite builds, valid ones only."""
    rng = np.random.default_rng(5)
    rows3 = [(f, kid, *rng.normal(size=3), int(rng.random() > 0.2))
             for f in range(12) for kid in (1, 12, 13, 21) if (f, kid) != (4, 12)]
    return {
        "full": full_csv_dataset(140),
        "rest_pose": csv_text([(f, kid, p[0], p[1], 1)
                               for f in range(5) for kid, p in REST_POSE.items()]),
        "pixel_recording": pixel_recording()[0],
        "sparse_rows": csv_text([(0, 1, 1.25, -2.5, 1), (1, 1, 0.1, 0.2, 0),
                                 (2, 1, 3.75, 4.125, 1), (0, 21, 9.0, 9.5, 1),
                                 (2, 21, 8.0, 7.5, 1)]),
        "invisible_nan": csv_text([(0, 1, 1.0, 2.0, 1), (1, 1, np.nan, np.nan, 0)]),
        "three_d": csv_text(rows3, has_z=True),
        "quoted_blank_crlf": H2 + '0,1,"Neck",1.5,2,1\r\n\r\n'
                                  '1,1,Neck, 3 ,-4e-3,0\r\n2,21,"Tail_Top_Back",+5,inf,0',
        "unordered": H2 + "3,21,Tail_Top_Back,1,2,1\n0,21,Tail_Top_Back,3,4,1\n"
                          "1,2,Eye_Left,5,6,1\n",
    }


@pytest.mark.parametrize("name", sorted(csv_fixtures()))
def test_csv_loader_equal_to_oracle(name):
    text = csv_fixtures()[name]
    assert_same_dataset(load_new(text), oracle_load_csv(text))


@pytest.mark.parametrize("seed", [11, 23])
def test_csv_loader_equal_to_oracle_on_benchmark_recording(tmp_path, seed):
    text = benchmark_recording(tmp_path, seed)
    assert_same_dataset(load_new(text), oracle_load_csv(text))


def line_of(exc):
    found = re.search(r"\bline (\d+)\b", str(exc))
    return int(found.group(1)) if found else None


#: (case, text, error class, the line the new loader names or None).
MALFORMED = [
    ("bad_number", H2 + "0,1,Neck,1.0,2.0,1\n0,2,Eye_Left,abc,2.0,1\n", ParseError, 3),
    ("float_frame", H2 + "1.0,1,Neck,1.0,2.0,1\n", ParseError, 2),
    ("float_id", H2 + "0,1.0,Neck,1.0,2.0,1\n", ParseError, 2),
    ("id_24", H2 + "0,1,Neck,1,2,1\n0,24,Extra_Point,1.0,2.0,1\n", SchemaError, 3),
    ("id_0", H2 + "0,0,Neck,1.0,2.0,1\n", SchemaError, 2),
    ("wrong_name", H2 + "0,1,Tail_End_Back,1.0,2.0,1\n", SchemaError, 2),
    ("long_name", H2 + "0,5,Mouth_Front_Bottom_Extra,1.0,2.0,1\n", SchemaError, 2),
    ("quoted_wrong_name", H2 + '0,1,"Ne,ck",1.0,2.0,1\n', SchemaError, 2),
    ("visible_2", H2 + "0,1,Neck,1.0,2.0,2\n", ParseError, 2),
    ("visible_01", H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,1.0,2.0,01\n", ParseError, 3),
    ("visible_space", H2 + "0,1,Neck,1.0,2.0,1 \n", ParseError, 2),
    ("nan_visible", H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,nan,2.0,1\n", ParseError, 3),
    ("inf_visible", H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,3.0,-inf,1\n", ParseError, 3),
    ("duplicate", H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,1,2,1\n0,1,Neck,3.0,4.0,0\n",
     SchemaError, 4),
    ("negative_frame", H2 + "0,1,Neck,1.0,2.0,1\n-1,1,Neck,9.0,9.0,1\n", SchemaError, 3),
    ("too_few_fields", H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,1.0,2.0\n", ParseError, 3),
    ("too_many_fields", H2 + "0,1,Neck,1.0,2.0,1,7\n", ParseError, 2),
    ("whitespace_line", H2 + "0,1,Neck,1.0,2.0,1\n  \n", ParseError, 3),
    ("blank_then_bad_token", H2 + "0,1,Neck,1,2,1\n\n\n1,1,Neck,x1,2,1\n", ParseError, 5),
    ("blank_then_bad_visible", H2 + "0,1,Neck,1,2,1\n\n1,1,Neck,1,2,2\n", ParseError, 4),
    ("first_of_two_faults", H2 + "0,1,Neck,1,2,1\n1,1,Neck,1,2,9\n0,25,Neck,1,2,1\n",
     ParseError, 3),
    ("header_only", H2, EmptyDataset, None),
    ("header_and_blank_lines", H2 + "\n\r\n", EmptyDataset, None),
    ("z_missing", H3 + "0,1,Neck,1.0,2.0,3.0,1\n1,1,Neck,1.0,2.0,1\n", ParseError, 3),
    ("z_bad_token", H3 + "0,1,Neck,1.0,2.0,zz,1\n", ParseError, 2),
    ("z_nan_visible", H3 + "0,1,Neck,1.0,2.0,nan,1\n", ParseError, 2),
    ("bad_number_cr", (H2 + "0,1,Neck,1.0,2.0,1\n0,2,Eye_Left,abc,2.0,1\n")
     .replace("\n", "\r"), ParseError, 3),
    ("duplicate_cr", (H2 + "0,1,Neck,1.0,2.0,1\n1,1,Neck,1,2,1\n0,1,Neck,3.0,4.0,0\n")
     .replace("\n", "\r"), SchemaError, 4),
]


@pytest.mark.parametrize("text, error, line", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_csv_loader_rejects_like_oracle(text, error, line):
    with pytest.raises(error) as want:
        oracle_load_csv(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy "input contained no data"
        with pytest.raises(error) as got:
            load_new(text)
    assert line_of(got.value) == line
    # the per-row loader named no line for a bad token or a negative frame
    assert line_of(want.value) in (None, line)


def test_csv_bad_row_deep_in_a_recording_names_its_line(tmp_path):
    lines = benchmark_recording(tmp_path, 11).split("\n")
    lines[30000] = lines[30000].replace(",1", ",1e", 1)
    lines.insert(20000, "")
    with pytest.raises(ParseError, match=r"^line 30002: "):
        load_new("\n".join(lines))


def test_json_load_peak_memory_is_a_few_times_the_text(tmp_path):
    # one decoded str and the parsed document: about 4.5x the text length,
    # where an extra io.StringIO copy of the text took it to about 8.3x
    dataset = load_new(benchmark_recording(tmp_path, 11))
    buf = io.StringIO()
    keypoints.save_dataset(dataset, buf, format="json")
    path = tmp_path / "rec.json"
    path.write_text(buf.getvalue())
    tracemalloc.start()
    try:
        keypoints.load_dataset(path, format="json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * len(buf.getvalue())


@pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\u0663", 3.0)])
def test_csv_rejects_tokens_python_float_accepts(token, value):
    # The one intended difference: float() reads digit groups ("1_0") and
    # non-ASCII digits (ARABIC-INDIC DIGIT THREE); the numpy parse does not.
    text = H2 + f"0,1,Neck,{token},2.0,1\n"
    assert oracle_load_csv(text).tracks[1].positions[0, 0] == value
    with pytest.raises(ParseError, match="line 2"):
        load_new(text)


@pytest.mark.parametrize("row", ["1,1,Neck\0,3,4,1", "1,1,Neck,3,4,1\0"])
def test_csv_rejects_trailing_nul_in_a_text_field(row):
    # numpy drops a trailing NUL from a text field, so the loader refuses
    # NUL outright; the per-row loader failed the name or visible check.
    text = H2 + "0,1,Neck,1,2,1\n" + row + "\n"
    with pytest.raises((SchemaError, ParseError), match="line 3"):
        oracle_load_csv(text)
    with pytest.raises(ParseError, match="line 3: NUL"):
        load_new(text)


def test_interpolate_gaps_on_dense_tracks_equal_to_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(3, 80))
        visible = rng.random(n) > 0.4
        visible[rng.integers(n, size=2)] = True
        positions = rng.normal(size=(n, 3))
        positions[~visible] = np.nan
        track = keypoints.KeypointTrack(1, "Neck", np.arange(n), positions, visible)
        max_gap = int(rng.integers(1, 6))
        got = keypoints.interpolate_gaps(track, max_gap)
        want = oracle_interpolate_gaps(track, max_gap)
        assert np.array_equal(got.positions, want[0], equal_nan=True)
        assert np.array_equal(got.visible, want[1])
        assert np.array_equal(got.interpolated, want[2])


def test_dataset_json_writer_non_finite_and_empty_tracks():
    t = keypoints.KeypointTrack(1, "Neck", [0, 1, 2],
                                [[0.1, -0.0], [np.inf, -np.inf], [np.nan, 1e300]],
                                [True, False, False])
    empty = keypoints.KeypointTrack(21, "Tail_Top_Back", [], np.empty((0, 2)), [])
    ds = keypoints.KeypointDataset({21: empty, 1: t}, 1000.0, 3, "pixel")
    want, got = io.StringIO(), io.StringIO()
    oracle_save_json(ds, want)
    keypoints.save_dataset(ds, got, format="json")
    assert got.getvalue() == want.getvalue()
