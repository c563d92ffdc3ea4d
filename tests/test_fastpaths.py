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
axis, leg and Euler formulas and a rotation or None per frame, the
per-sample `json.dump` writer and the per-row CSV writers of datasets and
segment series. The batched series must match them to 1e-12 with equal
validity and all-NaN rotations where the oracle has None, and the writers
byte for byte. The three-pass stability report, which measured each
track's movement and variance twice, is frozen as
`oracle_stability_report`, and the one-pass report must equal it row for
row. The weight grid comprehension is frozen as `oracle_simplex_grid`,
and the array grid must equal it byte for byte.

The tracker-CSV loader has a frozen oracle as well: the per-row
`csv.reader` loader with `int()`/`float()` per token. The whole-column
`np.loadtxt` loader must give array-equal datasets on every CSV fixture
and on the benchmark recordings, and raise the same error class on the
same line for each malformed input. It does so from a stream and from a
path, which it reads in blocks without holding the text: both must give
the same dataset or the same error. The one intended difference is
pinned: `float()` reads "1_0" and non-ASCII digits, the numpy parse does
not.

The general RK4 loop `smsdyn._rk4_track` is frozen as `oracle_rk4_track`:
PD tracking on a zero-offset model runs a folded loop, and on a
PlanarOffset model the general loop itself, and either history must equal
it byte for byte (`tobytes`, so the sign of a zero counts). The
per-sample `traj.smooth` loop is frozen as `oracle_smooth`, and the
windowed average must equal it.

Legs build their triad with `rotmath.dcms_from_axes`, as the body and the
tail do; the leg's own routine is frozen as `oracle_leg_dcms`, and where
both call a limb valid the rotations must be equal byte for byte. The
validity rule is the one intended change: a limb is degenerate when its
tip lies within EPS_LEN of the inertial x axis through its base, no longer
when its direction does, pinned by two limbs. Re-association merges its
episodes as it finds them; the raw event list and its sorted second pass
are frozen as `oracle_reassociate`, and the episodes must be equal on the
benchmark recording and on random event streams. Re-association now tests
the jumps of a block of frames in one whole-array pass and goes frame by
frame only from an offender frame to the next clean one; against the same
oracle, its events must be equal and its positions byte-equal on long
random streams, on the benchmark recording down to a 0.5 px max_jump, at
block edges, with a track never visible and with 0 or 1 frame. The
per-gap `interpolate_gaps` loop is frozen as
`oracle_interpolate_gaps_per_gap`, and the one-pass fill must equal it
byte for byte on sparse tracks.

The whole-document JSON loader is frozen as `oracle_load_json`. The
loader decodes with `json.loads` and an `object_hook` that turns each
object's non-empty "samples" list into that track's arrays as soon as
it is decoded; if that pass raises anything, or leaves a unit or a name
that is not a str, it decodes the text again with a plain `json.loads`
and runs the same checks. It must give an equal dataset on the
benchmark recording in 2D and 3D, in four key orders and layouts, and
on small documents with empty and sparse tracks, NaN and Infinity on
invisible samples, repeated keys, objects other than tracks that hold
a "samples" list, and a later track whose z a 2D document ignores. On
every JSON fault the suite's error tests build, on faults the hooked
pass alone would name differently (a 2D track after a 3D one, a name,
unit or frame_count that holds samples), and on seeded mutations of a
small document, it must raise the same exception type with the same
message. Three intended differences are pinned: a frame_rate integer
too large for a float is reported as a frame_rate error, a track id
true is refused, and a track that holds a coordinate whose JSON type is
no number or null (a string such as "1.5", true, false, a list or an
object) is refused naming the track, before any other coordinate of it
is converted.
"""

import csv
import importlib.util
import io
import json
import math
import operator
import os
import random
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bioright import (cli, frames, keypoints, objective, rotmath, smsdyn,
                      track_quality, traj)
from bioright.errors import (BiorightError, DegenerateAxes, Diverged,
                             EmptyDataset, GimbalLockWarning, MissingKeypoint,
                             NoValidFrames, OutOfDomain, ParseError,
                             SchemaError, SingularMass, TooSparse)
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
    y = np.array([s.base_angle, s.joint_angle, s.base_rate, s.joint_rate])
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
            if np.max(np.abs([s.base_angle, s.joint_angle, s.base_rate,
                              s.joint_rate])) > DIVERGE_LIMIT:
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


def oracle_simplex_grid(resolution):
    """The weight triples of the per-point comprehension, as tuples."""
    n = resolution
    return [(i / n, j / n, (n - i - j) / n)
            for i in range(n + 1) for j in range(n - i + 1)]


def oracle_weight_sweep(resolution, tr, context):
    rows = [objective.evaluate(objective.ObjectiveWeights(*w), tr, context)[1]
            for w in oracle_simplex_grid(resolution)]
    return rows, min(rows, key=lambda r: r.J)


def oracle_row_array(rows):
    """ObjectiveRows as an (n, 7) array in the sweep CSV's column order."""
    return np.array([[*r.weights.as_tuple(), r.phi_safety, r.phi_stability,
                      r.phi_efficiency, r.J] for r in rows]).reshape(-1, 7)


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


def oracle_report_csv(rows, argmin):
    stream = io.StringIO()
    for name, definition in sorted(objective.FUNCTIONAL_DEFINITIONS.items()):
        stream.write(f"# {name}: {definition}\n")
    stream.write("w_safety,w_stability,w_efficiency,"
                 "phi_safety,phi_stability,phi_efficiency,J\n")
    for row in rows:
        w = row.weights
        stream.write(f"{w.w_safety:.9g},{w.w_stability:.9g},"
                     f"{w.w_efficiency:.9g},{row.phi_safety:.9g},"
                     f"{row.phi_stability:.9g},{row.phi_efficiency:.9g},"
                     f"{row.J:.9g}\n")
    a = argmin
    stream.write(f"# argmin,{a.weights.w_safety:.9g},"
                 f"{a.weights.w_stability:.9g},{a.weights.w_efficiency:.9g},"
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
        assert np.array_equal([got.base_angle, got.joint_angle, got.base_rate, got.joint_rate],
                              [want.base_angle, want.joint_angle, want.base_rate,
                               want.joint_rate])
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
    "reduced_base": (replace(ets7_params(), base_inertia=6200.0 / 20.0),
                     surrogate, GAINS, 0.05, math.pi, None),
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


# -- the general loop on PlanarOffset models ---------------------------------

def light_reference():
    # the 151-sample flip stretched to 2 s: rates of a few rad/s on LIGHT
    flip = traj.synth_second_order(13.85, 0.043, 0.150, 1e-3)
    return traj.time_scale(traj.differentiate(
        traj.JointTrajectory(flip.times, flip.angle)), 2.0)


REPLAY = MODELS["replay"]
# (model, reference, gains, dt, base_angle0, joint_angle0); every model
# here has offsets, so `simulate_pd` runs the general loop.
GENERAL_CASES = {
    "planar_offset": (MODELS["planar_offset"], surrogate, GAINS, 0.05,
                      math.pi, None),
    "coarse_grid": (REPLAY, coarse_reference, GAINS, 0.05, 0.25, None),
    "replay_shaped": (REPLAY, replay_shaped_reference, GAINS, 0.01, math.pi,
                      None),
    # the torque sits at exactly +1 and at exactly -1 for many samples
    "saturated_both_signs": (REPLAY, surrogate,
                             PdGains(kp=2000.0, kd=20000.0, torque_limit=1.0),
                             0.05, math.pi, 0.0),
    "joint_angle0_neg_zero": (REPLAY, surrogate, GAINS, 0.05, math.pi, -0.0),
    "base_angle0_neg_zero": (REPLAY, surrogate, GAINS, 0.05, -0.0, None),
    "zero_reference": (REPLAY, lambda: zero_reference(0.0), GAINS, 0.5, 0.0,
                       0.0),
    "neg_zero_reference": (REPLAY, lambda: zero_reference(-0.0), GAINS, 0.5,
                           -0.0, -0.0),
    # rates of a few rad/s, so the Coriolis terms move the result
    "light": (LIGHT, light_reference,
              PdGains(kp=5.0, kd=1.0, torque_limit=2.0), 0.002, math.pi, None),
    "one_sample": (REPLAY, lambda: traj.JointTrajectory([3.0], [1.0]), GAINS,
                   0.05, math.pi, None),
}


@pytest.mark.parametrize("case", sorted(GENERAL_CASES))
def test_general_pd_bytes_equal_oracle(case):
    p, make_ref, gains, dt, phi0, th0 = GENERAL_CASES[case]
    ref = make_ref()
    out = smsdyn.simulate_pd(p, ref, gains, dt, base_angle0=phi0,
                             joint_angle0=th0)
    want = oracle_track_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    assert pd_history(out).tobytes() == want.tobytes()


def test_general_pd_saturates_at_exactly_the_limit():
    p, make_ref, gains, dt, phi0, th0 = GENERAL_CASES["saturated_both_signs"]
    out = smsdyn.simulate_pd(p, make_ref(), gains, dt, base_angle0=phi0,
                             joint_angle0=th0)
    assert (out.torque == 1.0).sum() > 100 and (out.torque == -1.0).sum() > 100
    assert np.abs(out.torque).max() == 1.0


# (model, reference, gains, dt, base_angle0, joint_angle0, the time Diverged
# names). The general loop checks all four states after every step.
GENERAL_DIVERGING = {
    # the base turns back about 0.075 rad per joint rad and passes the
    # limit when the joint reaches 0.67 rad, at 28.85 s
    "base_after_many_steps": (REPLAY, surrogate, GAINS, 0.05,
                              -(DIVERGE_LIMIT - 0.05), None, "28.850"),
    # sample 0 is never checked, so the first step is the one that fails
    "base_beyond_at_start": (REPLAY, late_reference, GAINS, 0.5,
                             2 * DIVERGE_LIMIT, 0.0, "3.500"),
    # the joint rate reaches -1.9e6 while the base stays within 10 rad
    "joint_first": (smsdyn.SmsParams(1.0, 1.0, 1e3, 1e-6, 1e-3, 1e-3,
                                     Mode.PLANAR_OFFSET), late_reference,
                    PdGains(kp=1e-4, kd=0.0, torque_limit=1e3), 1.0, 0.0, 0.0,
                    "7.000"),
}


@pytest.mark.parametrize("case", sorted(GENERAL_DIVERGING))
def test_general_pd_diverges_like_oracle(case):
    p, make_ref, gains, dt, phi0, th0, when = GENERAL_DIVERGING[case]
    ref = make_ref()
    with pytest.raises(Diverged) as want:
        oracle_track_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    with pytest.raises(Diverged) as got:
        smsdyn.simulate_pd(p, ref, gains, dt, base_angle0=phi0, joint_angle0=th0)
    assert str(got.value) == str(want.value) == f"state blew up at t = {when} s"


@pytest.mark.parametrize("p", [*MODELS.values(), LIGHT],
                         ids=[*MODELS, "planar_light"])
@pytest.mark.parametrize("tau", [0.0, -0.0], ids=["pos_zero", "neg_zero"])
def test_rk4_step_signed_zero_torque(p, tau):
    # lo = hi = tau: the clamp holds a zero torque as min(max(u, lo), hi) did
    rng = np.random.default_rng(13)
    states = [SmsState(0.0, 0.0, 0.0, 0.0), SmsState(-0.0, -0.0, -0.0, -0.0),
              SmsState(math.pi, -0.0, 0.0, -0.0, 2.0)]
    states += [SmsState(*rng.uniform(-4.0, 4.0, 2), *rng.uniform(-3.0, 3.0, 2))
               for _ in range(50)]
    for s in states:
        got = smsdyn.step_rk4(p, s, tau, 0.05)
        got_y = np.array([got.base_angle, got.joint_angle, got.base_rate, got.joint_rate])
        want = oracle_step_rk4(p, s, tau, 0.05)
        assert np.array_equal(got_y, [want.base_angle, want.joint_angle,
                                      want.base_rate, want.joint_rate])
        ref, ref_d = (s.joint_angle,) * 2, (s.joint_rate,) * 2
        want = oracle_rk4_track(p, 0.05, (s.base_angle, s.joint_angle,
                                          s.base_rate, s.joint_rate), s.t,
                                ref, ref_d, 0.0, 0.0, tau, tau)
        assert got_y.tobytes() == want[:4, 1].tobytes()


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


def first_row_of(report, row):
    """Index of the first sweep row holding exactly `row`'s values."""
    return int(np.flatnonzero((report.rows == oracle_row_array([row])).all(axis=1))[0])


@pytest.mark.parametrize("resolution", [2, 4, 50])
def test_weight_sweep_equals_evaluate(resolution):
    tr = pd_run()
    report = objective.weight_sweep(resolution, tr, CONTEXT)
    rows, argmin = oracle_weight_sweep(resolution, tr, CONTEXT)
    assert report.rows.shape == (len(rows), 7)
    assert report.rows.tobytes() == oracle_row_array(rows).tobytes()
    assert report.argmin == argmin
    assert first_row_of(report, report.argmin) == rows.index(argmin)


def test_weight_sweep_tie_picks_first():
    # a motionless base at its target with zero torque scores J = 0 everywhere
    t = np.linspace(0.0, 10.0, 101)
    zeros = np.zeros(101)
    tr = SmsTrajectory(t, np.full(101, math.pi), zeros, zeros, zeros, zeros,
                       zeros)
    report = objective.weight_sweep(4, tr, CONTEXT)
    rows, argmin = oracle_weight_sweep(4, tr, CONTEXT)
    assert report.rows.tobytes() == oracle_row_array(rows).tobytes()
    assert np.all(report.rows[:, 6] == 0.0)
    assert report.argmin == argmin == rows[0]
    assert first_row_of(report, report.argmin) == 0


def test_grid_bytes_equal_comprehension():
    for n in [*range(2, 50), 199, 499, objective.MAX_RESOLUTION]:
        want = np.array(oracle_simplex_grid(n))
        assert objective._grid(n).tobytes() == want.tobytes()
    assert [w.as_tuple() for w in objective.simplex_grid(7)] == oracle_simplex_grid(7)


def test_weight_sweep_peak_memory_at_the_resolution_bound():
    # one (501 501, 7) float array is 26.8 MiB; a dataclass per row took 172.5
    tr = pd_run()
    tracemalloc.start()
    try:
        report = objective.weight_sweep(objective.MAX_RESOLUTION, tr, CONTEXT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 501501
    assert peak < 100 * 2 ** 20


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
    # segment series: invalid frames whose angles hold any value
    yaw, pitch, roll, flag = special_columns(rows, 4, rows + 2)
    series = SimpleNamespace(times=times, euler=np.column_stack((yaw, pitch, roll)),
                             valid=flag > 0)
    buf = io.StringIO()
    frames.write_series_csv(series, buf)
    assert buf.getvalue() == oracle_series_csv(series)
    # datasets: invisible samples that hold any value, visible ones finite values
    for dim, unit in ((2, "pixel"), (3, "meter")):
        tracks = {}
        for kid in (1, 23):
            *coords, flag = special_columns(rows, dim + 1, rows + dim + kid)
            positions = np.column_stack(coords)
            tracks[kid] = keypoints.KeypointTrack(
                kid, keypoints.KEYPOINT_NAMES[kid], 3 * np.arange(rows), positions,
                (flag > 0) & np.isfinite(positions).all(axis=1))
        ds = keypoints.KeypointDataset(tracks, 1000.0, 3 * rows, unit)
        want, got = io.StringIO(), io.StringIO()
        oracle_save_csv(ds, want)
        keypoints.save_dataset(ds, got, format="csv")
        assert got.getvalue() == want.getvalue()
    # sweep report: the oracle's per-row writer over the same cells
    cells = special_columns(rows, 7, rows + 5)
    oracle_rows = [objective.ObjectiveRow(SimpleNamespace(
        w_safety=a, w_stability=b, w_efficiency=c), d, e, f, g)
        for a, b, c, d, e, f, g in zip(*cells)]
    argmin = objective.ObjectiveRow(objective.ObjectiveWeights(0.0, 0.0, 1.0),
                                    0.5, -0.0, 5e-324, -np.inf)
    buf = io.StringIO()
    objective.write_report_csv(
        objective.ObjectiveReport(np.column_stack(cells), argmin), buf)
    assert buf.getvalue() == oracle_report_csv(oracle_rows, argmin)


def test_report_writer_byte_identical():
    tr = pd_run()
    report = objective.weight_sweep(50, tr, CONTEXT)
    buf = io.StringIO()
    objective.write_report_csv(report, buf)
    assert buf.getvalue() == oracle_report_csv(*oracle_weight_sweep(50, tr, CONTEXT))


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


def oracle_series_csv(series):
    stream = io.StringIO()
    stream.write("t,yaw_deg,pitch_deg,roll_deg,valid\n")
    for t, (y, p, r), ok in zip(series.times.tolist(),
                                np.degrees(series.euler).tolist(),
                                series.valid.tolist()):
        stream.write(f"{t:.9g},{y:.9g},{p:.9g},{r:.9g},1\n" if ok
                     else f"{t:.9g},,,,0\n")
    return stream.getvalue()


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
            assert np.max(np.abs(got.rotations[i] - want.rotations[i])) <= 1e-12
        else:
            assert np.isnan(got.rotations[i]).all()


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
    rots = np.array([np.eye(3)] * n)
    locked = np.array([rotmath.euler321_to_dcm(rotmath.EulerYPR(0.2, np.pi / 2, 0.1))] * n)
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


def test_series_writer_byte_identical():
    ds = awkward_dataset()
    for segment in Segment:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GimbalLockWarning)
            series = frames.segment_series(ds, segment)
        assert not series.valid.all()
        buf = io.StringIO()
        frames.write_series_csv(series, buf)
        assert buf.getvalue() == oracle_series_csv(series)


# -- frozen oracle: the three-pass stability report -------------------------

def oracle_normalized_movement(dataset):
    movements = {}
    for kid, track in dataset.tracks.items():
        try:
            movements[kid] = track_quality.average_movement(track)
        except TooSparse:
            continue
    if not movements:
        raise TooSparse("no track has a computable average movement")
    peak = max(movements.values())
    if peak == 0.0:
        return {kid: 1.0 for kid in movements}
    return {kid: m / peak for kid, m in movements.items()}


def oracle_compute_metrics(track, frame_count, norm_movement):
    tq = track_quality
    return tq.KeypointMetrics(
        id=track.id,
        average_movement=tq.average_movement(track),
        normalized_movement=norm_movement,
        visibility=tq.visibility(track, frame_count),
        max_gap_length=tq.max_gap_length(track),
        position_variance=tq.position_variance(track),
        drift_score=tq.drift_score(track),
    )


def oracle_stability_report(dataset):
    try:
        norm = oracle_normalized_movement(dataset)
    except TooSparse:
        norm = {}
    variances = []
    for track in dataset.tracks.values():
        try:
            variances.append(track_quality.position_variance(track))
        except TooSparse:
            pass
    variance_median = float(np.median(variances)) if variances else math.inf
    rows = []
    for kid in sorted(dataset.tracks):
        track = dataset.tracks[kid]
        try:
            m = oracle_compute_metrics(track, dataset.frame_count, norm.get(kid, 0.0))
        except TooSparse:
            rows.append(track_quality.ReportRow(kid, track.name, reason="too_sparse"))
            continue
        cat = track_quality.classify_stability(m, dataset.frame_count, variance_median)
        rows.append(track_quality.ReportRow(kid, track.name, metrics=m, category=cat))
    return rows


def report_datasets(tmp_path):
    """The awkward fixture, the benchmark recording, and three edge cases:
    every track too sparse, every track stationary, and tracks gliding at
    speeds that set each one's variance. Among these, track 5 has a variance
    (the largest) but no movement, and track 6 the peak movement but no
    drift score: both rows are too sparse, yet 5 moves the variance median
    across a track's variance and 6 sets every norm_movement."""
    n = 12
    one_visible = {kid: np.arange(n) == kid % n for kid in keypoints.KEYPOINT_NAMES}
    speed = {kid: 0.01 * kid for kid in keypoints.KEYPOINT_NAMES}
    speed.update({5: 1.0, 6: 2.0})
    gliding = [{kid: np.asarray(p) + (speed[kid] * f, 0.0, 0.0)
                for kid, p in REST_POSE.items()} for f in range(n)]
    return {
        "awkward": awkward_dataset(),
        "recording": load_new(benchmark_recording(tmp_path, 11)),
        "all_too_sparse": dataset_from_poses([REST_POSE] * n, visible=one_visible),
        "all_stationary": dataset_from_poses([REST_POSE] * n),
        "variance_without_movement": dataset_from_poses(
            gliding, visible={5: np.isin(np.arange(n), (0, 6)),
                              6: np.isin(np.arange(n), (3, 4))}),
    }


def test_stability_report_equal_to_oracle(tmp_path):
    for name, ds in report_datasets(tmp_path).items():
        got = track_quality.stability_report(ds)
        assert got == oracle_stability_report(ds), name
        sparse = {row.id for row in got if row.metrics is None}
        if name == "all_too_sparse":
            assert sparse == set(ds.tracks)
        if name == "all_stationary":
            assert {row.metrics.normalized_movement for row in got} == {1.0}
        if name == "variance_without_movement":
            assert sparse == {5, 6}
            categories = {row.category for row in got if row.metrics is not None}
            assert categories == {track_quality.StabilityCategory.STABLE,
                                  track_quality.StabilityCategory.MODERATELY_STABLE}


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


class UnseekableBytesIO(io.BytesIO):
    """A binary stream that load_dataset reads whole, as it reads a pipe."""

    def seekable(self):
        return False


def byte_loaders(tmp_path):
    """load_dataset of the same bytes from a binary stream, a file and a
    pipe; a pipe is named by its /dev/fd path, as a shell names
    `<(zcat tracks.csv.gz)`."""
    def from_binary_stream(data):
        return keypoints.load_dataset(io.BytesIO(data), format="csv", frame_rate=1000.0)

    def from_path(data):
        path = tmp_path / "loaded.csv"
        path.write_bytes(data)
        return keypoints.load_dataset(path, format="csv", frame_rate=1000.0)

    def from_pipe(data):
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as f:
                f.write(data)
        writer = threading.Thread(target=write)
        writer.start()
        try:
            return keypoints.load_dataset(f"/dev/fd/{read_end}", format="csv",
                                          frame_rate=1000.0)
        finally:
            writer.join()
            os.close(read_end)
    loaders = {"binary_stream": from_binary_stream, "path": from_path}
    if os.path.isdir("/dev/fd"):
        loaders["pipe"] = from_pipe
    return loaders


def csv_loaders(tmp_path):
    """load_new, and load_dataset of a file and of a pipe holding the same
    text in UTF-8."""
    loaders = byte_loaders(tmp_path)
    del loaders["binary_stream"]
    return {"stream": load_new, **{name: (lambda text, load=load: load(text.encode()))
                                   for name, load in loaders.items()}}


def benchmark_recording(tmp_path, seed, frames=2000):
    """The tracker CSV text of the benchmark's `recording` workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate_recording(tmp_path, seed, frames=frames)
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
def test_csv_loader_equal_to_oracle(tmp_path, name):
    text = csv_fixtures()[name]
    unit = "meter" if name == "three_d" else "pixel"
    for load in csv_loaders(tmp_path).values():
        assert_same_dataset(load(text), oracle_load_csv(text, unit=unit))


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
def test_csv_loader_rejects_like_oracle(tmp_path, text, error, line):
    with pytest.raises(error) as want:
        oracle_load_csv(text)
    messages = set()
    for load in csv_loaders(tmp_path).values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy "input contained no data"
            with pytest.raises(error) as got:
                load(text)
        assert line_of(got.value) == line
        messages.add(str(got.value))
    assert len(messages) == 1
    # the per-row loader named no line for a bad token or a negative frame
    assert line_of(want.value) in (None, line)


def test_csv_bad_row_deep_in_a_recording_names_its_line(tmp_path):
    lines = benchmark_recording(tmp_path, 11).split("\n")
    lines[30000] = lines[30000].replace(",1", ",1e", 1)
    lines.insert(20000, "")
    for load in csv_loaders(tmp_path).values():
        with pytest.raises(ParseError, match=r"^line 30002: "):
            load("\n".join(lines))


def test_csv_load_peak_memory_is_a_few_times_the_file(tmp_path):
    # the parsed rows (116 bytes each in 2D) and the dataset's arrays, 2.9x
    # the file; its whole text and list of lines took it to 5.6x. The CLI's
    # hashing reader is a seekable binary file, read in blocks as a path is.
    path = tmp_path / "tracks.csv"
    for frames in (2000, 8000):
        benchmark_recording(tmp_path, 11, frames)
        with cli._Run() as run:
            for source in (path, run.open(path)):
                tracemalloc.start()
                try:
                    keypoints.load_dataset(source, format="csv", frame_rate=1000.0)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 3.5 * path.stat().st_size, (frames, source)


#: Rows that put what follows them a few read blocks into the file.
PAD = ("0,1,Neck,1,2,1\n" * (3 * traj.READ_BLOCK // 15)).encode()
PAD_LINES = PAD.count(b"\n")

#: Files whose UTF-8 is cut or broken: the decode error precedes the bad
#: header, the bad row and the NUL before it, and it is raised alike
#: from a path, read in blocks, and from a stream, read whole.
BAD_UTF8 = {
    "in_a_row": (H2 + "0,1,Neck,1,2,1\n").encode() + b"1,1,Ne\xffck,3,4,1\n",
    "after_a_bad_header": b"frame,id\n" + PAD + b"\xc3(\n",
    "after_a_bad_row": (H2 + "0,1,Neck,x,2,1\n").encode() + PAD + b"1,1,Neck,3,4,1\xe2\n",
    "after_a_nul": (H2 + "0,1,Neck\0,1,2,1\n").encode() + PAD + b"\xff\n",
    "deep_in_a_recording": H2.encode() + PAD + b"\xf0\x9f\n",
    "cut_at_the_end": (H2 + "0,1,Neck,1,2,1\n").encode() + b"\xe2\x82",
}


@pytest.mark.parametrize("data", BAD_UTF8.values(), ids=BAD_UTF8)
def test_csv_bad_utf8_refused_alike_from_path_and_stream(tmp_path, capsys, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as from_stream:
        keypoints.load_dataset(io.BytesIO(data), format="csv", frame_rate=1000.0)
    with pytest.raises(UnicodeDecodeError) as from_path:
        keypoints.load_dataset(path, format="csv", frame_rate=1000.0)
    assert str(from_path.value) == str(from_stream.value)
    assert cli.main(["metrics", "--input", str(path), "--frame-rate", "1000",
                     "--output", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == f"error: {from_stream.value}\n"


def test_csv_refused_binary_stream_is_parsed_again_from_where_it_began():
    stream = io.BytesIO(b"a preamble the caller read\n" + (H2 + "0,1,Neck,1,x,1\n").encode())
    stream.readline()
    with pytest.raises(ParseError, match=r"^line 2: bad number"):
        keypoints.load_dataset(stream, format="csv", frame_rate=1000.0)


def random_csv_bytes(rng):
    """A small tracker CSV spliced from valid rows and the pieces that
    break one: line ends of each kind, quotes, a BOM, bad UTF-8, NUL."""
    pieces = [b"0,1,Neck,1,2,1", b"1,1,Neck,3.5,-4,0", b"2,21,Tail_Top_Back,5,6,1",
              b"\n1,24,Neck,1,2,1\n", b"\n3,1,Neck,1,2,1\n", b"\n", b"\r\n", b"\r",
              b",", b'"', b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xc3\xa9", b"\0", b"x",
              b" ", b"nan"]
    body = b"".join(rng.choice(pieces) for _ in range(rng.randrange(30)))
    return rng.choice([b"", b"\xef\xbb\xbf"]) + H2.encode() + body


def test_csv_path_and_stream_agree_on_random_files(tmp_path, monkeypatch):
    # read blocks of 7 bytes put block ends inside \r\n, UTF-8 sequences
    # and lines; the lines a path yields must be those a stream yields
    monkeypatch.setattr(traj, "READ_BLOCK", 7)
    rng = random.Random(21)
    path = tmp_path / "random.csv"
    outcomes = set()
    for _ in range(300):
        data = random_csv_bytes(rng)
        path.write_bytes(data)
        results = []
        for source in (UnseekableBytesIO(data), path):
            try:
                results.append(keypoints.load_dataset(source, format="csv",
                                                      frame_rate=1000.0))
            except (ValueError, BiorightError) as exc:
                results.append((type(exc), str(exc)))
        from_stream, from_path = results
        if isinstance(from_stream, tuple):
            assert from_path == from_stream, data
            outcomes.add(from_stream[0])
        else:
            assert_same_dataset(from_path, from_stream)
            outcomes.add(keypoints.KeypointDataset)
    assert outcomes >= {keypoints.KeypointDataset, ParseError, SchemaError,
                        EmptyDataset, UnicodeDecodeError}


#: (case, text, error class, message) of quoted fields. A data line that
#: leaves a quoted field open is refused on the line the quote opens on,
#: where numpy joined it to the next line; it is a parse fault, so the first
#: of it and a bad number wins, and it outranks the fault table. A quote
#: that closes, or that does not open a field, is read as before.
QUOTES = [
    ("name_then_number", H2 + '0,1,"Ne\nck",1,2,1\n1,1,Neck,"3\n5",4,1\n', ParseError,
     "line 2: quoted field not closed on its line"),
    ("name", H2 + '0,1,"Ne\nck",1,2,1\n', ParseError,
     "line 2: quoted field not closed on its line"),
    ("number", H2 + '0,1,Neck,1,2,1\n1,1,Neck,"3\n5",4,1\n', ParseError,
     "line 3: quoted field not closed on its line"),
    ("before_a_bad_visible",
     H2 + '0,1,Neck,1,2,1\n1,1,"Ne\nck",1,2,1\n2,1,Neck,1,2,1\n3,1,Neck,1,2,7\n',
     ParseError, "line 3: quoted field not closed on its line"),
    ("on_the_last_line", H2 + '0,1,Neck,1,2,"1', ParseError,
     "line 2: quoted field not closed on its line"),
    ("after_an_escaped_quote", H2 + '0,1,"Ne""ck,1,2,1\n2,1,Neck,1,2,1\n', ParseError,
     "line 2: quoted field not closed on its line"),
    ("after_blank_lines", H2 + '0,1,Neck,1,2,1\n\n\n1,1,Neck,1,"2\n\n,1\n', ParseError,
     "line 5: quoted field not closed on its line"),
    ("blocks_deep", H2 + PAD.decode() + '1,1,"Ne\nck",1,2,1\n', ParseError,
     f"line {2 + PAD_LINES}: quoted field not closed on its line"),
    ("after_a_bad_header", "frame,id\n" + '0,1,"Ne\nck",1,2,1\n', ParseError,
     "unexpected header ['frame', 'id']"),
    ("after_a_bad_number", H2 + '0,1,Neck,x,2,1\n1,1,"Ne\nck",1,2,1\n', ParseError,
     "line 2: bad number in '0,1,Neck,x,2,1'"),
    ("before_a_bad_number", H2 + '0,1,"Ne\nck",1,2,1\n1,1,Neck,x,2,1\n', ParseError,
     "line 2: quoted field not closed on its line"),
    ("before_a_wrong_field_count", H2 + '0,1,"Ne\nck",1,2,1\n1,1,Neck,1,2\n', ParseError,
     "line 2: quoted field not closed on its line"),
    ("after_a_bad_id", H2 + '0,25,Neck,1,2,1\n1,1,"Ne\nck",1,2,1\n', ParseError,
     "line 3: quoted field not closed on its line"),
    ("after_a_duplicate", H2 + '0,1,Neck,1,2,1\n0,1,Neck,1,2,1\n1,1,Neck,"1\n', ParseError,
     "line 4: quoted field not closed on its line"),
    ("stray_quote", H2 + '0,1,Ne"ck,1,2,1\n', SchemaError,
     "line 2: unknown keypoint name 'Ne\"ck' for id 1"),
    ("escaped_quote", H2 + '0,1,"Ne""ck",1,2,1\n', SchemaError,
     "line 2: unknown keypoint name 'Ne\"ck' for id 1"),
]


@pytest.mark.parametrize("text, error, message", [case[1:] for case in QUOTES],
                         ids=[case[0] for case in QUOTES])
def test_csv_quoted_field_across_lines_refused_alike(tmp_path, capsys, text, error, message):
    # the csv.reader oracle joins such lines by design, so it is not asked
    for load in csv_loaders(tmp_path).values():
        with pytest.raises(error) as got:
            load(text)
        assert str(got.value) == message
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    assert cli.main(["metrics", "--input", str(path), "--frame-rate", "1000",
                     "--output", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


#: A NUL or bad UTF-8 some read blocks after an earlier fault outranks it:
#: (case, bytes, error class, line named or None).
LATE_TEXT_FAULTS = {
    "nul_after_a_bad_header": (b"frame,id\n" + PAD + b"0,1,Neck\0,1,2,1\n", ParseError,
                               2 + PAD_LINES),
    "nul_after_a_bad_number": ((H2 + "0,1,Neck,x,2,1\n").encode() + PAD + b"1,1,Neck,1,2,1\0\n",
                               ParseError, 3 + PAD_LINES),
    "nul_after_a_duplicate": ((H2 + "0,1,Neck,1,2,1\n0,1,Neck,1,2,1\n").encode() + PAD + b"\0",
                              ParseError, 4 + PAD_LINES),
    "nul_after_an_open_quote": ((H2 + '0,1,"Ne\nck",1,2,1\n').encode() + PAD + b"\0\n",
                                ParseError, 4 + PAD_LINES),
    "bad_utf8_after_a_bad_header": (b"frame,id\n" + PAD + b"0,1,Ne\xffck,1,2,1\n",
                                    UnicodeDecodeError, None),
    "bad_utf8_after_a_bad_number": ((H2 + "0,1,Neck,1,x,1\n").encode() + PAD + b"\xc3(\n",
                                    UnicodeDecodeError, None),
    "bad_utf8_after_a_duplicate": ((H2 + "0,1,Neck,1,2,1\n0,1,Neck,1,2,1\n").encode() + PAD
                                   + b"\xe2\x82", UnicodeDecodeError, None),
}


@pytest.mark.parametrize("data, error, line", LATE_TEXT_FAULTS.values(), ids=LATE_TEXT_FAULTS)
def test_csv_late_nul_or_bad_utf8_outranks_an_earlier_fault(tmp_path, data, error, line):
    assert len(data) > 3 * traj.READ_BLOCK
    messages = set()
    for load in byte_loaders(tmp_path).values():
        with pytest.raises(error) as got:
            load(data)
        assert type(got.value) is error
        assert line_of(got.value) == line
        messages.add(str(got.value))
    assert len(messages) == 1


def test_csv_path_read_once(tmp_path, monkeypatch):
    # a valid path is read in blocks only: the whole-text reader that names
    # a refusal is never called, and a file without a quote checks no line
    def refused(*args):
        raise AssertionError("not read in one pass")
    text = benchmark_recording(tmp_path, 11, frames=200)
    want = load_new(text)
    monkeypatch.setattr(traj, "_as_text", refused)
    monkeypatch.setattr(keypoints, "_open_quote", refused)
    load_path = csv_loaders(tmp_path)["path"]
    assert_same_dataset(load_path(text), want)
    with cli._Run() as run:  # the CLI's hashing reader, read in blocks as a path is
        assert_same_dataset(keypoints.load_dataset(run.open(tmp_path / "loaded.csv"),
                                                   format="csv", frame_rate=1000.0), want)
    monkeypatch.undo()
    monkeypatch.setattr(traj, "_as_text", refused)
    quoted = text.replace(",Neck,", ',"Neck",')
    assert quoted != text
    assert_same_dataset(load_path(quoted), want)


@pytest.mark.parametrize("lineno, duplicate", [(1, False), (3001, False), (3001, True)],
                         ids=["1", "3001", "3001_duplicate"])
def test_csv_refused_path_read_whole_once(tmp_path, monkeypatch, lineno, duplicate):
    # a refusal reads the file whole once, both to name its line and to let
    # bad UTF-8 or a NUL anywhere outrank it: here a bad header, and a bad
    # number on line 3 001 of 5 001, several read blocks deep, and a
    # duplicate (frame, keypoint) row there, a fault-table refusal
    lines = benchmark_recording(tmp_path, 11, frames=300).split("\n")[:5001]
    assert len(lines) == 5001
    fields = lines[lineno - 1].split(",")
    fields[3] = "u"  # the header's x, or a row's x coordinate
    lines[lineno - 1] = lines[lineno - 2] if duplicate else ",".join(fields)
    text = "\n".join(lines) + "\n"
    assert len(text) > 3 * traj.READ_BLOCK
    error = SchemaError if duplicate else ParseError
    with pytest.raises(error) as from_stream:
        load_new(text)
    calls = []
    as_text = traj._as_text
    monkeypatch.setattr(traj, "_as_text", lambda source: calls.append(source) or as_text(source))
    with pytest.raises(error) as from_path:
        csv_loaders(tmp_path)["path"](text)
    assert len(calls) == 1
    assert str(from_path.value) == str(from_stream.value)
    assert str(from_path.value).startswith("line 3001: duplicate (frame " if duplicate
                                           else "line 3001: bad number" if lineno > 1
                                           else "unexpected header")


def test_json_load_peak_memory_is_a_few_times_the_text(tmp_path):
    # the file's bytes and their decoded str, 2.0x the text length; the
    # whole parsed document took it to about 4.5x, and an extra
    # io.StringIO copy of the text to about 8.3x
    for frames in (2000, 8000):
        dataset = load_new(benchmark_recording(tmp_path, 11, frames))
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
        assert peak < 2.5 * len(buf.getvalue()), frames


@pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\u0663", 3.0)])
def test_csv_rejects_tokens_python_float_accepts(token, value):
    # The one intended difference: float() reads digit groups ("1_0") and
    # non-ASCII digits (ARABIC-INDIC DIGIT THREE); the numpy parse does not.
    text = H2 + f"0,1,Neck,{token},2.0,1\n"
    assert oracle_load_csv(text).tracks[1].positions[0, 0] == value
    with pytest.raises(ParseError, match="line 2"):
        load_new(text)


@pytest.mark.parametrize("row", ["1,1,Neck\0,3,4,1", "1,1,Neck,3,4,1\0"])
def test_csv_rejects_trailing_nul_in_a_text_field(tmp_path, row):
    # numpy drops a trailing NUL from a text field, so the loader refuses
    # NUL outright; the per-row loader failed the name or visible check.
    text = H2 + "0,1,Neck,1,2,1\n" + row + "\n"
    with pytest.raises((SchemaError, ParseError), match="line 3"):
        oracle_load_csv(text)
    for load in csv_loaders(tmp_path).values():
        with pytest.raises(ParseError, match="^line 3: NUL character$"):
            load(text)


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


# -- frozen oracle: the leg's own axis routine, the second event pass --------

def oracle_leg_dcms(y_raw):
    """The leg triad before legs used rotmath.dcms_from_axes: degenerate
    when the limb's direction is within EPS_LEN of the inertial x axis."""
    ny = np.linalg.norm(y_raw, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = y_raw / ny[..., None]
        z = np.cross(frames.X_INERTIAL, y)
        nz = np.linalg.norm(z, axis=-1)
        z /= nz[..., None]
    ok = ~((ny <= rotmath.EPS_LEN) | (nz <= rotmath.EPS_LEN))
    return np.stack([np.cross(y, z), y, z], axis=-2), ok


def oracle_merge_events(raw):
    events = []
    open_events = {}  # (from, to, kind) -> [start, end]
    for f, src, dst, kind in sorted(raw):
        key = (src, dst, kind)
        span = open_events.get(key)
        if span is not None and span[1] == f - 1:
            span[1] = f
        else:
            if span is not None:
                events.append(keypoints.SwapEvent(src, dst, span[0], span[1], kind))
            open_events[key] = [f, f]
    for (src, dst, kind), span in open_events.items():
        events.append(keypoints.SwapEvent(src, dst, span[0], span[1], kind))
    events.sort(key=lambda e: (e.frame_start, e.from_id))
    return events


def oracle_reassociate(dataset, max_jump):
    """reassociate_identities as it was: a raw (frame, from, to, kind) list
    sorted and merged into episodes by a second pass."""
    ids = sorted(dataset.tracks)
    positions, visible = keypoints.dense_stack(dataset, ids)
    last = np.full((len(ids), 2), np.nan)
    raw_events = []
    for f in range(dataset.frame_count):
        pos, vis = positions[f], visible[f]
        jump = np.linalg.norm(pos - last, axis=1)
        offenders = np.flatnonzero(vis & (jump > max_jump)).tolist()
        if len(offenders) >= 2:
            free = list(offenders)
            for j, det in zip(offenders, pos[offenders]):
                target = min(free, key=lambda t: (np.linalg.norm(det - last[t]), t))
                free.remove(target)
                if target != j:
                    pos[target] = det
                    raw_events.append((f, ids[j], ids[target], "swap"))
        elif len(offenders) == 1:
            raw_events.append((f, ids[offenders[0]], ids[offenders[0]], "jump"))
        last[vis] = pos[vis]
    return positions, oracle_merge_events(raw_events)


def random_limbs(n, seed):
    """(n, 3) limb vectors over 16 decades, each component an exact +0 or
    -0 a quarter of the time each."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-12, 4, size=(n, 1))
    pick = rng.integers(0, 4, size=(n, 3))
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, v))


@pytest.mark.parametrize("leg", sorted(frames.LEG_AXES, key=lambda s: s.value))
def test_leg_rotations_bytes_equal_oracle(leg):
    # 10^5 limbs per leg from a zero base, so signed zeros reach the triad
    limbs = random_limbs(100_000, seed=len(leg.value))
    a, b = frames.LEG_AXES[leg]
    R, ok = frames._segment_dcms(leg, {a: np.zeros_like(limbs), b: limbs})
    want, want_ok = oracle_leg_dcms(limbs)
    both = ok & want_ok
    assert both.sum() > 50_000
    assert R[both].tobytes() == want[both].tobytes()
    # the one rule for every segment: the tip within EPS_LEN of the x axis
    # through the base (or of the base itself) is degenerate
    off_axis = np.linalg.norm(np.cross(limbs, frames.X_INERTIAL), axis=-1)
    assert np.array_equal(ok, (np.linalg.norm(limbs, axis=-1) > rotmath.EPS_LEN)
                          & (off_axis > rotmath.EPS_LEN))


@pytest.mark.parametrize("length, angle, valid", [(0.01, 1e-8, False),
                                                  (10.0, 5e-10, True)],
                         ids=["short_limb_near_x", "long_limb_nearer_x"])
def test_leg_degeneracy_is_distance_from_the_x_axis(length, angle, valid):
    pose = {12: np.zeros(3),
            8: -length * np.array([math.cos(angle), math.sin(angle), 0.0])}
    _, was_valid = oracle_leg_dcms(pose[12] - pose[8])
    assert bool(was_valid) is not valid  # the direction rule said the opposite
    if valid:
        R = frames.leg_frame(Segment.RIGHT_FRONT_LEG, pose)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    else:
        with pytest.raises(DegenerateAxes):
            frames.leg_frame(Segment.RIGHT_FRONT_LEG, pose)


def test_reassociate_events_equal_oracle_on_benchmark_recording(tmp_path):
    dataset = load_new(benchmark_recording(tmp_path, 11))
    got, events = keypoints.reassociate_identities(dataset, 40.0)  # gen.MAX_JUMP
    positions, want = oracle_reassociate(dataset, 40.0)
    assert events == want
    assert {e.kind for e in events} == {"swap"}
    for j, kid in enumerate(sorted(dataset.tracks)):
        assert np.array_equal(got.tracks[kid].positions, positions[:, j],
                              equal_nan=True)


def random_stream(seed):
    """A 2D dataset whose tracks hop between far-apart anchors, so that swaps
    and jumps come in runs of every length, close up and reopen, and share
    frames (max_jump 5)."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, 24), size=int(rng.integers(2, 6)), replace=False)
    frame_count = int(rng.integers(5, 80))
    anchors = rng.normal(scale=100.0, size=(4, 2))
    tracks = {}
    for kid in sorted(ids.tolist()):
        hops = rng.random(frame_count) < rng.uniform(0.05, 0.6)
        at = np.cumsum(hops * rng.integers(1, 4, size=frame_count)) % 4
        positions = anchors[at] + rng.normal(scale=0.5, size=(frame_count, 2))
        visible = rng.random(frame_count) > 0.15
        positions[~visible] = np.nan
        tracks[kid] = keypoints.KeypointTrack(kid, keypoints.KEYPOINT_NAMES[kid],
                                              np.arange(frame_count), positions,
                                              visible)
    return keypoints.KeypointDataset(tracks, 1000.0, frame_count, "pixel")


RANDOM_STREAMS = range(60)


@pytest.mark.parametrize("seed", RANDOM_STREAMS)
def test_reassociate_events_equal_oracle_on_random_streams(seed):
    dataset = random_stream(seed)
    got, events = keypoints.reassociate_identities(dataset, 5.0)
    positions, want = oracle_reassociate(dataset, 5.0)
    assert events == want
    for j, kid in enumerate(sorted(dataset.tracks)):
        assert np.array_equal(got.tracks[kid].positions, positions[:, j],
                              equal_nan=True)


def test_random_streams_cover_every_episode_shape():
    streams = [keypoints.reassociate_identities(random_stream(seed), 5.0)[1]
               for seed in RANDOM_STREAMS]
    events = [e for stream in streams for e in stream]
    assert {e.kind for e in events} == {"swap", "jump"}
    assert any(e.frame_end > e.frame_start for e in events)  # multi-frame episodes
    # a key that closes and reopens, and two episodes that open on one frame
    assert any(len({(e.from_id, e.to_id, e.kind) for e in s}) < len(s) for s in streams)
    assert any(len({e.frame_start for e in s}) < len(s) for s in streams)


# Re-association scans _SCAN_BLOCK frames per whole-array pass and goes
# frame by frame only from an offender frame to the next clean one; the
# events and every position must equal the per-frame oracle above.

def assert_reassociates_like_oracle(dataset, max_jump):
    got, events = keypoints.reassociate_identities(dataset, max_jump)
    positions, want = oracle_reassociate(dataset, max_jump)
    assert events == want
    for j, kid in enumerate(sorted(dataset.tracks)):
        assert got.tracks[kid].positions.tobytes() == \
            positions[dataset.tracks[kid].frames, j].tobytes()
    return events


def dataset_2d(tracks, frame_count):
    """A 2D pixel dataset from {id: (positions, visible)} on arange(frame_count)."""
    return keypoints.KeypointDataset(
        {kid: keypoints.KeypointTrack(kid, keypoints.KEYPOINT_NAMES[kid],
                                      np.arange(frame_count),
                                      np.where(visible[:, None], positions, np.nan),
                                      visible)
         for kid, (positions, visible) in tracks.items()}, 1000.0, frame_count, "pixel")


def long_random_stream(seed):
    """60-700 frames, so several scan blocks are crossed, each track visible
    10-100 % of the time and hopping between far-apart anchors with a
    probability from 0.001 to 0.3 per frame (max_jump 5)."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, 24), size=int(rng.integers(2, 8)), replace=False)
    frame_count = int(rng.integers(60, 701))
    anchors = rng.normal(scale=100.0, size=(4, 2))
    tracks = {}
    for kid in sorted(ids.tolist()):
        hops = rng.random(frame_count) < 10.0 ** rng.uniform(-3.0, math.log10(0.3))
        at = np.cumsum(hops * rng.integers(1, 4, size=frame_count)) % 4
        positions = anchors[at] + rng.normal(scale=0.5, size=(frame_count, 2))
        visible = rng.random(frame_count) < min(1.0, rng.uniform(0.1, 1.2))
        tracks[kid] = positions, visible
    return dataset_2d(tracks, frame_count)


LONG_RANDOM_STREAMS = range(40)


@pytest.mark.parametrize("seed", LONG_RANDOM_STREAMS)
def test_reassociate_equal_oracle_on_long_random_streams(seed):
    assert_reassociates_like_oracle(long_random_stream(seed), 5.0)


def test_long_random_streams_cross_blocks_clean_and_offending():
    datasets = [long_random_stream(seed) for seed in LONG_RANDOM_STREAMS]
    streams = [keypoints.reassociate_identities(d, 5.0)[1] for d in datasets]
    assert max(d.frame_count for d in datasets) > 10 * keypoints._SCAN_BLOCK
    shares = [t.visible.mean() for d in datasets for t in d.tracks.values()]
    assert min(shares) < 0.15 and max(shares) == 1.0
    # a stream with a clean block, and episodes on either side of a block edge
    assert any(not s or s[0].frame_start >= keypoints._SCAN_BLOCK for s in streams)
    starts = {e.frame_start % keypoints._SCAN_BLOCK for s in streams for e in s}
    assert {0, keypoints._SCAN_BLOCK - 1} <= starts
    assert {e.kind for s in streams for e in s} == {"swap", "jump"}


@pytest.fixture(scope="module")
def recording_11(tmp_path_factory):
    return load_new(benchmark_recording(tmp_path_factory.mktemp("recording"), 11))


@pytest.mark.parametrize("max_jump", [40.0, 5.0, 2.0, 0.5])
def test_reassociate_equal_oracle_on_benchmark_recording_at(recording_11, max_jump):
    events = assert_reassociates_like_oracle(recording_11, max_jump)
    assert len(events) >= 4  # the generator's two swap episodes, two events each


def swapped_pair(start, length, frame_count=200):
    """Tracks 1 and 2 walk 100 px apart, with their labels exchanged on
    frames start .. start + length - 1."""
    t = np.arange(frame_count)[:, None]
    a, b = (0.0, 0.0) + 0.1 * t, (100.0, 0.0) + 0.1 * t
    swap = (t >= start) & (t < start + length)
    visible = np.ones(frame_count, bool)
    return dataset_2d({1: (np.where(swap, b, a), visible),
                       2: (np.where(swap, a, b), visible)}, frame_count)


@pytest.mark.parametrize("start", [1, 62, 63, 64, 65, 127, 128, 199])
@pytest.mark.parametrize("length", [1, 3])
def test_swap_episode_at_a_block_edge(start, length):
    events = assert_reassociates_like_oracle(swapped_pair(start, length), 40.0)
    end = min(start + length, 200) - 1
    assert events == [keypoints.SwapEvent(1, 2, start, end, "swap"),
                      keypoints.SwapEvent(2, 1, start, end, "swap")]


@pytest.mark.parametrize("start", [63, 64])
def test_jump_at_a_block_edge(start):
    positions = np.zeros((200, 2))
    positions[start:] = 500.0
    events = assert_reassociates_like_oracle(
        dataset_2d({1: (positions, np.ones(200, bool))}, 200), 40.0)
    assert events == [keypoints.SwapEvent(1, 1, start, start, "jump")]


def test_reassociate_track_never_visible():
    dataset = long_random_stream(3)
    kid = min(dataset.tracks)
    track = dataset.tracks[kid]
    dataset.tracks[kid] = replace(track, positions=np.full_like(track.positions, np.nan),
                                  visible=np.zeros_like(track.visible))
    assert_reassociates_like_oracle(dataset, 5.0)
    nothing = dataset_2d({1: (np.zeros((150, 2)), np.zeros(150, bool))}, 150)
    assert assert_reassociates_like_oracle(nothing, 5.0) == []


@pytest.mark.parametrize("frame_count", [0, 1])
def test_reassociate_zero_and_one_frame(frame_count):
    dataset = dataset_2d({1: (np.zeros((frame_count, 2)), np.ones(frame_count, bool)),
                          7: (np.ones((frame_count, 2)), np.ones(frame_count, bool))},
                         frame_count)
    assert assert_reassociates_like_oracle(dataset, 0.5) == []


# interpolate_gaps fills every gap in one pass; the loop over the gaps
# between consecutive visible samples is frozen here as the oracle.

def oracle_interpolate_gaps_per_gap(track, max_gap):
    positions = track.positions.copy()
    visible = track.visible.copy()
    interpolated = track.interpolated.copy()
    frames = track.frames
    vis_idx = np.flatnonzero(track.visible)
    for a, b in zip(vis_idx[:-1].tolist(), vis_idx[1:].tolist()):
        if b - a >= 2 and frames[b] - frames[a] <= max_gap + 1:
            w = (frames[a + 1:b] - frames[a])[:, None] / (frames[b] - frames[a])
            positions[a + 1:b] = (1 - w) * track.positions[a] + w * track.positions[b]
            visible[a + 1:b] = interpolated[a + 1:b] = True
    return positions, visible, interpolated


def sparse_track(seed):
    """A hand-built track on sparse frames, with interpolated flags already
    set and numbers as well as NaN on some invisible samples."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    frames = np.sort(rng.choice(3 * n, size=n, replace=False))
    visible = rng.random(n) < rng.uniform(0.2, 0.95)
    visible[rng.choice(n, size=2, replace=False)] = True
    positions = rng.normal(scale=50.0, size=(n, int(rng.integers(2, 4))))
    positions[~visible & (rng.random(n) < 0.5)] = np.nan
    return keypoints.KeypointTrack(1, "Neck", frames, positions, visible,
                                   rng.random(n) < 0.2)


@pytest.mark.parametrize("seed", range(30))
def test_interpolate_gaps_on_sparse_tracks_bytes_equal_oracle(seed):
    track = sparse_track(seed)
    for max_gap in range(8):
        got = keypoints.interpolate_gaps(track, max_gap)
        positions, visible, interpolated = oracle_interpolate_gaps_per_gap(track, max_gap)
        assert got.positions.tobytes() == positions.tobytes()
        assert got.visible.tobytes() == visible.tobytes()
        assert got.interpolated.tobytes() == interpolated.tobytes()


def test_sparse_tracks_have_filled_and_unfilled_gaps():
    filled = unfilled = 0
    for seed in range(30):
        track = sparse_track(seed)
        got = keypoints.interpolate_gaps(track, 3)
        new = got.visible & ~track.visible
        filled += int(new.sum())
        unfilled += int((~got.visible).sum())
        assert np.array_equal(got.interpolated, track.interpolated | new)
    assert filled > 100 and unfilled > 100


# -- keypoints: the JSON loader that decodes one track at a time -------------

def oracle_load_json(source):
    """The whole-document JSON loader: json.loads, then every check."""
    try:
        obj = json.loads(keypoints._as_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    for key in ("frame_rate", "frame_count", "unit", "tracks"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"missing top-level key {key!r}")
    if not obj["tracks"]:
        raise EmptyDataset("no tracks")
    if type(obj["frame_count"]) is not int:  # bool, 2.5 and 1e400 are not counts
        raise ParseError(f"frame_count must be a JSON integer, got {obj['frame_count']!r}")
    if type(obj["frame_rate"]) not in (int, float):  # true and "1000" are not rates
        raise ParseError(f"frame_rate must be a JSON number, got {obj['frame_rate']!r}")
    names, samples = {}, []  # samples: (id, frames, positions, visible) per track
    try:
        frame_rate, frame_count = float(obj["frame_rate"]), obj["frame_count"]
        first = next((t["samples"][0] for t in obj["tracks"] if t["samples"]), {})
        axes = ("x", "y", "z") if "z" in first else ("x", "y")
        if len(axes) == 3 and obj["unit"] == "pixel":
            raise SchemaError("samples carry z, so the unit must be meter, not pixel")
        coords = operator.itemgetter(*axes)
        for t in obj["tracks"]:
            kid, name, track = t["id"], t["name"], t["samples"]
            if kid in names:
                raise SchemaError(f"duplicate keypoint id {kid}")
            if kid not in keypoints.KEYPOINT_NAMES or not isinstance(kid, int):
                raise SchemaError(f"keypoint id {kid!r} out of range 1-23")
            frames, visible = [s["frame"] for s in track], [s["visible"] for s in track]
            if not {*map(type, frames)} <= {int}:
                raise ParseError(f"track {kid}: frame must be a JSON integer")
            if not ({*map(type, visible)} <= {bool, int} and {*visible} <= {0, 1}):
                raise ParseError(f"track {kid}: visible must be true, false, 0 or 1")
            frames, visible = np.array(frames, dtype=int), np.array(visible, dtype=bool)
            positions = np.array([coords(s) for s in track],
                                 dtype=float).reshape(len(track), len(axes))
            if np.any(np.diff(frames) <= 0):
                raise SchemaError(f"track {kid}: frame indices not strictly increasing")
            if not np.isfinite(positions[visible]).all():
                raise ParseError(f"track {kid}: non-finite coordinate on a visible sample")
            names[kid] = name
            samples.append((np.full(len(track), kid), frames, positions, visible))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"malformed track or sample, missing or bad {exc}") from None
    tracks = keypoints._scatter(names, *map(np.concatenate, zip(*samples)), frame_count)
    return keypoints.KeypointDataset(tracks, frame_rate, frame_count, obj["unit"])


#: The oracle's message for a frame_rate integer too large for a float.
RATE_OVERFLOW = ("malformed track or sample, missing or bad "
                 "int too large to convert to float")

#: The oracle's message for a coordinate given as {} (the wording of
#: float() differs between Python versions).
DICT_COORDINATE = "malformed track or sample, missing or bad " + str(
    pytest.raises(TypeError, np.array, [({}, 0.0)], dtype=float).value)


def json_outcome(load, text):
    """What `load` makes of `text`: the dataset's fields, or the type and
    message of what it raises."""
    try:
        ds = load(io.StringIO(text))
    except Exception as exc:  # the oracle lets ValueError and IndexError through too
        return type(exc), str(exc)
    return (type(ds.frame_rate), ds.frame_rate, ds.frame_count, ds.unit,
            [(kid, t.name, t.frames.tobytes(), t.visible.tobytes(),
              t.positions.shape, t.positions.tobytes()) for kid, t in ds.tracks.items()])


def assert_loads_like_oracle(text):
    """The loader's outcome on `text`, asserted equal to the oracle's but for
    three intended differences: an overflowing frame_rate is named, a track
    id true is refused, and so is a coordinate that is no JSON number or
    null, naming its track."""
    stand_ins, first_odd_id, bad_track = intended_refusals(text)
    want = json_outcome(oracle_load_json, stand_ins)
    got = json_outcome(keypoints._load_json, text)
    if want == (ParseError, RATE_OVERFLOW) and rate_overflows(text):
        want = (ParseError, "frame_rate must be a JSON number that fits a float")
    elif want == (ParseError, DICT_COORDINATE):
        want = (ParseError, f"track {bad_track}: coordinates must be JSON numbers or null")
    elif want[0] is SchemaError and first_odd_id is True:
        want = (SchemaError, want[1].replace("id 1.0", "id True"))
    assert got == want, text[:300]
    return got


def intended_refusals(text):
    """(stand_ins, first_odd_id, bad_track): `text` with each track id true as
    1.0 and every coordinate of a track that holds a coordinate that is no
    JSON number or null as {}, so that the oracle refuses them where the
    loader does, before any other coordinate of the track (an integer too
    large for a float) can fail; the first id equal to 1 that is no int
    (true or 1.0), which that refusal names; and the id of the first track
    with such a coordinate."""
    try:
        doc = json.loads(text)
        first = next((t["samples"][0] for t in doc["tracks"] if t["samples"]), {})
        axes = ("x", "y", "z") if "z" in first else ("x", "y")
    except (ValueError, LookupError, TypeError):  # the oracle fails before a track
        return text, None, None
    first_odd_id = bad_track = None
    for t in doc["tracks"]:
        kid, samples = (t.get("id"), t.get("samples")) if isinstance(t, dict) else (0, 0)
        if first_odd_id is None and kid == 1 and type(kid) is not int:
            first_odd_id = kid
        if kid is True:
            t["id"] = 1.0
        held = [(s, axis) for s in (samples if isinstance(samples, list) else ())
                if isinstance(s, dict) for axis in axes if axis in s]
        if not all(reads_as_one_float(s[axis]) for s, axis in held):
            for s, axis in held:  # so that no other value of the track fails first
                s[axis] = {}
            bad_track = kid if bad_track is None else bad_track
    changed = first_odd_id is True or bad_track is not None
    return json.dumps(doc) if changed else text, first_odd_id, bad_track


def reads_as_one_float(value):
    """Whether the loader takes `value` as a coordinate: a JSON number or null."""
    return type(value) in (int, float, type(None))


def rate_overflows(text):
    rate = json.loads(text).get("frame_rate")
    return type(rate) is int and abs(rate) >= 2 ** 1024 - 2 ** 970


def layouts(doc):
    """`doc` as save_dataset-like JSON, indented, with "tracks" first and
    with sorted keys."""
    first = {key: doc[key] for key in sorted(doc, key=lambda key: key != "tracks")}
    return {"plain": json.dumps(doc), "indent": json.dumps(doc, indent=2),
            "tracks_first": json.dumps(first), "sorted": json.dumps(doc, sort_keys=True)}


@pytest.fixture(scope="module")
def recording_json(recording_11):
    """The benchmark recording as save_dataset writes it, 2D and 3D."""
    world = keypoints.pixel_to_world(recording_11,
                                     keypoints.PlanarCalibration(0.001, (0.0, 0.0)))
    docs = {}
    for dim, ds in (("2d", recording_11), ("3d", world)):
        buf = io.StringIO()
        keypoints.save_dataset(ds, buf, format="json")
        docs[dim] = buf.getvalue()
    return docs


@pytest.mark.parametrize("dim", ["2d", "3d"])
def test_json_loader_equal_to_oracle_on_benchmark_recording(recording_json, dim):
    text = recording_json[dim]
    got = assert_loads_like_oracle(text)
    assert len(got[4]) == 23 and got[4][0][4] == ((2000, 2) if dim == "2d" else (2000, 3))
    for name, other in layouts(json.loads(text)).items():
        assert json_outcome(keypoints._load_json, other) == got, name


def small_json_doc():
    """A valid 2D document: a sparse track with NaN and Infinity on
    invisible samples, visible as 0 and 1, a one-sample track and an
    empty track."""
    return {"frame_rate": 1000.0, "frame_count": 9, "unit": "pixel", "tracks": [
        {"id": 1, "name": "Neck", "samples": [
            {"frame": 0, "x": 1.0, "y": 2.0, "visible": True},
            {"frame": 2, "x": float("nan"), "y": float("inf"), "visible": False},
            {"frame": 5, "x": 3.5, "y": -4.25, "visible": 1},
            {"frame": 8, "x": -float("inf"), "y": None, "visible": 0}]},
        {"id": 21, "name": "Tail_Top_Back", "samples": [
            {"frame": 3, "x": 10.0, "y": 20.0, "visible": True}]},
        {"id": 13, "name": "Shoulder_Left", "samples": []}]}


def sample(frame, x, y, visible=True, **z):
    return {"frame": frame, "x": x, "y": y, "visible": visible, **z}


def valid_json_texts():
    small = small_json_doc()
    empty_first = {"frame_rate": 500, "frame_count": 4, "unit": "meter", "tracks": [
        {"id": 2, "name": "Eye_Left", "samples": []},
        {"id": 3, "name": "Eye_Right", "samples": []},
        {"id": 1, "name": "Neck", "samples": [sample(1, 1.0, 2.0, z=3.0),
                                              sample(3, 0.0, 0.0, False, z=None)]},
        {"id": 4, "name": "Mouth_Front_Top", "samples": []}]}
    all_empty = {"frame_rate": 1e3, "frame_count": 2, "unit": "pixel", "tracks": [
        {"id": 5, "name": "Mouth_Front_Bottom", "samples": []}]}
    texts = {f"small_{k}": v for k, v in layouts(small).items()}
    texts.update({f"empty_first_{k}": v for k, v in layouts(empty_first).items()})
    texts["all_empty"] = json.dumps(all_empty)
    spaced = json.dumps(small, separators=(" ,\n", "\r:\t"))
    texts["odd_spacing"] = " \t\r\n" + spaced + "\n "
    texts["compact"] = json.dumps(small, separators=(",", ":"))
    plain = json.dumps(small)
    # a repeated key keeps its last value, the first "tracks" included
    texts["two_tracks"] = f'{plain[:-1]}, "tracks": {json.dumps(small["tracks"][1:])}}}'
    texts["two_tracks_first_invalid"] = '{"tracks": [{"id": 99}], ' + plain[1:]
    texts["two_units"] = '{"unit": "meter", ' + plain[1:]
    texts["escaped_key"] = plain.replace('"tracks"', '"tr\\u0061cks"')
    # objects that are no track but hold a "samples" list, 2D and 3D
    pair, pair_3d = ([sample(0, 1.0, 2.0, **z), sample(1, 3.0, 4.0, **z)]
                     for z in ({}, {"z": 5.0}))
    texts["samples_before_tracks"] = f'{{"samples": {json.dumps(pair_3d)}, {plain[1:]}'
    texts["meta_holds_samples"] = \
        f'{plain[:-1]}, "meta": {{"samples": {json.dumps(pair)}}}}}'
    texts["meta_first_holds_3d_samples"] = \
        f'{{"meta": {{"id": 1, "samples": {json.dumps(pair_3d)}}}, {plain[1:]}'
    texts["3d_meta_holds_2d_samples"] = json.dumps({"meta": {"samples": pair},
                                                    **empty_first})
    texts["repeated_tracks_first_3d"] = '{"tracks": [{"id": 1, "name": "Neck", ' \
        f'"samples": {json.dumps(pair_3d)}}}], {plain[1:]}'
    # a 2D document reads x and y only, whatever a later track's z holds
    for z in (3.0, "a", {}, [1.0, 2.0]):
        later = json.loads(plain)
        later["tracks"][1]["samples"][0]["z"] = z
        texts[f"2d_later_track_z_{str(z)[:3]}"] = json.dumps(later)
    return texts


@pytest.mark.parametrize("name", sorted(valid_json_texts()))
def test_json_loader_equal_to_oracle_on_valid_documents(name):
    assert assert_loads_like_oracle(valid_json_texts()[name])[0] is float


def edit(doc, path, value):
    """`doc` with the value at `path` removed (value KeyError) or replaced."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def existing_json_faults():
    """Each JSON document the suite's loader and CLI error tests build."""
    base = small_json_doc()
    one = {"frame_rate": 1000.0, "frame_count": 1, "unit": "pixel",
           "tracks": [{"id": 1, "name": "Neck", "samples": [sample(0, 1.0, 2.0)]}]}
    faults = {}

    def put(name, path, value, doc=base):
        doc = json.loads(json.dumps(doc))
        edit(doc, path, value)
        faults[name] = json.dumps(doc)

    for key in ("id", "name", "samples"):
        put(f"track_without_{key}", ("tracks", 0, key), KeyError)
    for key in ("frame", "x", "y", "visible"):
        put(f"sample_without_{key}", ("tracks", 0, "samples", 2, key), KeyError)
    for value in (float("nan"), float("inf"), None):
        put(f"visible_x_{value}", ("tracks", 0, "samples", 2, "x"), value)
    for frame in (-1, 9, 1.5, 1.0, True, "1", None, 10 ** 30):
        put(f"frame_{frame}", ("tracks", 1, "samples", 0, "frame"), frame)
    for visible in ("0", "1", 2, -1, 1.0, None, [1]):
        put(f"visible_{visible}", ("tracks", 0, "samples", 0, "visible"), visible)
    for count in (2.5, 3.0, True, "3", None, 10 ** 12):
        put(f"frame_count_{count}", ("frame_count",), count)
    for token in ("1e400", "Infinity"):
        faults[f"frame_count_{token}"] = json.dumps(base).replace('"frame_count": 9',
                                                                  f'"frame_count": {token}')
    for rate in (True, False, "1000", None, [1000], {}, float("nan"), float("inf"),
                 -float("inf"), 0.0, -1.0, 10 ** 400):
        put(f"frame_rate_{str(rate)[:8]}", ("frame_rate",), rate)
    put("z_in_pixels", ("tracks", 0, "samples", 0, "z"), 3.0, doc=one)
    put("cli_no_id", ("tracks", 0, "id"), KeyError, doc=one)
    put("cli_no_visible", ("tracks", 0, "samples", 0, "visible"), KeyError, doc=one)
    put("cli_inf_visible", ("tracks", 0, "samples", 0, "x"), float("inf"), doc=one)
    for i in (0, 1):  # id 1 itself, and a duplicate of it
        put(f"id_true_{i}", ("tracks", i, "id"), True)
    put("cli_id_true", ("tracks", 0, "id"), True, doc=one)
    for value in ("a", [1.0], {}):
        put(f"x_{value}", ("tracks", 0, "samples", 2, "x"), value)
    put("cli_x_list", ("tracks", 0, "samples", 0, "x"), [1.0], doc=one)
    # a value that an error message echoes, as an object holding two samples
    held = {"samples": [sample(0, 1.0, 2.0), sample(1, 3.0, 4.0)]}
    put("name_holds_samples", ("tracks", 0, "name"), held)
    put("unit_holds_samples", ("unit",), held)
    put("frame_count_holds_samples", ("frame_count",), held)
    three_d = {**one, "unit": "meter", "tracks": [
        {"id": 1, "name": "Neck", "samples": [sample(0, 1.0, 2.0, z=3.0)]},
        {"id": 2, "name": "Eye_Left", "samples": [sample(0, 1.0, 2.0)]}]}
    faults["2d_track_after_3d"] = json.dumps(three_d)
    # a track that holds a non-number is refused before its too large integer
    for z in ([1], "1.5"):
        overflow_first = {**three_d, "frame_count": 2, "tracks": [
            {"id": 1, "name": "Neck", "samples": [sample(0, 1.0, 2.0, z=10 ** 400),
                                                  sample(1, 3.0, 4.0, z=z)]}]}
        faults[f"z_overflow_then_z_{str(z)[:3]}"] = json.dumps(overflow_first)
    return faults


@pytest.mark.parametrize("name", sorted(existing_json_faults()))
def test_json_loader_rejects_like_oracle(name):
    assert issubclass(assert_loads_like_oracle(existing_json_faults()[name])[0], Exception)


def fault_order_texts():
    """Documents with faults of several stages, "tracks" first or last."""
    bad_id = {"id": 99, "name": "Neck", "samples": []}
    neck, neck_3d = ({"id": 1, "name": "Neck", "samples": [sample(0, 1.0, 2.0, **z)]}
                     for z in ({}, {"z": 3.0}))
    cases = {
        "probe_after_track_fault": [bad_id, {"id": 1, "name": "Neck"}],
        "first_of_two_probe_faults": [{"id": 1, "name": "Neck"}, 5],
        "unit_after_track_fault": [bad_id, neck_3d],
        "track_fault_then_valid": [bad_id, neck],
        "probe_after_axes": [neck, {"id": 2, "name": "Eye_Left"}],
        "2d_track_after_3d": [neck_3d, {**neck, "id": 2, "name": "Eye_Left"}],
        "track_fault_after_later_z": [
            neck, {"id": 2, "name": "Eye_Left",
                   "samples": [sample(0, 1.0, 2.0, z="a")]}, bad_id],
    }
    texts = {}
    for name, tracks in cases.items():
        doc = {"frame_rate": 1000.0, "frame_count": 1, "unit": "pixel", "tracks": tracks}
        for layout in ("plain", "tracks_first"):
            texts[f"{name}_{layout}"] = layouts(doc)[layout]
        texts[f"{name}_bad_rate"] = layouts({**doc, "frame_rate": "1"})["tracks_first"]
    return texts


@pytest.mark.parametrize("name", sorted(fault_order_texts()))
def test_json_loader_reports_faults_in_the_oracles_order(name):
    assert issubclass(assert_loads_like_oracle(fault_order_texts()[name])[0], Exception)


def json_paths(node, path=()):
    """The path of every value below `node`."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


WRONG_VALUES = (None, True, False, 0, 1, -1, 2.5, float("nan"), 10 ** 400, "", "x",
                "Neck", [], [1], {}, {"a": 1}, 24)


def mutated_json(kind, seed):
    """A small valid document with one kind of seeded fault, in a seeded layout."""
    rng = random.Random(f"{kind}-{seed}")
    doc = small_json_doc()
    if kind == "key_removed":
        path = rng.choice([p for p in json_paths(doc) if not isinstance(p[-1], int)])
        edit(doc, path, KeyError)
    elif kind == "wrong_type":
        edit(doc, rng.choice(list(json_paths(doc))), rng.choice(WRONG_VALUES))
    elif kind == "tracks_not_a_list":
        doc["tracks"] = rng.choice([{}, {"0": doc["tracks"][0]}, 0, 3, -1.5, True, False,
                                    None, "", "tracks"])
    elif kind == "non_object_top":
        doc = rng.choice([doc["tracks"], [doc], 1000, "doc", None, True])
    elif kind in ("two_track_faults", "track_fault_and_missing_key"):
        tracks = rng.sample(range(3), 2 if kind == "two_track_faults" else 1)
        for i in tracks:
            inside = list(json_paths(doc["tracks"][i], ("tracks", i)))
            edit(doc, rng.choice(inside), rng.choice((KeyError,) + WRONG_VALUES))
        if kind == "track_fault_and_missing_key":
            del doc[rng.choice(["frame_rate", "frame_count", "unit"])]
    text = layouts(doc)[rng.choice(["plain", "indent", "tracks_first", "sorted"])] \
        if isinstance(doc, dict) else json.dumps(doc)
    if kind == "cut":
        text = text[:rng.randrange(len(text))]
    elif kind == "trailing":
        text += rng.choice(["x", " {}", "[", ",", "]", "}", " 1", '"a"', "\n\t,", "nul"])
    return text


MUTATIONS = ("key_removed", "wrong_type", "cut", "trailing", "non_object_top",
             "tracks_not_a_list", "two_track_faults", "track_fault_and_missing_key")


@pytest.mark.parametrize("kind", MUTATIONS)
def test_json_loader_like_oracle_on_seeded_mutations(kind):
    outcomes = [assert_loads_like_oracle(mutated_json(kind, seed)) for seed in range(30)]
    failed = [got for got in outcomes if got[0] in (ParseError, SchemaError, EmptyDataset)]
    assert len(failed) >= 10  # most mutations are faults, and every one is compared
