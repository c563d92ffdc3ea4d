import io
import math

import numpy as np
import pytest

from bioright import smsdyn, traj
from bioright.errors import (BiorightError, Diverged, ModeUnsupported,
                             OutOfDomain, SingularMass)
from bioright.smsdyn import (Mode, PdGains, SmsParams, SmsState,
                             angular_momentum, base_reaction_estimate,
                             coriolis, ets7_params, inertia_ratio,
                             kinetic_energy, lizard_params, mass_matrix,
                             simulate_pd, simulate_prescribed,
                             step_rk4)


def planar_params(**overrides):
    kw = dict(base_mass=2550.0, arm_mass=140.4, base_inertia=6200.0,
              arm_inertia_cm=40.0, hinge_offset=1.2, arm_cm_offset=1.5,
              mode=Mode.PLANAR_OFFSET)
    kw.update(overrides)
    return SmsParams(**kw)


class TestParams:
    def test_ets7_mass_matrix(self):
        M = mass_matrix(ets7_params(), 0.0)
        assert np.allclose(M, [[6560.0, 360.0], [360.0, 360.0]])

    def test_ets7_ratios(self):
        p = ets7_params()
        assert inertia_ratio(p) == pytest.approx(360.0 / 6200.0)

    def test_ets7_values(self):
        # the ETS-VII numbers, now derived from CONFIG_DEFAULTS
        assert ets7_params() == SmsParams(2550.0, 140.4, 6200.0, 360.0,
                                          mode=Mode.COAXIAL)
        assert ets7_params() == smsdyn.params_from_config(smsdyn.CONFIG_DEFAULTS)

    def test_lizard_inertia_ratio(self):
        assert inertia_ratio(lizard_params()) == pytest.approx(0.8015, abs=2e-4)

    def test_coaxial_rejects_offsets(self):
        with pytest.raises(ValueError):
            SmsParams(1.0, 1.0, 1.0, 1.0, hinge_offset=0.5)

    def test_reduced_mass(self):
        p = planar_params()
        mu = 2550.0 * 140.4 / (2550.0 + 140.4)
        assert p.reduced_mass == pytest.approx(mu)


class TestMassMatrixAndCoriolis:
    def test_coaxial_theta_independent(self):
        p = ets7_params()
        for th in np.linspace(-np.pi, np.pi, 7):
            assert np.array_equal(mass_matrix(p, th), mass_matrix(p, 0.0))
            assert np.array_equal(coriolis(p, th, 0.3, -0.7), np.zeros(2))

    def test_planar_against_hand_values(self):
        p = planar_params()
        mu = p.reduced_mass
        rh, d, th = 1.2, 1.5, 0.6
        M = mass_matrix(p, th)
        c = math.cos(th)
        assert M[0, 0] == pytest.approx(
            6200.0 + 40.0 + mu * (rh ** 2 + d ** 2 + 2 * rh * d * c))
        assert M[0, 1] == pytest.approx(40.0 + mu * (d ** 2 + rh * d * c))
        assert M[1, 1] == pytest.approx(40.0 + mu * d ** 2)
        assert M[0, 1] == M[1, 0]

    def test_planar_positive_definite(self):
        p = planar_params()
        for th in np.linspace(-np.pi, np.pi, 25):
            eig = np.linalg.eigvalsh(mass_matrix(p, th))
            assert np.all(eig > 0)

    def test_coriolis_power_balance(self):
        # d(KE)/dt must equal tau * theta_dot; with tau = 0 the Coriolis
        # vector must absorb exactly the dM/dtheta * theta_dot power
        p = planar_params()
        th, phid, thd = 0.9, 0.21, -0.55
        qd = np.array([phid, thd])
        eps = 1e-7
        dM = (mass_matrix(p, th + eps) - mass_matrix(p, th - eps)) / (2 * eps)
        power_from_matrix = 0.5 * float(qd @ dM @ qd) * thd
        power_from_coriolis = float(coriolis(p, th, phid, thd) @ qd)
        assert power_from_coriolis == pytest.approx(power_from_matrix, rel=1e-6)


class TestRk4:
    def test_coaxial_constant_torque_analytic(self):
        # in Coaxial mode the accelerations are constant, so the states are
        # quadratic in time and RK4 reproduces them exactly
        p = ets7_params()
        tau = 5.0
        M = mass_matrix(p, 0.0)
        qdd = np.linalg.solve(M, [0.0, tau])
        s = SmsState(math.pi, 0.0, 0.0, 0.0)
        for _ in range(100):
            s = step_rk4(p, s, tau, 0.05)
        t = s.t
        assert t == pytest.approx(5.0)
        assert s.base_rate == pytest.approx(qdd[0] * t, abs=1e-12)
        assert s.joint_rate == pytest.approx(qdd[1] * t, abs=1e-12)
        assert s.base_angle == pytest.approx(math.pi + 0.5 * qdd[0] * t * t,
                                             abs=1e-12)
        assert s.joint_angle == pytest.approx(0.5 * qdd[1] * t * t, abs=1e-12)

    def test_momentum_invariant_coaxial(self):
        p = ets7_params()
        s = SmsState(math.pi, 0.3, 0.0, 0.0)
        L0 = angular_momentum(p, s)
        for i in range(200):
            s = step_rk4(p, s, 3.0 * math.sin(0.1 * i), 0.05)
        assert angular_momentum(p, s) == pytest.approx(L0, abs=1e-12)

    def test_energy_conserved_planar_free(self):
        # no torque, no gravity: kinetic energy is conserved
        p = planar_params()
        s = SmsState(0.0, 0.5, 0.02, -0.05)
        e0 = kinetic_energy(p, s)
        for _ in range(10000):
            s = step_rk4(p, s, 0.0, 0.01)
        assert kinetic_energy(p, s) == pytest.approx(e0, rel=1e-6)

    def test_momentum_conserved_planar_free(self):
        p = planar_params()
        s = SmsState(0.0, 0.5, 0.02, -0.05)
        L0 = angular_momentum(p, s)
        for _ in range(5000):
            s = step_rk4(p, s, 0.0, 0.01)
        assert angular_momentum(p, s) == pytest.approx(L0, rel=1e-9)

    def test_fourth_order_convergence(self):
        p = planar_params()

        def run(dt, steps):
            s = SmsState(0.0, 0.5, 0.0, 0.2)
            for _ in range(steps):
                s = step_rk4(p, s, 2.0, dt)
            return np.array([s.base_angle, s.joint_angle, s.base_rate, s.joint_rate])

        ref = run(0.0005, 8000)  # t = 4 s
        err_coarse = np.max(np.abs(run(0.04, 100) - ref))
        err_fine = np.max(np.abs(run(0.02, 200) - ref))
        order = np.log2(err_coarse / err_fine)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_singular_mass(self):
        p = SmsParams(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(SingularMass):
            step_rk4(p, SmsState(0.0, 0.0, 0.0, 0.0), 1.0, 0.01)

    def test_bad_dt(self):
        with pytest.raises(OutOfDomain):
            step_rk4(ets7_params(), SmsState(0, 0, 0, 0), 0.0, -0.1)


class TestPrescribed:
    def sweep(self, duration=225.0, dt=0.01, delta=-np.pi):
        n = int(round(duration / dt)) + 1
        t = dt * np.arange(n)
        # smooth (cosine-blended) sweep so the endpoint rates vanish
        s = 0.5 * (1 - np.cos(np.pi * t / duration))
        angle = delta * s
        rate = delta * 0.5 * np.pi / duration * np.sin(np.pi * t / duration)
        return traj.JointTrajectory(t, angle, rate)

    def test_base_reaction_half_sweep(self):
        p = ets7_params()
        out = simulate_prescribed(p, self.sweep(), L0=0.0)
        dphi = out.base_angle[-1] - out.base_angle[0]
        expected = base_reaction_estimate(p, -np.pi)
        assert math.degrees(expected) == pytest.approx(9.878, abs=2e-3)
        assert dphi == pytest.approx(expected, abs=1e-6)

    def test_momentum_exact_along_path(self):
        out = simulate_prescribed(ets7_params(), self.sweep(duration=10.0),
                                  L0=12.5)
        assert np.max(np.abs(out.momentum - 12.5)) < 1e-9

    def test_path_independence_coaxial(self):
        # base reaction depends only on the net joint excursion
        p = ets7_params()
        a = simulate_prescribed(p, self.sweep(duration=50.0))
        b = simulate_prescribed(p, self.sweep(duration=200.0))
        assert a.base_angle[-1] == pytest.approx(b.base_angle[-1], abs=1e-7)

    def test_inertia_scaling_invariance(self):
        # multiplying every mass and inertia by k leaves the motion unchanged
        p = ets7_params()
        k = 37.0
        q = SmsParams(p.base_mass * k, p.arm_mass * k, p.base_inertia * k,
                      p.arm_inertia_cm * k)
        ref = self.sweep(duration=20.0)
        a = simulate_prescribed(p, ref)
        b = simulate_prescribed(q, ref)
        assert np.allclose(a.base_angle, b.base_angle, atol=1e-12)
        assert np.allclose(b.torque, k * a.torque, rtol=1e-9)

    def test_lizard_same_reaction_shape(self):
        # the base reaction angle depends only on the inertia ratio
        p = lizard_params()
        out = simulate_prescribed(p, self.sweep(duration=0.150, dt=5e-5))
        dphi = out.base_angle[-1] - out.base_angle[0]
        ia, ib = p.arm_inertia_cm, p.base_inertia
        assert dphi == pytest.approx(ia / (ib + ia) * np.pi, abs=1e-6)

    def test_requires_rates(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            simulate_prescribed(ets7_params(),
                                traj.JointTrajectory(t, np.sin(t)))

    def test_estimate_mode_guard(self):
        with pytest.raises(ModeUnsupported):
            base_reaction_estimate(planar_params(), 1.0)


class TestPd:
    def test_tracks_slow_reference(self):
        p = ets7_params()
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.01)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        out = simulate_pd(p, ref, gains, dt=0.01, joint_angle0=0.0)
        err = out.metadata["tracking_error"]
        assert np.max(np.abs(np.degrees(err))) < 10.0

    def test_metadata_holds_only_tracking_error(self):
        ref = traj.synth_second_order(13.85, 20.0, 60.0, 0.5)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        assert list(simulate_pd(ets7_params(), ref, gains, dt=0.5).metadata) == \
            ["tracking_error"]
        assert simulate_prescribed(ets7_params(), ref).metadata == {}

    def test_base_rate_within_budget(self):
        p = ets7_params()
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.01)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        out = simulate_pd(p, ref, gains, dt=0.01, joint_angle0=0.0)
        assert np.max(np.abs(np.degrees(out.base_rate))) < 0.15

    def test_torque_respects_limit(self):
        p = ets7_params()
        ref = traj.synth_second_order(13.85, 20.0, 60.0, 0.01)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=0.5)
        out = simulate_pd(p, ref, gains, dt=0.01, joint_angle0=0.0)
        assert np.max(np.abs(out.torque)) <= 0.5 + 1e-12

    def test_momentum_stays_zero(self):
        # internal torques cannot change the total angular momentum
        p = ets7_params()
        ref = traj.synth_second_order(13.85, 10.0, 30.0, 0.01)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        out = simulate_pd(p, ref, gains, dt=0.01, joint_angle0=0.0)
        assert np.max(np.abs(out.momentum)) < 1e-10

    def test_zero_error_start_stays_put(self):
        p = ets7_params()
        t = np.linspace(0, 5, 501)
        ref = traj.JointTrajectory(t, np.full(501, 0.3), np.zeros(501))
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        out = simulate_pd(p, ref, gains, dt=0.01)
        assert np.max(np.abs(out.joint_angle - 0.3)) < 1e-12
        assert np.max(np.abs(out.base_angle - math.pi)) < 1e-12

    def test_diverges_with_unstable_setup(self):
        p = lizard_params()
        t = np.linspace(0, 10, 11)
        ref = traj.JointTrajectory(t, np.full(11, 1.0), np.zeros(11))
        gains = PdGains(kp=2000.0, kd=0.0, torque_limit=1e9)
        with pytest.raises(Diverged):
            simulate_pd(p, ref, gains, dt=1.0, joint_angle0=0.0)


class TestConfig:
    def test_defaults(self):
        cfg = smsdyn.parse_config("")
        p = smsdyn.params_from_config(cfg)
        assert p.base_inertia == 6200.0
        g = smsdyn.gains_from_config(cfg)
        assert (g.kp, g.kd, g.torque_limit) == (2000.0, 20000.0, 10.0)

    def test_overrides_and_comments(self):
        text = "# roll axis\nbase_inertia = 310\nkp = 5.5  # stiff\n"
        cfg = smsdyn.parse_config(text)
        assert cfg["base_inertia"] == 310.0
        assert cfg["kp"] == 5.5

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            smsdyn.parse_config("bogus = 1\n")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="bad mode"):
            smsdyn.parse_config("mode = Orbit\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            smsdyn.parse_config("just words\n")


class TestCsv:
    def test_header_and_rows(self):
        p = ets7_params()
        t = np.linspace(0, 1, 101)
        ref = traj.JointTrajectory(t, 0.1 * t, np.full(101, 0.1))
        out = simulate_prescribed(p, ref)
        buf = io.StringIO()
        smsdyn.write_trajectory_csv(out, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,phi_deg,theta_deg,phi_rate_deg_s,theta_rate_deg_s,tau_Nm,L"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(180.0)


class TestNonFiniteReference:
    """A NaN that reaches the PD loop stops it instead of filling the
    output; `np.max(|state|) > limit` alone is False for NaN."""

    @pytest.mark.parametrize("params", [ets7_params(), planar_params()],
                             ids=["coaxial", "planar_offset"])
    def test_nan_rate_raises_diverged(self, params):
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.01)
        ref.rate[5000] = np.nan  # set after construction-time validation
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        with pytest.raises(Diverged, match="t = 50.010 s"):
            simulate_pd(params, ref, gains, dt=0.01)


class TestNonFiniteTorque:
    """A held torque that is not finite is rejected, not propagated into
    the state or dropped."""

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_rejected(self, tau):
        with pytest.raises(BiorightError, match="finite") as info:
            step_rk4(ets7_params(), SmsState(0.1, 0.2, 0.0, 0.0), tau, 0.01)
        assert not isinstance(info.value, ValueError)


class TestDtDomain:
    """A dt that is not finite and positive is OutOfDomain in both entry
    points, the family `traj.time_scale` uses for a non-positive duration;
    NaN once read as a divergence and inf as a one-row NaN history."""

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_step_rk4(self, dt):
        with pytest.raises(OutOfDomain, match="dt must be finite and positive"):
            step_rk4(ets7_params(), SmsState(0.1, 0.2, 0.0, 0.0), 1.0, dt)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_simulate_pd(self, dt):
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.5)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        with pytest.raises(OutOfDomain, match="dt must be finite and positive"):
            simulate_pd(ets7_params(), ref, gains, dt)

    @pytest.mark.parametrize("dt, end", [(160.0, "160"), (0.007, "225.001")])
    def test_simulate_pd_grid_misses_the_reference_end(self, dt, end):
        # the grid would stop short of 225 s, or hold the reference past it
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.01)
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        with pytest.raises(OutOfDomain, match=f"grid at {end} s, not at the "
                                              "reference's last time 225 s"):
            simulate_pd(planar_params(), ref, gains, dt)


class TestReferenceStartTime:
    """PD tracking runs from the reference's first time, not from t = 0."""

    T0, DT = 128.0, 0.03125  # both exact in binary

    def reference(self, t0):
        t = t0 + 1.5 * np.arange(31)
        angle = np.pi * (1 - np.cos(np.pi * np.arange(31) / 30)) / 2
        return traj.differentiate(traj.JointTrajectory(t, angle))

    def test_starts_at_first_sample(self):
        gains = PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        late = simulate_pd(planar_params(), self.reference(self.T0), gains,
                           self.DT, joint_angle0=0.3)
        early = simulate_pd(planar_params(), self.reference(0.0), gains,
                            self.DT, joint_angle0=0.3)
        assert len(late.times) == len(early.times) == 1441
        assert late.times[0] == self.T0 and late.times[-1] == self.T0 + 45.0
        assert np.array_equal(late.times, self.T0 + early.times)
        for name in ("base_angle", "joint_angle", "base_rate", "joint_rate",
                     "torque", "momentum"):
            assert np.array_equal(getattr(late, name), getattr(early, name))

    def test_diverged_reports_reference_time(self):
        p = SmsParams(2.9e-3, 0.29e-3, 6.6e-8, 5.29e-8)
        gains = PdGains(kp=2000.0, kd=0.0, torque_limit=1e9)
        messages = []
        for t0 in (0.0, self.T0):
            t = t0 + np.linspace(0.0, 10.0, 11)
            ref = traj.JointTrajectory(t, np.ones(11), np.zeros(11))
            with pytest.raises(Diverged) as info:
                simulate_pd(p, ref, gains, dt=1.0, joint_angle0=0.0)
            messages.append(float(str(info.value).split("t = ")[1].split()[0]))
        assert messages[1] == messages[0] + self.T0


class TestNonFiniteFields:
    @pytest.mark.parametrize("field", ["base_mass", "arm_mass", "base_inertia",
                                       "arm_inertia_cm", "hinge_offset",
                                       "arm_cm_offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_params_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            planar_params(**{field: value})

    @pytest.mark.parametrize("field", ["kp", "kd", "torque_limit"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gains_rejected(self, field, value):
        kw = dict(kp=2000.0, kd=20000.0, torque_limit=10.0)
        kw[field] = value
        with pytest.raises(ValueError, match="finite"):
            PdGains(**kw)


class TestZeroBaseInertia:
    def test_inertia_ratio_is_inf(self):
        assert inertia_ratio(SmsParams(1.0, 1.0, 0.0, 1.0)) == math.inf
        assert inertia_ratio(SmsParams(1.0, 1.0, 0.0, 0.0)) == math.inf
