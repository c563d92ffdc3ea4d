import io

import numpy as np
import pytest

from bioright import errors, traj
from bioright.errors import BadWindow, NoStep, TooShort, Unreachable
from bioright.traj import (JointTrajectory, damping_from_overshoot,
                           differentiate, smooth, step_metrics,
                           synth_second_order, time_scale)


def make_traj(times, angle, rate=None):
    return JointTrajectory(np.asarray(times, float), np.asarray(angle, float),
                           rate)


class TestDifferentiate:
    def test_constant_angle(self):
        t = np.linspace(0, 1, 11)
        out = differentiate(make_traj(t, np.full(11, 2.0)))
        assert np.allclose(out.rate, 0.0)

    def test_linear_ramp(self):
        t = np.linspace(0, 5, 51)
        out = differentiate(make_traj(t, 2.0 * t))
        assert np.max(np.abs(out.rate - 2.0)) < 1e-9

    def test_sine_against_analytic(self):
        t = np.arange(0, 1, 1e-3)
        out = differentiate(make_traj(t, np.sin(t)))
        assert np.max(np.abs(out.rate - np.cos(t))) < 1e-6

    def test_too_short(self):
        with pytest.raises(TooShort):
            differentiate(make_traj([0, 1], [0, 1]))


class TestSmooth:
    def test_window_one_identity(self):
        t = np.linspace(0, 1, 20)
        angle = np.sin(10 * t)
        out = smooth(make_traj(t, angle), 1)
        assert np.array_equal(out.angle, angle)

    def test_constant_unchanged(self):
        t = np.linspace(0, 1, 21)
        out = smooth(make_traj(t, np.full(21, 3.0)), 7)
        assert np.allclose(out.angle, 3.0)

    def test_noise_reduction_factor(self):
        rng = np.random.default_rng(89)
        n = 20000
        t = np.arange(n, dtype=float)
        noise = rng.normal(size=n)
        out = smooth(make_traj(t, noise), 9)
        ratio = np.std(out.angle[10:-10]) / np.std(noise)
        assert ratio == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_bad_window(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(BadWindow):
            smooth(make_traj(t, t), 4)
        with pytest.raises(BadWindow):
            smooth(make_traj(t, t), 11)


class TestTimeScale:
    def test_lizard_to_sms_factor(self):
        t = np.linspace(0, 0.150, 151)
        rate = np.full(151, np.radians(3000.0))
        out = time_scale(make_traj(t, t.copy(), rate), 225.0)
        k = out.duration / 0.150
        assert k == pytest.approx(1500.0)
        assert np.allclose(np.degrees(out.rate), 2.0)

    def test_identity_factor(self):
        t = np.linspace(0, 2, 21)
        tr = differentiate(make_traj(t, np.sin(t)))
        out = time_scale(tr, 2.0)
        assert np.allclose(out.times, tr.times)
        assert np.allclose(out.rate, tr.rate)

    def test_commutes_with_differentiate(self):
        t = np.linspace(0, 1, 101)
        tr = make_traj(t, np.sin(5 * t))
        k = 30.0
        a = differentiate(time_scale(tr, k))
        b = time_scale(differentiate(tr), k)
        assert np.max(np.abs(a.rate - b.rate)) < 1e-9


class TestStepMetrics:
    def test_instant_step(self):
        t = np.linspace(0, 10, 1001)
        angle = np.where(t > 0, 1.0, 0.0)
        m = step_metrics(make_traj(t, angle), steady_time=10.0)
        assert m.rise_time < 2 * 0.01
        assert m.settling_time < 2 * 0.01
        assert m.overshoot == 0.0

    def test_no_step(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(NoStep):
            step_metrics(make_traj(t, np.zeros(11)), steady_time=1.0)

    def test_overshoot_from_damping_oracle(self):
        # zeta = 0.5326 gives 13.85% by the analytic overshoot formula
        zeta = 0.5326
        os_expected = 100 * np.exp(-zeta * np.pi / np.sqrt(1 - zeta ** 2))
        t = np.linspace(0, 400, 400001)
        wn = 0.05
        y = traj._step_response(t, zeta, wn)
        m = step_metrics(make_traj(t, y), steady_time=400.0)
        assert m.overshoot == pytest.approx(os_expected, abs=0.1)
        assert m.overshoot == pytest.approx(13.85, abs=0.1)

    def test_offset_invariance(self):
        t = np.linspace(0, 300, 30001)
        y = traj._step_response(t, 0.5, 0.05)
        a = step_metrics(make_traj(t, y), steady_time=300.0)
        b = step_metrics(make_traj(t, y + 7.5), steady_time=300.0)
        assert a.rise_time == pytest.approx(b.rise_time, abs=1e-9)
        assert a.settling_time == pytest.approx(b.settling_time, abs=1e-9)
        assert a.overshoot == pytest.approx(b.overshoot, abs=1e-9)


class TestSynthSecondOrder:
    def test_round_trip_consistency(self):
        # long horizon so the steady-state assumption behind the
        # normalized thresholds actually holds
        tr = synth_second_order(13.85, 64.5, 900.0, 0.01)
        m = step_metrics(tr, steady_time=900.0)
        assert m.rise_time == pytest.approx(64.5, abs=0.5)
        assert m.overshoot == pytest.approx(13.85, abs=0.1)

    def test_excursion_is_half_turn(self):
        tr = synth_second_order(13.85, 64.5, 225.0, 0.01)
        assert np.degrees(tr.angle[-1]) == pytest.approx(180.0, rel=0.05)

    def test_low_overshoot_nearly_monotone(self):
        tr = synth_second_order(0.01, 10.0, 60.0, 0.01)
        drops = np.diff(tr.angle)
        assert np.min(drops) > -1e-6

    def test_grid_convergence(self):
        coarse = synth_second_order(13.85, 64.5, 225.0, 0.02)
        fine = synth_second_order(13.85, 64.5, 225.0, 0.01)
        mc = step_metrics(coarse, steady_time=225.0)
        mf = step_metrics(fine, steady_time=225.0)
        assert mc.rise_time == pytest.approx(mf.rise_time, rel=1e-3)
        assert mc.overshoot == pytest.approx(mf.overshoot, rel=1e-3)
        assert mc.settling_time == pytest.approx(mf.settling_time, rel=1e-3)

    def test_infeasible_overshoot(self):
        with pytest.raises(Unreachable):
            synth_second_order(0.0, 10.0, 60.0, 0.01)
        with pytest.raises(Unreachable):
            synth_second_order(120.0, 10.0, 60.0, 0.01)

    def test_rate_matches_numerical_derivative(self):
        tr = synth_second_order(13.85, 64.5, 225.0, 0.01)
        num = differentiate(JointTrajectory(tr.times, tr.angle))
        assert np.max(np.abs(num.rate - tr.rate)) < 1e-5


class TestCsvRoundTrip:
    def test_write_read(self):
        tr = synth_second_order(13.85, 64.5, 225.0, 0.1)
        buf = io.StringIO()
        traj.write_trajectory_csv(tr, buf)
        again = traj.read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert np.allclose(again.times, tr.times, atol=1e-9)
        assert np.allclose(again.angle, tr.angle, atol=1e-9)
        assert np.allclose(again.rate, tr.rate, atol=1e-9)


class TestNonFiniteRate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        t = np.linspace(0, 1, 11)
        rate = np.zeros(11)
        rate[5] = bad
        with pytest.raises(ValueError, match="rate contains non-finite"):
            make_traj(t, np.sin(t), rate)


class TestTimeScaleZeroDuration:
    def test_single_sample_too_short(self):
        with pytest.raises(TooShort):
            time_scale(make_traj([0.0], [1.0], [2.0]), 225.0)


class TestScaledCsvRoundTrip:
    @pytest.mark.parametrize("duration", [1.0, 7.0, 100.0, 225.0, 1000.0])
    def test_scaled_flip_reads_back(self, duration):
        buf = io.StringIO()
        flip = synth_second_order(13.85, 0.043, 0.150, 1e-3)  # 151 samples
        traj.write_trajectory_csv(time_scale(flip, duration), buf)
        again = traj.read_trajectory_csv(io.StringIO(buf.getvalue()))
        assert len(again.times) == 151
        assert again.duration == pytest.approx(duration, rel=1e-8)

    @pytest.mark.parametrize("duration", [0.150, 100.0, 1000.0])
    def test_one_percent_step_jitter_rejected(self, duration):
        rng = np.random.default_rng(7)
        steps = duration / 150 * (1 + 0.01 * rng.choice([-1.0, 1.0], size=150))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        with pytest.raises(ValueError, match="not uniform"):
            make_traj(times, np.zeros(151))


class TestNonIncreasingTimes:
    @pytest.mark.parametrize("times", [[2.0, 1.0, 0.0], [0.0, 0.0],
                                       [5.0, 5.0, 5.0]],
                             ids=["descending", "repeated", "all_repeated"])
    def test_rejected(self, times):
        # uniform steps, but not forward in time
        with pytest.raises(ValueError, match="time grid must increase"):
            make_traj(times, np.zeros(len(times)))


class TestDomainErrors:
    """Arguments outside an operation's domain raise OutOfDomain, which the
    CLI maps to exit 4; a ValueError would map to exit 2."""

    @pytest.mark.parametrize("call", [
        lambda tr: time_scale(tr, -1.0),
        lambda tr: time_scale(tr, 0.0),
        lambda tr: step_metrics(tr, steady_time=-0.5),
        lambda tr: step_metrics(tr, steady_time=1.5),
        lambda tr: time_scale(tr, np.nan),
        lambda tr: time_scale(tr, np.inf),
    ], ids=["scale_negative", "scale_zero", "steady_before", "steady_after",
            "scale_nan", "scale_inf"])
    def test_out_of_domain(self, call):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(errors.OutOfDomain) as info:
            call(make_traj(t, t * t, 2 * t))
        assert not isinstance(info.value, ValueError)


HEADER = "t,angle_deg,rate_deg_s\n"


class TestTrajectoryCsvColumns:
    """Exactly three columns; what the per-token parse accepted still reads."""

    @pytest.mark.parametrize("body", ["0,1\n1,2\n", "0,1,2,3\n1,2,3,4\n",
                                      "0,1,2\n1,2\n", "0,1,2\n1,2,3,4\n"],
                             ids=["two", "four", "short_row", "long_row"])
    def test_wrong_column_count_rejected(self, body):
        with pytest.raises(ValueError, match="column"):
            traj.read_trajectory_csv(io.StringIO(HEADER + body))

    def test_blank_lines_and_whitespace(self):
        text = ("\n  " + HEADER + "\n 0 , 10 , nan \n   \n0.5,20,nan\n"
                "\t1,30,nan\r\n")
        got = traj.read_trajectory_csv(io.StringIO(text))
        assert got.times.tolist() == [0.0, 0.5, 1.0]
        assert np.allclose(np.degrees(got.angle), [10.0, 20.0, 30.0],
                           rtol=1e-15, atol=0)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_tokens_parse(self, token):
        # the parse reads them; the trajectory then rejects the rate
        with pytest.raises(ValueError, match="^rate contains non-finite"):
            traj.read_trajectory_csv(io.StringIO(HEADER + f"0,1,2\n1,2,{token}\n"))

    def test_all_nan_rates_read_as_none(self):
        got = traj.read_trajectory_csv(io.StringIO(HEADER + "0,1,nan\n1,2,NaN\n"))
        assert got.rate is None

    def test_same_values_as_per_token_float(self):
        rows = ["0,-0.0,1e-300", "0.25,1.5E+2,-7", "0.5,+3,.5", "0.75,4.,1e-5",
                " 1 ,\t-5e-324 ,2"]
        got = traj.read_trajectory_csv(io.StringIO(HEADER + "\n".join(rows)))
        want = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(got.angle, np.radians(want[:, 1]))
        assert np.array_equal(got.rate, np.radians(want[:, 2]))

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("\u0663", 3.0)])
    def test_rejects_tokens_python_float_accepts(self, token, value):
        # The one intended difference: float() reads digit groups ("1_0") and
        # non-ASCII digits (ARABIC-INDIC DIGIT THREE); the numpy parse does not.
        assert float(token) == value
        with pytest.raises(ValueError):
            traj.read_trajectory_csv(io.StringIO(HEADER + f"0,{token},0\n1,1,0\n"))


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rate", [None, np.zeros(5)], ids=["no_rate", "rate"])
    def test_rejected_naming_times(self, bad, rate):
        t = np.linspace(0.0, 0.04, 5)
        t[2] = bad
        with pytest.raises(ValueError, match="^times contain non-finite"):
            make_traj(t, np.zeros(5), rate)


class TestTimeGrid:
    """The surrogate and PD tracking share one grid, bounded by MAX_SAMPLES."""

    @pytest.mark.parametrize("t0, span, dt", [(0.0, 225.0, 0.01), (0.0, 0.15, 1e-3),
                                              (1.5, 0.3, 7e-4), (-2.0, 0.0, 0.1)])
    def test_bytes_equal_both_former_grids(self, t0, span, dt):
        n = int(round(span / dt)) + 1
        got = traj.time_grid(t0, span, dt)
        assert got.tobytes() == (t0 + np.arange(n) * dt).tobytes()  # simulate_pd
        if t0 == 0.0:
            assert got.tobytes() == (dt * np.arange(n)).tobytes()  # synth_second_order

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    def test_dt_out_of_domain(self, dt):
        with pytest.raises(errors.OutOfDomain, match="dt must be finite and positive"):
            traj.time_grid(0.0, 1.0, dt)

    def test_surrogate_zero_dt_out_of_domain(self):
        with pytest.raises(errors.OutOfDomain, match="dt must be finite and positive"):
            synth_second_order(13.85, 64.5, 225.0, 0.0)

    # every case raises before a sample is allocated; 225 / 1e-320 is inf
    @pytest.mark.parametrize("span, dt", [(traj.MAX_SAMPLES * 1e-3, 1e-3),
                                          (225.0, 1e-9), (225.0, 1e-300),
                                          (225.0, 1e-320)])
    def test_too_many_samples_out_of_domain(self, span, dt):
        with pytest.raises(errors.OutOfDomain, match="MAX_SAMPLES"):
            traj.time_grid(0.0, span, dt)
        with pytest.raises(errors.OutOfDomain, match="MAX_SAMPLES"):
            synth_second_order(13.85, 0.1 * span, span, dt)

    def test_the_bound_counts_samples(self, monkeypatch):
        monkeypatch.setattr(traj, "MAX_SAMPLES", 11)
        assert len(traj.time_grid(5.0, 1.0, 0.1)) == 11
        with pytest.raises(errors.OutOfDomain):
            traj.time_grid(5.0, 1.0, 0.099)
