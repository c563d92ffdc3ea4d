import io
import math
from dataclasses import replace

import numpy as np
import pytest

from bioright import objective, smsdyn, traj
from bioright.errors import MissingTorque, OutOfDomain
from bioright.objective import (ObjectiveContext, ObjectiveWeights, evaluate,
                                phi_efficiency, phi_safety, phi_stability,
                                simplex_grid, weight_sweep, write_report_csv)
from bioright.smsdyn import SmsTrajectory


def make_traj(times, base_angle, base_rate, torque):
    times = np.asarray(times, float)
    n = len(times)
    return SmsTrajectory(times, np.asarray(base_angle, float),
                         np.zeros(n), np.asarray(base_rate, float),
                         np.zeros(n), np.asarray(torque, float), np.zeros(n))


CONTEXT = ObjectiveContext(rate_limit=np.radians(0.15),
                           base_angle_target=math.pi, torque_limit=10.0)


class TestFunctionals:
    def test_safety_is_peak_over_limit(self):
        t = np.linspace(0, 2 * np.pi, 101)  # grid hits sin = 1 exactly
        rate = np.radians(0.075) * np.sin(t)
        tr = make_traj(t, np.full(101, math.pi), rate, np.zeros(101))
        assert phi_safety(tr, np.radians(0.15)) == pytest.approx(0.5, rel=1e-9)

    def test_safety_can_exceed_one(self):
        t = np.linspace(0, 1, 11)
        tr = make_traj(t, t, np.full(11, 2.0), np.zeros(11))
        assert phi_safety(tr, 1.0) == pytest.approx(2.0)

    def test_stability_motionless_at_target(self):
        t = np.linspace(0, 5, 51)
        tr = make_traj(t, np.full(51, math.pi), np.zeros(51), np.zeros(51))
        assert phi_stability(tr, math.pi) == 0.0

    def test_stability_terminal_error_term(self):
        t = np.linspace(0, 5, 51)
        tr = make_traj(t, np.full(51, math.pi + np.pi / 4), np.zeros(51),
                       np.zeros(51))
        assert phi_stability(tr, math.pi) == pytest.approx(0.25)

    def test_stability_constant_rate_motion_term(self):
        # constant |rate|: mean/peak = 1, so the motion term is exactly 1
        t = np.linspace(0, 5, 5001)
        phi = math.pi + 0.01 * t
        tr = make_traj(t, phi, np.full(5001, 0.01), np.zeros(5001))
        expected = abs(phi[-1] - math.pi) / np.pi + 1.0
        assert phi_stability(tr, math.pi) == pytest.approx(expected, rel=1e-9)

    def test_efficiency_zero_torque(self):
        t = np.linspace(0, 5, 51)
        tr = make_traj(t, t, t, np.zeros(51))
        assert phi_efficiency(tr, 10.0) == 0.0

    def test_efficiency_saturated_torque_is_one(self):
        t = np.linspace(0, 5, 51)
        tr = make_traj(t, t, t, np.full(51, 10.0))
        assert phi_efficiency(tr, 10.0) == pytest.approx(1.0, rel=1e-12)

    def test_efficiency_requires_torque(self):
        t = np.linspace(0, 5, 51)
        tr = make_traj(t, t, t, np.zeros(51))
        tr.torque = None
        with pytest.raises(MissingTorque):
            phi_efficiency(tr, 10.0)

    def test_bad_rate_limit(self):
        t = np.linspace(0, 1, 11)
        tr = make_traj(t, t, t, np.zeros(11))
        with pytest.raises(ValueError):
            phi_safety(tr, 0.0)


class TestEvaluate:
    def _traj(self):
        t = np.linspace(0, 10, 1001)
        rate = np.radians(0.05) * np.sin(0.5 * t) ** 2
        angle = math.pi + np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (rate[:-1] + rate[1:]))))
        torque = 3.0 * np.cos(0.3 * t)
        return make_traj(t, angle, rate, torque)

    def test_linearity_in_weights(self):
        tr = self._traj()
        wa = ObjectiveWeights(0.2, 0.3, 0.5)
        wb = ObjectiveWeights(0.6, 0.1, 0.3)
        ja, _ = evaluate(wa, tr, CONTEXT)
        jb, _ = evaluate(wb, tr, CONTEXT)
        wc = ObjectiveWeights(0.5 * (0.2 + 0.6), 0.5 * (0.3 + 0.1),
                              0.5 * (0.5 + 0.3))
        jc, _ = evaluate(wc, tr, CONTEXT)
        assert jc == pytest.approx(0.5 * (ja + jb), abs=1e-12)

    def test_homogeneity_in_weights(self):
        tr = self._traj()
        w = ObjectiveWeights(0.2, 0.3, 0.5)
        w3 = ObjectiveWeights(0.6, 0.9, 1.5)
        j1, _ = evaluate(w, tr, CONTEXT)
        j3, _ = evaluate(w3, tr, CONTEXT)
        assert j3 == pytest.approx(3.0 * j1, abs=1e-12)

    def test_row_reproduces_sum(self):
        tr = self._traj()
        w = ObjectiveWeights(0.25, 0.25, 0.5)
        j, row = evaluate(w, tr, CONTEXT)
        manual = (0.25 * row.phi_safety + 0.25 * row.phi_stability
                  + 0.5 * row.phi_efficiency)
        assert j == pytest.approx(manual, abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(-0.1, 0.6, 0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(0.0, 0.0, 0.0)


class TestSimplexGrid:
    def test_count_resolution_2(self):
        assert len(simplex_grid(2)) == 6

    def test_count_resolution_4(self):
        assert len(simplex_grid(4)) == 15

    def test_count_formula(self):
        for n in range(2, 9):
            assert len(simplex_grid(n)) == (n + 1) * (n + 2) // 2

    def test_rows_sum_to_one(self):
        for w in simplex_grid(5):
            assert sum(w.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_lexicographic_order(self):
        tuples = [w.as_tuple() for w in simplex_grid(3)]
        assert tuples == sorted(tuples)

    def test_no_duplicates(self):
        tuples = [w.as_tuple() for w in simplex_grid(6)]
        assert len(set(tuples)) == len(tuples)

    def test_resolution_guard(self):
        with pytest.raises(OutOfDomain, match="<= 1000"):
            simplex_grid(1)

    def test_resolution_bound_before_allocating(self):
        # C(10**9 + 2, 2) rows would never fit; the bound raises at once
        for resolution in (objective.MAX_RESOLUTION + 1, 10 ** 9):
            with pytest.raises(OutOfDomain, match="<= 1000"):
                simplex_grid(resolution)

    @pytest.mark.parametrize("resolution, error", [
        (1, OutOfDomain), (objective.MAX_RESOLUTION + 1, OutOfDomain)])
    def test_check_resolution_is_the_grid_bound(self, resolution, error):
        objective.check_resolution(2)
        objective.check_resolution(objective.MAX_RESOLUTION)
        with pytest.raises(error):
            objective.check_resolution(resolution)


class TestWeightSweep:
    def _traj(self):
        t = np.linspace(0, 10, 1001)
        rate = np.radians(0.05) * np.sin(0.5 * t) ** 2
        angle = math.pi + np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(t) * (rate[:-1] + rate[1:]))))
        return make_traj(t, angle, rate, 3.0 * np.cos(0.3 * t))

    def test_row_count(self):
        report = weight_sweep(4, self._traj(), CONTEXT)
        assert len(report.rows) == 15

    def test_argmin_is_minimum(self):
        report = weight_sweep(5, self._traj(), CONTEXT)
        k = int(np.argmin(report.rows[:, 6]))
        assert report.argmin.J == report.rows[:, 6].min() == report.rows[k, 6]
        assert report.argmin.weights.as_tuple() == tuple(report.rows[k, :3])

    def test_argmin_puts_weight_on_smallest_functional(self):
        tr = self._traj()
        _, row = evaluate(ObjectiveWeights(1, 0, 0), tr, CONTEXT)
        phis = {"w_safety": row.phi_safety, "w_stability": row.phi_stability,
                "w_efficiency": row.phi_efficiency}
        best = min(phis, key=phis.get)
        report = weight_sweep(4, tr, CONTEXT)
        assert getattr(report.argmin.weights, best) == pytest.approx(1.0)

    def test_reduced_base_increases_safety_cost(self):
        ref = traj.synth_second_order(13.85, 64.5, 225.0, 0.01)
        gains = smsdyn.PdGains(kp=2000.0, kd=20000.0, torque_limit=10.0)
        full = smsdyn.simulate_pd(smsdyn.ets7_params(), ref, gains, dt=0.01,
                                  joint_angle0=0.0)
        p = smsdyn.ets7_params()
        reduced = smsdyn.simulate_pd(replace(p, base_inertia=p.base_inertia / 20.0),
                                     ref, gains, dt=0.01, joint_angle0=0.0)
        assert phi_safety(reduced, CONTEXT.rate_limit) > \
            phi_safety(full, CONTEXT.rate_limit)


class TestReportCsv:
    def test_layout(self):
        t = np.linspace(0, 10, 101)
        rate = np.radians(0.05) * np.ones(101)
        tr = make_traj(t, math.pi + 0.001 * t, rate, np.ones(101))
        report = weight_sweep(4, tr, CONTEXT)
        buf = io.StringIO()
        write_report_csv(report, buf)
        lines = buf.getvalue().splitlines()
        defs = [ln for ln in lines if ln.startswith("# ") and ":" in ln]
        assert len(defs) >= 3
        header_idx = lines.index("w_safety,w_stability,w_efficiency,"
                                 "phi_safety,phi_stability,phi_efficiency,J")
        data = [ln for ln in lines[header_idx + 1:] if not ln.startswith("#")]
        assert len(data) == 15
        assert lines[-1].startswith("# argmin,")
