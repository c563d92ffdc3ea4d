"""Physics and fast-path invariants as hypothesis properties.

Zero-offset PD tracking runs `smsdyn._rk4_track_folded`, the one loop that
`smsdyn` keeps beside the general `_rk4_track`. On every drawn Coaxial
model, gain pair, torque limit, initial base angle and
`traj.synth_second_order` reference, its history must equal the frozen
general loop `oracle_rk4_track` byte for byte (`tobytes`, so the sign of a
zero counts), or it must raise the same class with the same message, which
dates the failing sample. Ranges span the lizard (1e-8 kg m^2) to ETS-VII
(6 200 kg m^2) scales; a zero inertia makes the mass matrix singular, and a
base angle up to DIVERGE_LIMIT lets the base leave the limit first.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from bioright import smsdyn, traj
from bioright.errors import BiorightError
from bioright.smsdyn import DIVERGE_LIMIT, PdGains, SmsParams

from test_fastpaths import oracle_rk4_track

MAX_REF_SAMPLES = 6000


def magnitude(lo, hi):
    """A float drawn log-uniformly from [10**lo, 10**hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


coaxial_models = st.builds(SmsParams, base_mass=magnitude(-4, 4), arm_mass=magnitude(-4, 4),
                           base_inertia=magnitude(-9, 5).map(lambda x: 0.0 if x < 1e-8 else x),
                           arm_inertia_cm=magnitude(-8, 5))
pd_gains = st.builds(PdGains, kp=st.just(0.0) | magnitude(-8, 5),
                     kd=st.just(0.0) | magnitude(-8, 5), torque_limit=magnitude(-8, 3))
base_angles = st.floats(-2 * math.pi, 2 * math.pi) | st.builds(
    math.copysign, st.floats(DIVERGE_LIMIT - 100.0, DIVERGE_LIMIT), st.sampled_from([-1, 1]))


@st.composite
def references(draw):
    """A synth_second_order reference of 2 to MAX_REF_SAMPLES samples, and its dt."""
    rise = draw(magnitude(-2, 2))
    duration = rise * draw(st.floats(1.5, 10.0))
    dt = duration / draw(st.integers(1, MAX_REF_SAMPLES - 1))
    return traj.synth_second_order(draw(st.floats(1.0, 60.0)), rise, duration, dt), dt


@settings(max_examples=150, derandomize=True, deadline=None)
@given(p=coaxial_models, gains=pd_gains, phi0=base_angles, reference=references())
def test_folded_pd_equals_general_loop(p, gains, phi0, reference):
    ref, dt = reference
    assert len(ref.times) <= MAX_REF_SAMPLES
    limit = gains.torque_limit
    args = (p, dt, (phi0, ref.angle[0], 0.0, 0.0), ref.times[0], memoryview(ref.angle),
            memoryview(ref.rate), gains.kp, gains.kd, -limit, limit)
    try:
        want = oracle_rk4_track(*args)
    except BiorightError as exc:
        with pytest.raises(BiorightError) as got:
            smsdyn._rk4_track_folded(*args)
        assert (got.type, str(got.value)) == (type(exc), str(exc))
    else:
        assert smsdyn._rk4_track_folded(*args).tobytes() == want.tobytes()
