"""Forward evaluation of the three-term behavioral cost on simulated
trajectories and enumeration of the weight simplex."""

from dataclasses import dataclass

import numpy as np

from .errors import MissingTorque, OutOfDomain, TooShort
from .traj import format_rows

# numpy < 2.0 names the same trapezoid rule np.trapz.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

#: Largest simplex resolution: C(1002, 2) = 501 501 weight rows.
MAX_RESOLUTION = 1000

FUNCTIONAL_DEFINITIONS = {
    "phi_safety": "peak |base rate| / rate limit",
    "phi_stability": ("|terminal base angle - target| / pi"
                      " + mean |base rate| / peak |base rate|"),
    "phi_efficiency": "integral of tau^2 dt / (torque_limit^2 * duration)",
}


@dataclass(frozen=True)
class ObjectiveWeights:
    w_safety: float
    w_stability: float
    w_efficiency: float

    def __post_init__(self):
        if min(self.w_safety, self.w_stability, self.w_efficiency) < 0:
            raise ValueError("weights must be non-negative")
        if self.w_safety + self.w_stability + self.w_efficiency <= 0:
            raise ValueError("weights must not all be zero")

    def as_tuple(self):
        return (self.w_safety, self.w_stability, self.w_efficiency)


@dataclass(frozen=True)
class ObjectiveContext:
    """Normalization constants the functionals need."""

    rate_limit: float
    base_angle_target: float
    torque_limit: float


@dataclass
class ObjectiveRow:
    weights: ObjectiveWeights
    phi_safety: float
    phi_stability: float
    phi_efficiency: float
    J: float


@dataclass
class ObjectiveReport:
    rows: np.ndarray  # (C(n+2, 2), 7): the CSV's columns, w_safety to J
    argmin: ObjectiveRow  # the first row of least J


def _duration(traj):
    """The run's time span; TooShort for a run of zero duration."""
    duration = float(traj.times[-1] - traj.times[0])
    if not duration > 0:
        raise TooShort("a run of zero duration cannot be scored")
    return duration


def phi_safety(traj, rate_limit):
    """Fraction of the base-rate safety budget consumed; may exceed 1."""
    if rate_limit <= 0:
        raise ValueError("rate_limit must be positive")
    return float(np.max(np.abs(traj.base_rate))) / rate_limit


def phi_stability(traj, base_angle_target):
    """Terminal pointing error (per pi) plus normalized mean base motion.

    Zero only when the base sits motionless at the target.
    """
    duration = _duration(traj)
    terminal = abs(float(traj.base_angle[-1]) - base_angle_target) / np.pi
    peak = float(np.max(np.abs(traj.base_rate)))
    if peak == 0.0:
        return terminal
    motion = float(_trapezoid(np.abs(traj.base_rate), traj.times)) / duration
    return terminal + motion / peak


def phi_efficiency(traj, torque_limit):
    """Torque-squared integral normalized by the saturated-torque budget."""
    if traj.torque is None:
        raise MissingTorque("trajectory carries no torque series")
    duration = _duration(traj)
    integral = float(_trapezoid(traj.torque ** 2, traj.times))
    return integral / (torque_limit ** 2 * duration)


def evaluate(weights, traj, context):
    """Weighted sum of the three functionals; returns (J, row)."""
    ps = phi_safety(traj, context.rate_limit)
    pst = phi_stability(traj, context.base_angle_target)
    pe = phi_efficiency(traj, context.torque_limit)
    J = weights.w_safety * ps + weights.w_stability * pst + weights.w_efficiency * pe
    return J, ObjectiveRow(weights, ps, pst, pe, J)


def check_resolution(resolution):
    """Raise OutOfDomain unless 2 <= resolution <= MAX_RESOLUTION."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise OutOfDomain(f"grid resolution must be >= 2 and <= {MAX_RESOLUTION}, "
                          f"got {resolution}")


def _grid(n):
    """(C(n+2, 2), 3) weights (i/n, j/n, (n-i-j)/n) over i, then j, ascending."""
    check_resolution(n)
    i, c = np.triu_indices(n + 1)
    return np.column_stack((i, c - i, n - c)) / n


def simplex_grid(resolution):
    """All weight triples with components in {0, 1/n, ..., 1} summing to 1,
    in lexicographic order. Count is C(n+2, 2); see `check_resolution`."""
    return [ObjectiveWeights(*w) for w in _grid(resolution).tolist()]


def weight_sweep(resolution, traj, context):
    """Evaluate the cost over the weight simplex, in `evaluate`'s arithmetic."""
    W = _grid(resolution)
    phi = (phi_safety(traj, context.rate_limit),
           phi_stability(traj, context.base_angle_target),
           phi_efficiency(traj, context.torque_limit))
    J = W[:, 0] * phi[0] + W[:, 1] * phi[1] + W[:, 2] * phi[2]
    k = int(np.argmin(J))
    return ObjectiveReport(
        np.column_stack((W, np.broadcast_to(phi, W.shape), J)),
        ObjectiveRow(ObjectiveWeights(*W[k].tolist()), *phi, float(J[k])))


def write_report_csv(report, stream):
    """Emit the sweep rows plus an argmin footer."""
    for name, definition in sorted(FUNCTIONAL_DEFINITIONS.items()):
        stream.write(f"# {name}: {definition}\n")
    stream.write("w_safety,w_stability,w_efficiency,"
                 "phi_safety,phi_stability,phi_efficiency,J\n")
    stream.writelines(format_rows("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                                  report.rows.T))
    a = report.argmin
    stream.write("# argmin,%.9g,%.9g,%.9g,J=%.9g\n" % (*a.weights.as_tuple(), a.J))
