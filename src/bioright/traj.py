"""Angle-trajectory utilities: differentiation, smoothing, time-scaling,
step-response characterization, a second-order surrogate generator used
as the canonical reference input for simulation, CSV row blocks, and the
text readers of every input file: the whole text of a file or stream, and
the lines of a text file, in blocks."""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadWindow, NoStep, OutOfDomain, ParseError, TooShort, Unreachable

#: Tolerance on grid uniformity: GRID_TOL seconds plus GRID_RTOL max|t|, as
#: times written with %.9g are off by <= 5e-9 |t| and two steps by <= 2e-8 max|t|.
GRID_TOL, GRID_RTOL = 1e-9, 2e-8

#: Minimum step magnitude for metrics, radians.
STEP_EPS = 1e-12

#: Half-width of the settling band, as a fraction of the step.
SETTLE_BAND = 0.05

#: Most samples a time grid may hold: 10 000 s at 1 kHz.
MAX_SAMPLES = 10_000_000

#: Rows per formatting call of `format_rows`, which bounds its memory.
WRITE_BLOCK = 1024

#: Characters per read of `_line_blocks`, which bounds memory.
READ_BLOCK = 1 << 16


@dataclass
class JointTrajectory:
    """Angle (and optionally rate) sampled on a uniform time grid; angle
    and rate must be finite in degrees, the unit they are written in."""

    times: np.ndarray
    angle: np.ndarray
    rate: np.ndarray = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.angle = np.asarray(self.angle, dtype=float)
        if self.rate is not None:
            self.rate = np.asarray(self.rate, dtype=float)
        with np.errstate(over="ignore"):
            checks = (("times contain", self.times), ("angle contains", np.degrees(self.angle)),
                      ("rate contains", None if self.rate is None else np.degrees(self.rate)))
        for label, x in checks:
            if x is not None and not np.all(np.isfinite(x)):
                raise ValueError(f"{label} non-finite values")
        if len(self.times) >= 2:
            # a finite extent keeps every difference of two times finite
            first, last = float(self.times.min()), float(self.times.max())
            if not math.isfinite(last - first):
                raise ValueError(f"time span from {first:g} to {last:g} s overflows a float")
            steps = np.diff(self.times)
            if not steps.min() > 0:
                raise ValueError("time grid must increase")
            tol = GRID_TOL + GRID_RTOL * np.max(np.abs(self.times))
            if np.max(np.abs(steps - steps[0])) > tol:
                raise ValueError("time grid is not uniform")

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])


@dataclass
class StepResponseMetrics:
    rise_time: float
    settling_time: float
    overshoot: float  # percent
    final_value: float
    steady_assumed_at: float
    metadata: dict = field(default_factory=dict)

    def as_dict(self):
        return {"rise_time_s": self.rise_time,
                "settling_time_s": self.settling_time,
                "overshoot_pct": self.overshoot,
                "final_value_rad": self.final_value,
                "steady_assumed_at_s": self.steady_assumed_at,
                **self.metadata}


def differentiate(traj):
    """Populate the rate field with central differences (one-sided at ends)."""
    if len(traj.times) < 3:
        raise TooShort("need >= 3 samples to differentiate")
    with np.errstate(all="ignore"):  # JointTrajectory refuses a rate that is not finite
        rate = np.gradient(traj.angle, traj.times, edge_order=2)
    return replace(traj, rate=rate)


def smooth(traj, window):
    """Centered moving average; endpoints use shrinking windows."""
    n = len(traj.angle)
    if window % 2 == 0 or not 1 <= window <= n:
        raise BadWindow(f"window must be odd and <= {n}, got {window}")
    x, half = traj.angle, window // 2
    out = np.empty(n)
    out[half:n - half] = sliding_window_view(x, window).mean(axis=1)
    for i in [*range(half), *range(n - half, n)]:
        k = min(i, n - 1 - i)  # keep the endpoint windows centered
        out[i] = np.mean(x[i - k:i + k + 1])
    return replace(traj, angle=out, rate=None)


def time_scale(traj, target_duration):
    """Stretch the time axis to target_duration; rates divide by the factor."""
    if not 0 < target_duration < math.inf:
        raise OutOfDomain(f"target_duration must be finite and positive, got {target_duration}")
    if traj.duration <= 0:
        raise TooShort("trajectory duration must be positive to scale")
    k = target_duration / traj.duration
    with np.errstate(all="ignore"):  # JointTrajectory refuses a value that is not finite
        times = traj.times * k
        rate = None if traj.rate is None else traj.rate / k
    return JointTrajectory(times, traj.angle.copy(), rate)


def _first_crossing(times, y, level):
    """First time y crosses level going up, linearly interpolated."""
    above = y >= level
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    y0, y1 = y[i - 1], y[i]
    return float(t0 + (level - y0) / (y1 - y0) * (t1 - t0))


def step_metrics(traj, steady_time):
    """Characterize a step response.

    Rise time is the 10-90% interval; settling time is the last time the
    signal exits the +/-SETTLE_BAND * |step| band around the final value;
    overshoot is the peak excursion beyond the final value in percent of
    the step.
    """
    if steady_time < traj.times[0] or steady_time > traj.times[-1]:
        raise OutOfDomain("steady_time outside the trajectory span")
    initial = float(traj.angle[0])
    final = float(np.interp(steady_time, traj.times, traj.angle))
    step = final - initial
    if abs(step) < STEP_EPS:
        raise NoStep("initial and final values coincide")
    y = (traj.angle - initial) / step  # normalized response, final -> 1
    t10 = _first_crossing(traj.times, y, 0.1)
    t90 = _first_crossing(traj.times, y, 0.9)
    if t10 is None or t90 is None:
        raise NoStep("response never traverses the 10-90% band")
    rise = t90 - t10
    outside = np.abs(y - 1.0) > SETTLE_BAND
    if outside.any():
        i = int(np.max(np.nonzero(outside)))
        if i + 1 < len(y):
            # interpolate the re-entry into the band
            lvl = 1.0 + SETTLE_BAND * np.sign(y[i] - 1.0)
            t0, t1 = traj.times[i], traj.times[i + 1]
            y0, y1 = y[i], y[i + 1]
            settle = float(t0 + (lvl - y0) / (y1 - y0) * (t1 - t0))
        else:
            settle = float(traj.times[i])
    else:
        settle = float(traj.times[0])
    overshoot = max(0.0, float(y.max()) - 1.0) * 100.0
    return StepResponseMetrics(rise, settle, overshoot, final,
                               float(steady_time),
                               metadata={"rise_convention": "10-90%",
                                         "settle_band": SETTLE_BAND,
                                         "settle_semantics": "last-exit"})


def damping_from_overshoot(overshoot_pct):
    """Damping ratio of a 2nd-order system from its percent overshoot."""
    if not (0 < overshoot_pct < 100):
        raise Unreachable("overshoot must be in (0, 100) percent")
    ln_os = np.log(overshoot_pct / 100.0)
    return -ln_os / np.sqrt(np.pi ** 2 + ln_os ** 2)


def _step_response(t, zeta, wn):
    """Analytic unit-step response of an underdamped 2nd-order system."""
    wd = wn * np.sqrt(1 - zeta ** 2)
    phi = np.arccos(zeta)
    return 1.0 - np.exp(-zeta * wn * t) / np.sqrt(1 - zeta ** 2) * np.sin(wd * t + phi)


def _analytic_rise(zeta, wn):
    """10-90% rise time of the analytic response, refined by bisection."""
    t = np.linspace(0.0, 12.0 / wn, 40001)
    y = _step_response(t, zeta, wn)

    def crossing(level):
        i = int(np.argmax(y >= level))
        lo, hi = t[i - 1], t[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _step_response(mid, zeta, wn) >= level:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return crossing(0.9) - crossing(0.1)


def synth_second_order(overshoot_pct, rise_time, duration, dt):
    """Underdamped 2nd-order step response matching an overshoot and a
    10-90% rise time, scaled to a 0 -> pi excursion.

    With zeta fixed the response is a function of omega_n t alone, so the
    rise time scales exactly as 1/omega_n: omega_n = rise(zeta, 1) / rise_time.
    """
    zeta = damping_from_overshoot(overshoot_pct)
    if rise_time <= 0 or duration <= rise_time:
        raise Unreachable("need 0 < rise_time < duration")
    wn = _analytic_rise(zeta, 1.0) / rise_time
    times = time_grid(0.0, duration, dt)
    y = _step_response(times, zeta, wn)
    wd = wn * np.sqrt(1 - zeta ** 2)
    ydot = (wn / np.sqrt(1 - zeta ** 2)) * np.exp(-zeta * wn * times) * np.sin(wd * times)
    return JointTrajectory(times, np.pi * y, np.pi * ydot)


def time_grid(t0, span, dt):
    """t0 + dt * k for k = 0..round(span / dt). Raises OutOfDomain for a dt
    that is not finite and positive or a grid of more than MAX_SAMPLES."""
    if not 0 < dt < math.inf:
        raise OutOfDomain(f"dt must be finite and positive, got {dt:g}")
    if not span / dt <= MAX_SAMPLES - 1:  # before round(): 1e-320 makes it inf
        raise OutOfDomain(f"{span:g} s at dt = {dt:g} s exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    return t0 + np.arange(int(round(span / dt)) + 1) * dt


def format_rows(row_format, columns):
    """Yield `row_format % row` for each row of the columns, as one string
    per WRITE_BLOCK rows; cells are Python floats, so `%r` is `repr`."""
    for start in range(0, len(columns[0]), WRITE_BLOCK):
        block = np.column_stack([c[start:start + WRITE_BLOCK] for c in columns])
        yield (row_format * len(block)) % tuple(block.ravel().tolist())


def _as_text(source):
    """The whole file as one UTF-8 str, less a leading BOM; \\r\\n and \\r end lines."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return _as_text(f)
    data = source.read()
    data = (data.decode() if isinstance(data, bytes) else data).removeprefix("\ufeff")
    if "\r" in data:  # a test is 25x faster than a replace that finds nothing
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    if (nul := data.find("\0")) >= 0:  # numpy drops a trailing NUL from a text field
        raise ParseError("line %d: NUL character" % (data.count("\n", 0, nul) + 1))
    return data


def _line_blocks(f):
    """The lines of a text file, one list per READ_BLOCK characters, a line that
    spans blocks joined once; a NUL raises a ParseError that a whole read replaces."""
    head = []
    while block := f.read(READ_BLOCK):
        if "\0" in block:
            raise ParseError("NUL character")
        lines = block.split("\n")
        head.append(lines[0])
        if len(lines) > 1:
            lines[0], head = "".join(head), [lines.pop()]
            yield lines
    yield ["".join(head)]


def write_trajectory_csv(traj, stream):
    """Emit `t,angle_deg,rate_deg_s`."""
    stream.write("t,angle_deg,rate_deg_s\n")
    rate = traj.rate if traj.rate is not None else np.full(len(traj.times), np.nan)
    stream.writelines(format_rows("%.9g,%.9g,%.9g\n", (
        traj.times, np.degrees(traj.angle), np.degrees(rate))))


def read_trajectory_csv(source):
    """`t,angle_deg,rate_deg_s` rows of a path or stream in one parse; all-NaN
    rates read as none."""
    lines = [ln for ln in _as_text(source).split("\n") if ln.strip()]
    if not lines or lines[0].strip() != "t,angle_deg,rate_deg_s":
        raise ValueError("expected header t,angle_deg,rate_deg_s")
    if len(lines) < 2:
        raise TooShort("trajectory CSV has no data rows")
    data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 columns, got {data.shape[1]}")
    rate = None if np.all(np.isnan(data[:, 2])) else np.radians(data[:, 2])
    return JointTrajectory(data[:, 0], np.radians(data[:, 1]), rate)
