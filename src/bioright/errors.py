"""Exception and warning types shared across the toolkit."""


class BiorightError(Exception):
    """Base class for all toolkit errors."""


class DegenerateAxes(BiorightError):
    """Axis vectors are (near-)zero or (near-)parallel; no frame can be built."""


class GimbalLockWarning(UserWarning):
    """Pitch at +/-90 deg: the roll/yaw split is a convention, not data."""


class MissingKeypoint(BiorightError):
    """A keypoint required by a segment recipe is absent or invisible."""


class ParseError(BiorightError):
    """Malformed input row or token."""


class SchemaError(BiorightError):
    """Input violates the dataset schema (bad id, unknown name, duplicate)."""


class EmptyDataset(BiorightError):
    """No data rows present."""


class TooSparse(BiorightError):
    """Not enough visible samples for the requested computation."""


class AlreadyWorldUnits(BiorightError):
    """Dataset is already in meters; pixel calibration does not apply."""


class NoValidFrames(BiorightError):
    """No frame yields a constructible segment frame."""


class TimeGridMismatch(BiorightError):
    """Two series do not share the same time grid."""


class EmptyWindow(BiorightError):
    """Requested time window contains no samples."""


class TooShort(BiorightError):
    """Trajectory has too few samples."""


class BadWindow(BiorightError):
    """Smoothing window even or too long, or time window start >= end."""


class OutOfDomain(BiorightError):
    """An argument outside the domain of the operation: a non-positive
    duration or step, a steady time outside the span, a non-finite torque."""


class NoStep(BiorightError):
    """Initial and final values coincide; step metrics undefined."""


class Unreachable(BiorightError):
    """Requested step characteristics infeasible for the 2nd-order family."""


class SingularMass(BiorightError):
    """Mass matrix not invertible (cannot occur for valid parameters)."""


class Diverged(BiorightError):
    """Simulation state magnitude exceeded the divergence bound."""


class ModeUnsupported(BiorightError):
    """Operation defined only for the coaxial configuration."""


class MissingTorque(BiorightError):
    """Trajectory carries no torque series."""
