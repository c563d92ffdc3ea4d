"""Exception and warning types shared across the toolkit."""


class BiorightError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""
    exit_code = 4


class DegenerateAxes(BiorightError):
    """Axis vectors are (near-)zero or (near-)parallel; no frame can be built."""


class GimbalLockWarning(UserWarning):
    """Pitch at +/-90 deg: the roll/yaw split is a convention, not data."""


class MissingKeypoint(BiorightError):
    """A keypoint required by a segment recipe is absent or invisible."""


class ParseError(BiorightError):
    """Malformed input row or token."""
    exit_code = 2


class SchemaError(BiorightError):
    """Input violates the dataset schema (bad id, unknown name, duplicate)."""
    exit_code = 2


class EmptyDataset(BiorightError):
    """No data rows present."""
    exit_code = 3


class TooSparse(BiorightError):
    """Not enough visible samples for the requested computation."""
    exit_code = 3


class AlreadyWorldUnits(BiorightError):
    """Dataset is already in meters; pixel calibration does not apply."""


class NoValidFrames(BiorightError):
    """No frame yields a constructible segment frame."""
    exit_code = 3


class TimeGridMismatch(BiorightError):
    """Two series do not share the same time grid."""


class EmptyWindow(BiorightError):
    """Requested time window contains no samples."""


class TooShort(BiorightError):
    """Trajectory has too few samples."""
    exit_code = 3


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
    """Mass matrix not invertible, as for a Coaxial model whose base or arm has no inertia."""


class Diverged(BiorightError):
    """Simulation state magnitude exceeded the divergence bound."""
    exit_code = 5


class ModeUnsupported(BiorightError):
    """Operation defined only for the coaxial configuration."""


class MissingTorque(BiorightError):
    """Trajectory carries no torque series."""
