"""Rigid-segment orientations from animal keypoint tracks, and righting
motions replayed through a free-floating spacecraft-plus-arm simulator.
`import bioright` loads no submodule; `from bioright import X` loads X."""

__version__ = "0.1.0"

__all__ = ["errors", "frames", "keypoints", "objective", "rotmath",
           "smsdyn", "track_quality", "traj", "__version__"]
