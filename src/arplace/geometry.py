"""Task and action parameters in the grasp-model feature frame ("GSM frame").

The frame sits on the table edge at the foot of the perpendicular dropped
from the object. Its x-axis points away from the table, so robot offsets have
dx_rob > 0 when the robot stands clear of the table and the object itself
sits at (-dx_obj, 0). Every scene in the package has its objects on the one
edge x = 0; an object's position along the edge is a lateral shift of its
map (see placemap.sample_boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]; ties at pi resolve to +pi."""
    return math.pi - ((math.pi - a) % TWO_PI)


@dataclass(frozen=True)
class ObjectFeatures:
    """Observable task parameters: edge distance and orientation vs. the
    outward normal through the object."""

    dx_obj: float
    dpsi_obj: float

    def __post_init__(self):
        if not (math.isfinite(self.dx_obj) and self.dx_obj >= 0.0 and math.isfinite(self.dpsi_obj)):
            raise ValueError("object features must be finite, dx_obj non-negative")
        object.__setattr__(self, "dpsi_obj", wrap_angle(self.dpsi_obj))


@dataclass(frozen=True)
class RobotOffset:
    """Controllable action parameters: robot base center in the GSM frame."""

    dx_rob: float
    dy_rob: float

    def __post_init__(self):
        if not (math.isfinite(self.dx_rob) and math.isfinite(self.dy_rob)):
            raise ValueError("robot offset must be finite")
