import math

import pytest
from hypothesis import given, strategies as st

from arplace.geometry import ObjectFeatures, RobotOffset, wrap_angle


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_consistency(a):
    w = wrap_angle(a)
    assert -math.pi <= w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_wrap_angle_identity_inside_range():
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(-3.0) == pytest.approx(-3.0)


def test_object_features_validation():
    with pytest.raises(ValueError):
        ObjectFeatures(dx_obj=-0.01, dpsi_obj=0.0)


def test_robot_offset_validation():
    with pytest.raises(ValueError):
        RobotOffset(dx_rob=float("nan"), dy_rob=0.0)
