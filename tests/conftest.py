"""Shared fixtures: the trained pipeline is expensive (seconds), so it is
built once per session and reused; tests that need pristine state build
their own small inputs instead."""

import os
import time

import numpy as np
import pytest

import arplace
from arplace.classifier import default_extraction_grid, train_per_pose
from arplace.shapemodel import train_gsm
from arplace.simworld import (default_object_grid, default_robot_grid,
                              default_world, generate_dataset)

# subprocesses that the tests start import the package from where this
# process found it, also when it came from the pytest pythonpath setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(arplace.__file__)),
                os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def world():
    return default_world(seed=0)


@pytest.fixture(scope="session")
def pipeline(world):
    """Full training pipeline on the default grids, with per-stage timings."""
    t0 = time.perf_counter()
    data = generate_dataset(world, default_object_grid(),
                            default_robot_grid(), seed=42)
    t1 = time.perf_counter()
    svms = train_per_pose(data)
    t2 = time.perf_counter()
    egrid = default_extraction_grid(data.robot_grid)
    gsm = train_gsm(svms, egrid)
    t3 = time.perf_counter()
    return {
        "data": data, "svms": svms, "extraction_grid": egrid, "gsm": gsm,
        "timings": {"data": t1 - t0, "svms": t2 - t1, "gsm": t3 - t2,
                    "total": t3 - t0},
    }


@pytest.fixture(scope="session")
def gsm(pipeline):
    return pipeline["gsm"]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
