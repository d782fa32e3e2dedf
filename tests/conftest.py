import os
from pathlib import Path

import numpy as np
import pytest

import slicefock
from slicefock import Quaternion


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def src_env():
    """Environment of a child process that imports this checkout's slicefock."""
    src = str(Path(slicefock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def qdist(a: Quaternion, b: Quaternion) -> float:
    return (a - b).modulus()


def random_quat(rng, scale: float = 1.0) -> Quaternion:
    return Quaternion(*rng.uniform(-scale, scale, 4))
