import os
from pathlib import Path

import pytest

import slicefock


@pytest.fixture
def src_env():
    """Environment of a child process that imports this checkout's slicefock."""
    src = str(Path(slicefock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
