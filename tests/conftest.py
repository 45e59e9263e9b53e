import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dyner.model import ModelParams, derive  # noqa: E402


@pytest.fixture
def d3():
    return derive(ModelParams(3, 1.0, 1.0))


@pytest.fixture
def d40():
    return derive(ModelParams(40, 1.0, 1.0))
