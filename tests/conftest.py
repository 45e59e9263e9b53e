import pathlib
import signal
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dyner.model import ModelParams, derive  # noqa: E402

TIME_LIMIT_S = 120  # far above the slowest test, about 7 s


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs over TIME_LIMIT_S instead of hanging the suite."""
    def over(signum, frame):
        # pytrace=False: a traceback through this frame can crash pytest's
        # report formatter (INTERNALERROR) instead of failing the test
        pytest.fail(f"test ran over {TIME_LIMIT_S} s", pytrace=False)

    old = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def d3():
    return derive(ModelParams(3, 1.0, 1.0))


@pytest.fixture
def d40():
    return derive(ModelParams(40, 1.0, 1.0))
