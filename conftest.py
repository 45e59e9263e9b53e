import signal

import pytest

TIME_LIMIT_S = 120  # far above the slowest test, perfbench's traced smoke test at about 6 s


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
