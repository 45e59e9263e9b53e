import contextlib
import faulthandler
import os
import signal

import pytest

TIME_LIMIT_S = 120  # far above the slowest test, perfbench's traced smoke test at about 6 s
BACKSTOP_S = 30  # then the process ends, where a C call that never returns holds off the alarm


class TimeLimitExceeded(BaseException):
    """A test ran over TIME_LIMIT_S.

    Not an Exception: hypothesis takes an Exception (or pytest's own failure)
    as a failing example and goes on shrinking, so an example that never ends
    would run again and again; this one ends the test, which pytest reports
    as failed.
    """


@pytest.fixture(scope="session")
def _stderr(pytestconfig):
    """The stderr pytest started with, past its output capture, where the
    backstop's traceback is seen though the process ends."""
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        fd = os.dup(2)
    with open(fd, "w") as stderr:
        yield stderr


@pytest.fixture(autouse=True)
def _time_limit(_stderr):
    """Fail a test that runs over TIME_LIMIT_S instead of hanging the suite,
    and end the process with every thread's traceback BACKSTOP_S later."""
    def over(signum, frame):
        raise TimeLimitExceeded(f"test ran over {TIME_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    faulthandler.dump_traceback_later(TIME_LIMIT_S + BACKSTOP_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)
