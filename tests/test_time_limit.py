import pathlib
import subprocess
import sys
import time

CONFTEST = pathlib.Path(__file__).resolve().parents[1] / "conftest.py"

# Run under a copy of the suite's conftest with a 2-s limit and a 1-s backstop.
# The first test's examples never end: the alarm must end the test, not let
# hypothesis go on shrinking.  The second stands for a C call that never
# returns: SIGALRM is blocked, so only the backstop can end the process.
HANGS = '''\
import signal
import time

from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(deadline=None, database=None)
def test_python_example_never_ends(i):
    while True:
        pass


def test_c_call_never_returns():
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    time.sleep(120)
'''


def test_time_limit_ends_a_test_that_never_ends(tmp_path):
    conftest = CONFTEST.read_text()
    for old, new in (("TIME_LIMIT_S = 120", "TIME_LIMIT_S = 2"),
                     ("BACKSTOP_S = 30", "BACKSTOP_S = 1")):
        assert conftest.count(old) == 1
        conftest = conftest.replace(old, new)
    (tmp_path / "conftest.py").write_text(conftest)
    (tmp_path / "test_hangs.py").write_text(HANGS)
    start = time.monotonic()
    runs = [subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              f"test_hangs.py::{name}"], cwd=tmp_path, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for name in ("test_python_example_never_ends", "test_c_call_never_returns")]
    try:
        (python, _), (_, c_err) = [run.communicate(timeout=60) for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert time.monotonic() - start < 30
    assert runs[0].returncode == 1
    assert "1 failed" in python and "TimeLimitExceeded: test ran over 2 s" in python
    assert runs[1].returncode == 1
    assert "Timeout (0:00:03)!" in c_err and "in test_c_call_never_returns" in c_err
