"""A watchdog for every test: one that runs too long fails instead of stalling.

Where the platform has ``SIGALRM``, each test arms a one-shot real-time timer.
When it expires, the handler raises :class:`WatchdogTimeout` in the test's
thread, so the test fails with a traceback that shows where it was stuck.
The exception derives from ``BaseException`` so that hypothesis does not
treat it as an ordinary failure and re-run the stuck example while
shrinking.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 60


class WatchdogTimeout(BaseException):
    """A test ran longer than ``TEST_TIME_LIMIT_S`` seconds."""


def _expire(signum, frame):
    raise WatchdogTimeout(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def watchdog():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
