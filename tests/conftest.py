import signal

import pytest
from hypothesis import settings

settings.register_profile("slow_ok", deadline=None)
settings.load_profile("slow_ok")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_limit(seconds): fail the test once its call has run this long "
                   "(a no-op where the platform has no SIGALRM)")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """A kernel fault that makes entries grow turns a test that takes a
    second into one that runs for many minutes; under time_limit it fails
    instead, from a one-shot real-time timer."""
    marker = item.get_closest_marker("time_limit")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = marker.args[0]

    def expire(signum, frame):
        pytest.fail(f"ran past its time limit of {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
