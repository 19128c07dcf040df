import signal

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


class SearchTimeout(BaseException):
    """A test ran past its deadline. Not an Exception, so that Hypothesis
    does not take it for a failing example and replay that example, with
    no alarm left, to shrink it."""


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that loops instead of hanging the suite: a colouring
    step whose table leaves its own vertex in the class picks it forever,
    and every test that reaches a certificate runs such a step. The alarm
    spans the whole test, every Hypothesis example included."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise SearchTimeout("a test ran for more than 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
