"""Suite-wide fixtures."""

import faulthandler
import os
import sys

import pytest

# far above the slowest test (about 12 s): a test that hangs, say on a local
# search that cycles, ends the run with every thread's traceback
TEST_TIME_LIMIT_S = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # the standard error outside the tests' output capture, which would
    # swallow the traceback of a run that ends
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
