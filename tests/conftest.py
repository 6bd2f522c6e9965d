"""Shared test harness configuration.

Besides the ``backend`` fixture and a hook that freezes the collected
test tree out of the garbage collector's way, the machinery here is a
per-test watchdog: a stuck worker
pool shutdown (the exact bug class this suite guards against) used to
hang the whole pytest run forever, which on CI reads as a 6-hour
timeout instead of a named failing test.  Every test gets
``REPRO_TEST_TIMEOUT`` seconds (default 120; ``0`` disables); on expiry
the watchdog dumps every thread's traceback and hard-exits, so the log
names the offending test and shows where it was stuck.

A watchdog *thread* (not ``SIGALRM``) on purpose: forked pool workers
inherit the parent's interval timers, so an armed alarm could fire
inside a worker and kill it spuriously; threads do not survive fork.
"""

from __future__ import annotations

import faulthandler
import gc
import os
import sys
import threading

import pytest

DEFAULT_TEST_TIMEOUT_SECONDS = 120.0


def _test_timeout_seconds() -> float:
    try:
        return float(
            os.environ.get("REPRO_TEST_TIMEOUT", DEFAULT_TEST_TIMEOUT_SECONDS)
        )
    except ValueError:
        return DEFAULT_TEST_TIMEOUT_SECONDS


def pytest_collection_finish(session):
    """Park the collected test tree where the collector never looks.

    Collection builds a large, permanent heap (every parametrized
    structure and query).  Left in the young generations it makes the
    first full collection after it a 30-50 ms pause that lands inside
    whichever test happens to cross the threshold, so any test that
    times a short window inherits a pause it did not cause.
    """
    gc.collect()
    gc.freeze()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    seconds = _test_timeout_seconds()
    if seconds <= 0:
        yield
        return

    def _abort() -> None:  # pragma: no cover - only fires on a hang
        sys.stderr.write(
            f"\n\nFATAL: test {item.nodeid} still running after "
            f"{seconds:.0f}s; dumping all thread stacks and aborting "
            "the run (set REPRO_TEST_TIMEOUT to adjust).\n"
        )
        sys.stderr.flush()
        faulthandler.dump_traceback(file=sys.stderr)
        sys.stderr.flush()
        os._exit(70)  # EX_SOFTWARE: distinguishable from pytest's own codes

    watchdog = threading.Timer(seconds, _abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        yield
    finally:
        watchdog.cancel()


@pytest.fixture(params=["numpy", "array"])
def backend(request, monkeypatch):
    """Run the test once per table backend.

    The backend is derived from whether numpy imports, so ``"array"``
    is selected by making the probe fail through the
    ``encoding._import_numpy`` seam (fork-pool workers inherit the
    patched module; cluster worker subprocesses derive their own).
    """
    from repro.structures import encoding

    if request.param == "array":

        def refuse():
            raise ImportError("numpy disabled for this test")

        monkeypatch.setattr(encoding, "_import_numpy", refuse)
        monkeypatch.setattr(encoding, "_numpy_module", encoding._UNPROBED)
    elif not encoding.numpy_available():
        pytest.skip("numpy not importable in this interpreter")
    assert encoding.resolve_backend() == request.param
    return request.param
