import pytest


@pytest.fixture(autouse=True)
def _no_threads_from_the_shell(monkeypatch):
    # The CLI reads its --threads default from PHASEKIT_THREADS; a value in
    # the caller's shell must not decide a test.  Tests of the variable set it.
    monkeypatch.delenv("PHASEKIT_THREADS", raising=False)
