import pytest

import phasekit.fisher


@pytest.fixture(autouse=True)
def _no_threads_from_the_shell(monkeypatch):
    # The CLI reads its --threads default from PHASEKIT_THREADS; a value in
    # the caller's shell must not decide a test.  Tests of the variable set it.
    monkeypatch.delenv("PHASEKIT_THREADS", raising=False)


@pytest.fixture(autouse=True)
def _cold_crb_prices():
    # fisher keeps every CRB price it computes for the life of the process;
    # a test that counts Fisher grids must not see the prices that the tests
    # before it computed.
    phasekit.fisher._PRICES.clear()


@pytest.fixture
def grids(monkeypatch) -> list[tuple[str, int]]:
    """(window, N) of every Fisher grid computed during the test."""
    computed = []
    shared = phasekit.fisher._fisher

    def counted(windows, phases):
        computed.extend((w.kind, w.n_points) for w in windows)
        return shared(windows, phases)

    monkeypatch.setattr(phasekit.fisher, "_fisher", counted)
    return computed
