import pytest

from hexmg import clustering


@pytest.fixture
def torus_table(monkeypatch):
    """Make ``clustering._torus_silenced`` return the given table, the one
    silencing ``silenced_sectors`` and ``clusters`` read.  The
    ``fast_pattern`` cache is emptied on both sides, so no entry built from
    the patched table outlives the test."""
    def patch(table):
        clustering.fast_pattern.cache_clear()
        monkeypatch.setattr(clustering, "_torus_silenced", lambda t: table)

    yield patch
    clustering.fast_pattern.cache_clear()
