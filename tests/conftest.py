import pytest

from latcurve import build_model, get, get_entry


@pytest.fixture(scope="session")
def model_of():
    """Session-cached builder for catalog germs; heavy grids are shared
    across tests (models are immutable values: growing one returns a new
    model, and grid arrays are read-only)."""
    cache = {}

    def factory(name, *params):
        key = (name,) + tuple(params)
        if key not in cache:
            cache[key] = build_model(get(name, *params))
        return cache[key]

    return factory


@pytest.fixture(scope="session")
def entry_of():
    def factory(name, *params):
        return get_entry(name, *params)

    return factory


@pytest.fixture(scope="session")
def report_of(model_of):
    """Session-cached lattice homology reports."""
    from latcurve import lattice_homology

    cache = {}

    def factory(name, *params):
        key = (name,) + tuple(params)
        if key not in cache:
            cache[key] = lattice_homology(model_of(name, *params).weight)
        return cache[key]

    return factory


@pytest.fixture
def cold_memos():
    """Empty the two process-wide memos, the subcurve map of ``germ`` and
    the E1 ranks of ``spectral``, so that the test sees first builds and
    first reductions whatever ran before it, and again after it, so that
    nothing a patched test memoized outlives it; the test may call the
    returned function to empty them in between."""
    from latcurve import germ, spectral

    def clear():
        germ._SUBCURVES.clear()
        spectral._rank.cache_clear()

    clear()
    yield clear
    clear()
