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
