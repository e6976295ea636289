import pytest

from gdm import robust


@pytest.fixture(autouse=True)
def empty_known_fraction_slot():
    """Start every test with known_fraction's remembered call cleared,
    so that no test's result depends on the tests run before it."""
    robust._last_known_fraction.cache_clear()
