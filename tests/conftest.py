import pytest
from hypothesis import settings

from twocenter.states import StateBank

# property tests draw from fixed seeds and keep no example database
settings.register_profile("twocenter", derandomize=True, database=None)
settings.load_profile("twocenter")


@pytest.fixture(scope="session")
def bank():
    """Shared cache of solved states; expensive points are reused across
    the whole session (acceptance + unit tests)."""
    return StateBank()
