import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from twocenter.states import StateBank

# property tests draw from fixed seeds and keep no example database; what
# hypothesis still stores goes to a temporary directory, not the checkout
settings.register_profile("twocenter", derandomize=True, database=None)
settings.load_profile("twocenter")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="twocenter-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def bank():
    """Shared cache of solved states; expensive points are reused across
    the whole session (acceptance + unit tests)."""
    return StateBank()
