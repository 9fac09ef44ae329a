import pytest
from hypothesis import settings

from gridsec.network import build_ieee14

# Property tests run the same examples on every run and keep no example
# database (hypothesis still caches the literals it reads from source files
# under .hypothesis/, which git ignores); each example is a sweep plus
# serial solves, so the example count stays low.
settings.register_profile(
    "gridsec", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("gridsec")


@pytest.fixture(scope="module")
def ieee14():
    return build_ieee14()
