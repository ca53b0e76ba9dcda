import pytest
from hypothesis import settings

from enflolab.inequalities import (
    approximation_ratio,
    scaled_enflo_ratio,
    scheme_composite_check,
    smoothing_ratio,
)

settings.register_profile("lab", deadline=None, max_examples=25)
settings.load_profile("lab")


@pytest.fixture
def composite():
    """The composite check on (f, k, q, p), built from its three leg reports."""

    def check(f, k, q, p):
        return scheme_composite_check(
            scaled_enflo_ratio(f, q, p),
            approximation_ratio(f, k, q, p),
            smoothing_ratio(f, k, q, p),
        )

    return check
