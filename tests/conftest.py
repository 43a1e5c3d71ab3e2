import pytest
from hypothesis import HealthCheck, settings

from permrank import PrimeField, Rationals
from permrank._batch import bounded_prk_table

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def F3():
    return PrimeField(3)


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def Q():
    return Rationals()


@pytest.fixture
def release_tables():
    """Drop the cached enumeration tables afterwards: at n = 4 they are large."""
    yield
    bounded_prk_table.cache_clear()
