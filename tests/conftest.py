import pytest
from hypothesis import HealthCheck, settings

from destrada.graphs import GraphFamily, generate

settings.register_profile(
    "desk",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture(scope="session")
def k():
    return lambda n: generate(GraphFamily("complete", n))


@pytest.fixture(scope="session")
def cycle():
    return lambda n: generate(GraphFamily("cycle", n))


@pytest.fixture(scope="session")
def path():
    return lambda n: generate(GraphFamily("path", n))


@pytest.fixture(scope="session")
def star():
    return lambda n: generate(GraphFamily("star", n))


@pytest.fixture(scope="session")
def petersen():
    return generate(GraphFamily.petersen())
