import pytest
from hypothesis import HealthCheck, settings

from destrada.graphs import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph

settings.register_profile(
    "desk",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@pytest.fixture(scope="session")
def k():
    return complete_graph


@pytest.fixture(scope="session")
def cycle():
    return cycle_graph


@pytest.fixture(scope="session")
def path():
    return path_graph


@pytest.fixture(scope="session")
def star():
    return star_graph


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()
