import pytest

from lanempc import MpcConfig, VehicleParams

from shipped import load_scenario


@pytest.fixture(scope="session")
def params():
    return VehicleParams()


@pytest.fixture(scope="session")
def cfg():
    return MpcConfig()


@pytest.fixture(scope="session")
def static_scenario():
    return load_scenario("static_three_vehicle")


@pytest.fixture(scope="session")
def dynamic_scenario():
    return load_scenario("dynamic_three_vehicle")


@pytest.fixture(scope="session")
def empty_scenario():
    return load_scenario("empty_road")


@pytest.fixture(scope="session")
def small_scenario():
    return load_scenario("single_obstacle")
