import json
import os

import pytest

from shiftdet import problem_config_from_json, solve_chi

try:
    from numpy.exceptions import ComplexWarning
except ImportError:                     # numpy < 1.25
    from numpy import ComplexWarning

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def pytest_configure(config):
    # a complex value cast to real drops its imaginary part silently: any
    # ComplexWarning fails the test that raised it
    config.addinivalue_line(
        "filterwarnings",
        f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return problem_config_from_json(json.load(fh))


@pytest.fixture(scope="session")
def standard_cfg():
    return load_config("standard.json")


@pytest.fixture(scope="session")
def nonintegrable_cfg():
    return load_config("nonintegrable.json")


@pytest.fixture(scope="session")
def trivial_cfg():
    return load_config("trivial.json")


@pytest.fixture(scope="session")
def general_cfg():
    return load_config("general.json")


@pytest.fixture(scope="session")
def standard_chi(standard_cfg):
    # shared across read-only tests; ChiSolution is immutable after solve
    return solve_chi(standard_cfg)


@pytest.fixture(scope="session")
def trivial_chi(trivial_cfg):
    return solve_chi(trivial_cfg)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
