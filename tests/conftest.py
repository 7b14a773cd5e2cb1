import json
import os

import pytest

from shiftdet import problem_config_from_json, solve_chi
from shiftdet.rhp import NearIntervalWarning

try:
    from numpy.exceptions import ComplexWarning
except ImportError:                     # numpy < 1.25
    from numpy import ComplexWarning

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")


def pytest_configure(config):
    # a complex value cast to real drops its imaginary part silently: any
    # ComplexWarning fails the test that raised it
    config.addinivalue_line(
        "filterwarnings",
        f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")


def pytest_collection_modifyitems(config, items):
    # an evaluation inside the degraded-accuracy zone around [a, b] fails
    # the test under this directory that did not ask for it (pytest.warns,
    # warnings.catch_warnings or its own filterwarnings mark, which is
    # applied after this one and so takes precedence)
    near = pytest.mark.filterwarnings(
        f"error::{NearIntervalWarning.__module__}."
        f"{NearIntervalWarning.__qualname__}")
    # so does a floating-point exception numpy reports as a RuntimeWarning
    # (a 0/0, an overflow): it would otherwise leave a nan or inf behind
    fp = pytest.mark.filterwarnings(
        "error:(divide by zero|invalid value|overflow) encountered"
        ":RuntimeWarning")
    for item in items:
        if item.path.is_relative_to(HERE):
            item.add_marker(near, append=False)
            item.add_marker(fp, append=False)


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
