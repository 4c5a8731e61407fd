"""Session fixtures over the shared stand-in problems (see stand_ins.py).

Test modules import helpers from ``stand_ins``, not from this file: the
suite also collects ``bench/tests``, whose conftest shares the module name.
"""

import pytest

from stand_ins import cached_a2a, cached_a2a_oracles


@pytest.fixture(scope="session")
def a2a_1e3():
    return cached_a2a(1e-3)


@pytest.fixture(scope="session")
def a2a_1e3_oracles():
    return cached_a2a_oracles(1e-3)


@pytest.fixture(scope="session")
def a2a_1e4():
    return cached_a2a(1e-4)


@pytest.fixture(scope="session")
def a2a_1e4_oracles():
    return cached_a2a_oracles(1e-4)
