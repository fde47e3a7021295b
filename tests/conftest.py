"""Shared fixtures.

The expensive artifacts (the Painleve II solution, the two droplets the
exterior asymptotics are tested on, the verification-report run) are
session scoped so the suite pays for each of them once.
"""

import pytest

from coulombgas import geometry, painleve, report


@pytest.fixture(scope="session")
def hm_solution():
    return painleve.hastings_mcleod()


@pytest.fixture(scope="session")
def pre_geom():
    return geometry.droplet(1.2, 1.0)


@pytest.fixture(scope="session")
def post_geom():
    return geometry.droplet(0.2, 1.0)


@pytest.fixture(scope="session")
def acceptance_results():
    results = report.run_checks()
    return {result.key: result for result in results}
