import pytest

from hopfcalc.examples import radford_calculus_instance, torus_calculus_instance


@pytest.fixture(scope="session")
def radford_calc_shared():
    return radford_calculus_instance(2, 2)


@pytest.fixture(scope="session")
def torus_calc_shared():
    return torus_calculus_instance(theta_order=8, window=3)


def find_check(report, identity):
    """The check of report with the given identity; KeyError if there is none."""
    for check in report.checks:
        if check.identity == identity:
            return check
    raise KeyError(identity)
