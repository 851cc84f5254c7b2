import pytest

from reident_risk import fixtures
from reident_risk.metrics import CodedTable, Partition

FULL_QI = ("Age", "Gender", "Country", "Admission Date", "Blood Type")


def partition(dataset, qi_set):
    """The metric primitive for one quasi-identifier set of a table."""
    return Partition(CodedTable(dataset), qi_set)


@pytest.fixture(scope="session")
def initial():
    return fixtures.fixture_dataset("initial")


@pytest.fixture(scope="session")
def kanon():
    return fixtures.fixture_dataset("kanon")


@pytest.fixture(scope="session")
def hipaa():
    return fixtures.fixture_dataset("hipaa")


@pytest.fixture(scope="session")
def reference_meta():
    return fixtures.fixture_metadata()
