import pytest

from reident_risk import fixtures

FULL_QI = ("Age", "Gender", "Country", "Admission Date", "Blood Type")


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
