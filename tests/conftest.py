import pytest

from slcob.conner_floyd import ConnerFloyd

TRUNCATION = 12


@pytest.fixture(scope="session")
def cf():
    return ConnerFloyd(TRUNCATION)


@pytest.fixture(scope="session")
def ctx(cf):
    return cf.ctx


@pytest.fixture(scope="session")
def basis(cf):
    return cf.basis
