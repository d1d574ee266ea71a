import doctest

import oracles
from slcob import abelian, intmat, kq, msl, operations, partitions, symfun


def test_partition_doctests():
    results = doctest.testmod(partitions)
    assert results.failed == 0 and results.attempted > 0


def test_abelian_doctests():
    results = doctest.testmod(abelian)
    assert results.failed == 0 and results.attempted > 0


def test_symfun_doctests():
    results = doctest.testmod(symfun)
    assert results.failed == 0 and results.attempted > 0


def test_intmat_doctests():
    results = doctest.testmod(intmat)
    assert results.failed == 0 and results.attempted > 0


def test_oracle_doctests():
    results = doctest.testmod(oracles)
    assert results.failed == 0 and results.attempted > 0


def test_operations_doctests():
    results = doctest.testmod(operations)
    assert results.failed == 0 and results.attempted > 0


def test_msl_doctests():
    results = doctest.testmod(msl)
    assert results.failed == 0 and results.attempted > 0


def test_kq_doctests():
    results = doctest.testmod(kq)
    assert results.failed == 0 and results.attempted > 0
