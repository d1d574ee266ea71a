"""The immutable records: value semantics of every record class, their
checks under `python -O`, and a cold `import slcob.cli` that loads no
dataclasses."""

import os
import subprocess
import sys

import pytest

from slcob.abelian import FGAbGroup
from slcob.charnum import VarietyClass
from slcob.intmat import IntMatrix
from slcob.kq import KQElement
from slcob.msl import MSLAnswer
from slcob.mu import MUClass
from slcob.operations import CohOperation
from slcob.record import Record
from slcob.witt import FieldDescriptor, WittRing

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _run(*args):
    return subprocess.run([sys.executable, *args], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC)).stdout


def _samples():
    """(class, field names, field values) for every record class; the
    values are built afresh on each call, so two calls give equal but
    distinct objects."""
    field = FieldDescriptor("quadratically_closed", 1)
    z, z2 = FGAbGroup(1, (), frozenset()), FGAbGroup(0, (2,), frozenset())
    return [
        (FGAbGroup, ("free_rank", "invariant_factors", "inverted_primes"),
         (1, (2, 6), frozenset([5]))),
        (IntMatrix, ("rows", "cols", "entries"), (2, 2, ((1, 2), (3, 4)))),
        (MUClass, ("degree", "terms"), (2, ((4, 1), (9, -3)))),
        (CohOperation, ("name", "shift", "omega", "log_coeffs"),
         ("s(1,)", 1, (1,), ())),
        (VarietyClass, ("description", "dimension", "tangent_numbers",
                        "mu_class", "calabi_yau"),
         ("point", 0, (((), 1),), MUClass(0, ((1, 1),)), False)),
        (KQElement, ("degree", "coeff"), (0, (1, 0))),
        (MSLAnswer, ("field", "n", "group", "ideal_part", "msu_free",
                     "msu_torsion", "provenance"),
         (field, 2, z, z2, z, z2, ("computed",))),
        (FieldDescriptor, ("kind", "exponential_characteristic"),
         ("finite_q1", 5)),
        (WittRing, ("field", "gw", "w"), (field, z, z2)),
    ]


CLASSES = [cls for cls, _, _ in _samples()]


def _sample(cls):
    return next((names, values) for c, names, values in _samples()
                if c is cls)


def _twin(cls):
    """A record class of its own with the same field names."""
    return type("Twin", (Record,), {"__slots__": cls._fields})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_tuple_hashes(cls):
    names, values = _sample(cls)
    a, b = cls(*values), cls(*_sample(cls)[1])
    assert cls._fields == names
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1
    assert cls(**dict(zip(names, values))) == a


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_other_classes_and_tuples_are_unequal(cls):
    _, values = _sample(cls)
    record = cls(*values)
    assert record != _twin(cls)(*values) and _twin(cls)(*values) != record
    assert record != values and values != record
    assert record != tuple(values)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values = _sample(cls)
    record = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.other = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_lists_the_fields(cls):
    names, values = _sample(cls)
    assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % nv for nv in zip(names, values)))


def test_defaults():
    assert FGAbGroup() == FGAbGroup(0, (), frozenset())
    assert FGAbGroup(free_rank=1) == FGAbGroup(1, (), frozenset())
    assert FGAbGroup(invariant_factors=(3,)).free_rank == 0
    assert FieldDescriptor("real_closed") \
        == FieldDescriptor("real_closed", 1)
    op = CohOperation("x", 2)
    assert (op.omega, op.log_coeffs) == ((), ())


@pytest.mark.parametrize("args, kwargs", [
    ((1, (), frozenset(), 4), {}),
    ((1,), {"free_rank": 2}),
    ((), {"rank": 1}),
])
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="free_rank, invariant_factors"):
        FGAbGroup(*args, **kwargs)


def test_missing_fields_are_a_type_error():
    with pytest.raises(TypeError):
        FieldDescriptor()
    with pytest.raises(TypeError):
        KQElement(1)
    with pytest.raises(TypeError):
        MUClass(1)


def test_group_prints_its_normal_form():
    group = FGAbGroup.from_divisors([0, 2, 2, 4])
    assert str(group) == "Z + (Z/2)^2 + Z/4"
    assert "got %s" % group == "got Z + (Z/2)^2 + Z/4"
    assert "%s" % FGAbGroup() == "0"


def test_operation_hash_is_its_field_tuple_hash():
    op = CohOperation(*_sample(CohOperation)[1])
    assert hash(op) == hash(_sample(CohOperation)[1])


@pytest.mark.parametrize("args, message", [
    ((-1,), "negative free rank"),
    ((0, (1,)), "not a chain"),
    ((0, (4, 2)), "not a chain"),
    ((0, (2, 3)), "not a chain"),
    ((0, (3,), frozenset([3])), "inverted prime"),
])
def test_group_checks(args, message):
    with pytest.raises(ValueError, match=message):
        FGAbGroup(*args)


def test_adding_classes_of_different_degrees():
    x, y = MUClass(1, ((2, 1),)), MUClass(2, ((3, 1),))
    with pytest.raises(ValueError, match="unequal degrees 1 and 2"):
        x + y
    assert MUClass.zero(3) + x == x == x + MUClass.zero(3)
    assert (x - x).degree == 1


def test_record_checks_survive_optimized_mode():
    """The checks are exceptions, not asserts, so `python -O` keeps them."""
    code = (
        "from slcob.abelian import FGAbGroup\n"
        "from slcob.charnum import generator_check_msu\n"
        "from slcob.mu import MUClass\n"
        "from slcob.witt import field_descriptor, witt_data\n"
        "wr = witt_data(field_descriptor('r'))\n"
        "def raises(f, *a):\n"
        "    try:\n"
        "        f(*a)\n"
        "    except ValueError:\n"
        "        return True\n"
        "    return False\n"
        "print(raises(FGAbGroup, -1), raises(FGAbGroup, 0, (1,)),\n"
        "      raises(FGAbGroup, 0, (4, 2)),\n"
        "      raises(FGAbGroup, 0, (3,), frozenset([3])),\n"
        "      raises(MUClass(1, ((2, 1),)).__add__, MUClass(2, ((3, 1),))),\n"
        "      raises(FGAbGroup(1).power, -1),\n"
        "      raises(wr.fundamental_ideal_power, -1),\n"
        "      raises(wr.two_primary_torsion_of_ideal, 0),\n"
        "      raises(generator_check_msu, MUClass(1, ((2, 1),)), None))\n")
    assert _run("-O", "-c", code).split() == ["True"] * 9


def test_cli_import_loads_no_dataclasses():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    with the code it generates took more than half of `import slcob.cli`.
    `-S` keeps modules that site-packages' .pth files load out of it."""
    code = ("import sys, slcob.cli\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert _run("-S", "-c", code).split() == []
