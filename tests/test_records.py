"""The six record classes: plain ``__slots__`` classes with checking constructors.

The four value records inherit equality, hash and repr from one base,
``perm.Record``, which reads the fields from the class's ``__slots__``: a
record equals another of its own class with equal fields, and of no other
class.  They are used here:

- Polynomial ==: verify's formulas suite and the exactmath and hultman tests.
- HookPartition == and hash: the hook_partitions tests put shapes in a set.
- MomentPair ==: verify's moments suite and the census and hultman tests.
- DistributionTable ==: verify's bounds suite and the acceptance and
  distances tests.  Its counts are a dict, so a table has no hash.
- Configuration and ComparisonResult compare by identity.

The first three of these hash their fields, so equal ones hash equal.

``distances.GeneratorSet`` is no record class: it is the ``NamedTuple`` row
of ``distances.GENERATOR_SETS``, and is checked here only for having no
``__dict__``.

No two library records share a field shape, so two test-local records,
``Left`` and ``Right``, show that equal fields in two classes compare unequal.
"""

from fractions import Fraction

import pytest

from bghultman.bpgraph import Configuration
from bghultman.census import DistributionTable
from bghultman.distances import GENERATOR_SETS, ComparisonResult
from bghultman.exactmath import Polynomial
from bghultman.hultman import HookPartition, MomentPair
from bghultman.perm import Record

VALUES = {
    "Polynomial": lambda: Polynomial((0, 1, 2)),
    "HookPartition": lambda: HookPartition(2, 1, 2),
    "MomentPair": lambda: MomentPair(Fraction(3, 2), Fraction(1, 4)),
}
DIFFERENT = {
    "Polynomial": Polynomial((0, 1)),
    "HookPartition": HookPartition(3, 0, 2),
    "MomentPair": MomentPair(Fraction(3, 2), Fraction(0)),
}
ALL = {
    **VALUES,
    "DistributionTable": lambda: DistributionTable(2, "cycles", {1: 1, 3: 1}),
    "Configuration": lambda: Configuration(1, (1, 0, 3, 2)),
    "GeneratorSet": lambda: GENERATOR_SETS["reversal"],
    "ComparisonResult": lambda: ComparisonResult(2, "reversal", 0, 0, ((0, 1, 1),)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_compare_and_hash_by_fields(name):
    make = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != DIFFERENT[name]
    assert a != tuple(getattr(a, field) for field in type(a).__slots__)


class Left(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Right(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def test_records_of_different_classes_differ():
    # Equal field values do not make records of two classes equal.
    assert Left((1, 2)) == Left((1, 2))
    assert Left((1, 2)) != Right((1, 2))
    assert Right((1, 2)) != Left((1, 2))


@pytest.mark.parametrize(
    "record, text",
    [
        (Left((2, -1)), "Left(value=(2, -1))"),
        (Polynomial((0, 1, 2)), "Polynomial(coeffs=(0, 1, 2))"),
        (HookPartition(2, 1, 2), "HookPartition(a=2, b=1, n=2)"),
        (
            MomentPair(Fraction(3, 2), Fraction(1, 4)),
            "MomentPair(mean=Fraction(3, 2), variance=Fraction(1, 4))",
        ),
        (
            DistributionTable(2, "cycles", {1: 1, 3: 1}),
            "DistributionTable(n=2, statistic='cycles', counts={1: 1, 3: 1})",
        ),
    ],
)
def test_value_record_repr_names_its_fields(record, text):
    assert repr(record) == text


def test_distribution_table_compares_by_fields_and_has_no_hash():
    table = DistributionTable(2, "cycles", {1: 1, 3: 1})
    assert table == DistributionTable(2, "cycles", {3: 1, 1: 1})
    assert table != DistributionTable(2, "odd", {1: 1, 3: 1})
    with pytest.raises(TypeError):
        hash(table)


@pytest.mark.parametrize("name", sorted(ALL))
def test_records_have_slots_only(name):
    record = ALL[name]()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HookPartition(1, 2, 3), r"^\(1, 2\) is not a hook shape for n=3$"),
        (
            lambda: Configuration(1, (1, 0, 0, 0)),
            r"^black \(1, 0, 0, 0\) is not a perfect matching of 0\.\.3$",
        ),
        (lambda: MomentPair(Fraction(1), Fraction(-1, 3)), r"^variance must be >= 0$"),
    ],
)
def test_constructor_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_polynomial_drops_trailing_zeros():
    assert Polynomial([1, 0, 0]).coeffs == (1,)
    assert Polynomial((0, 0)).coeffs == ()
    assert Polynomial(iter([0, 2])).coeffs == (0, 2)


def test_polynomial_times_int():
    assert Polynomial((1, 2)) * 3 == Polynomial((3, 6))
    # An int on the left is not a repeat count, as it would be for a tuple.
    with pytest.raises(TypeError):
        3 * Polynomial((1,))


def test_polynomial_repr_names_its_coefficients():
    # exact_div's ExactnessError message shows both operands.
    assert repr(Polynomial((1, 2))) == "Polynomial(coeffs=(1, 2))"
