"""The record classes behave as the dataclasses they were declared as.

Each record is checked against a dataclass twin built from its own fields
and defaults: construction, the TypeError of a bad call, equality, hash,
repr and the refusal to assign.
"""

import dataclasses

import pytest

from sumrank import (
    AnticodeDescriptor,
    BlockSupport,
    CosetWitness,
    CoverResult,
    Isometry,
    LinearCode,
    MatrixFq,
    MeshulamResult,
    MsrdReport,
    Shape,
    WeightProfile,
    WiretapScenario,
)
from sumrank.cli import RunConfig
from sumrank.errors import ShapeMismatch, UsageError, _record
from sumrank.matfq import Subspace

from helpers import F2, F3

SHAPE = Shape((2, 1), (2, 1))
SPACE = Subspace(F2, 2, [(1, 0)])
CODE = LinearCode(SHAPE, F2, [(1, 0, 0, 1, 1)])
ISO = Isometry.identity(SHAPE, F3)
REPORT = (3, 2, 1, 1, 0, 2, True, True, True, False, None, True, False, None)

# (record class, positional arguments, number of them that have defaults)
CASES = [
    (Shape, ((2, 1), (2, 1), False), 1),
    (RunConfig, ("gweights", ("c.json",), "all", 2, 10, True, "table"), 5),
    (BlockSupport, ("col", SPACE), 0),
    (AnticodeDescriptor, (Shape((2,), (2,)), F2, (BlockSupport("row", SPACE),), None), 1),
    (WeightProfile, ("support", 2, 3, (1, 3)), 0),
    (MsrdReport, REPORT, 0),
    (Isometry, (SHAPE, F3, (0, 1), (False, False), ISO.left, ISO.right), 0),
    (CoverResult, (2, ((1, 1), (2, 2)), (0, 1)), 0),
    (MeshulamResult, ((1, 0, 1), 2, 2), 0),
    (CosetWitness, (MatrixFq(F3, [[1, 2]]), 1, "random"), 0),
    (WiretapScenario, (CODE, (MatrixFq(F2, [[1], [0]]), None)), 0),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _names(cls):
    return tuple(cls.__annotations__)


def _twin(cls):
    """A dataclass with cls's name, fields and defaults, and no __post_init__."""
    fields = [
        (name, object, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__
        else (name, object)
        for name in _names(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _refusal(call):
    with pytest.raises(TypeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("cls,args,ndefaults", CASES, ids=IDS)
def test_records_construct_compare_and_hash_as_dataclasses(cls, args, ndefaults):
    record = cls(*args)
    values = tuple(getattr(record, name) for name in _names(cls))
    twin = _twin(cls)(*values)
    assert repr(record) == repr(twin)
    # by keyword, and with the defaults left out
    assert cls(**dict(zip(_names(cls), args))) == record
    required = len(args) - ndefaults
    if ndefaults:
        defaults = tuple(cls.__dict__[name] for name in _names(cls)[required:])
        assert cls(*args[:required]) == cls(*args[:required], *defaults)
    # a missing, unknown or extra argument raises the dataclass's TypeError
    for call in (lambda c: c(), lambda c: c(*values, bogus=1), lambda c: c(*values, 1)):
        assert _refusal(lambda: call(cls)) == _refusal(lambda: call(_twin(cls)))
    assert cls(*args) == record and not cls(*args) != record
    assert record.__eq__(twin) is NotImplemented and record != twin
    assert hash(record) == hash(values) == hash(twin)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(record, _names(cls)[0], None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, _names(cls)[0])


def test_records_of_different_classes_differ():
    result, meshulam = CoverResult(2, (), ()), MeshulamResult(2, (), ())
    assert result != meshulam and meshulam != result
    assert Shape((2,), (2,)) != ((2,), (2,), True)


def test_pinned_reprs():
    assert repr(Shape((2,), (2,))) == "Shape(m=(2,), n=(2,), strict=True)"
    assert repr(Shape([3, 1], [2, 1], strict=False)) == "Shape(m=(3, 1), n=(2, 1), strict=False)"
    assert repr(RunConfig("srk", ("t.json",))) == (
        "RunConfig(subcommand='srk', paths=('t.json',), variant='product', rank=None,"
        " cap=None, oracle=False, format='json')"
    )
    assert repr(WeightProfile("product", 2, 3, (2, 3))) == (
        "WeightProfile(variant='product', dim=2, ncols=3, weights=(2, 3))"
    )
    assert repr(CoverResult(1, ((1, 2),), (0,))) == (
        "CoverResult(rho=1, pivots=((1, 2),), witnesses=(0,))"
    )
    assert repr(MeshulamResult((1, 0), 2, 1)) == (
        "MeshulamResult(coeffs=(1, 0), achieved_rank=2, rho=1)"
    )
    assert repr(MsrdReport(*REPORT)) == (
        "MsrdReport(dim=3, distance=2, block=1, delta=1, remainder=0, distance_bound=2,"
        " is_msrd=True, c0=True, c1=True, c2=False, c3=None, column_window=True,"
        " equal_rows=False, dual_distance=None)"
    )


def test_post_init_runs_and_own_methods_stay():
    with pytest.raises(ShapeMismatch, match="non-increasing"):
        Shape((1, 2), (1, 1))
    with pytest.raises(UsageError, match="--cap must be positive"):
        RunConfig("srk", ("t.json",), cap=0)

    @_record
    class Pair:
        a: int
        b: int = 2

        def __repr__(self):
            return "pair"

        def __eq__(self, other):
            return True

        __hash__ = None

    assert repr(Pair(1)) == "pair" and Pair(1) == 5
    with pytest.raises(TypeError):
        hash(Pair(1))
    assert (Pair(1).a, Pair(1).b, Pair(a=3, b=4).b) == (1, 2, 4)
