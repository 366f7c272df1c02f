"""The contract of the frozen records: named tuples with the field names,
keyword constructors, reprs and validation they have always had, immutable,
and validated again by _replace."""

import math

import numpy as np
import pytest

from oplax.bianchi import BianchiLabel, BianchiType
from oplax.lax import OperadicParams
from oplax.operad import InvalidOperationError, MultiOp
from oplax.oscillator import HOParams, PhasePoint
from oplax.qjacobi import DerivativeAlgebraReport, TheoremReport
from oplax.report import CaseResult

# each record with valid fields, in field order
RECORDS = (
    (HOParams, {"omega": 1.5, "p0": 0.5}),
    (PhasePoint, {"t": 0.0, "q": 0.0, "p": 1.0, "Q": 0.0, "P": 1.25,
                  "H": 0.5}),
    (BianchiLabel, {"type": BianchiType.VIA, "a": 2.5}),
    (OperadicParams, {f"c{i}": float(i) for i in range(1, 10)}),
    (MultiOp, {"degree": 1, "dim": 2, "coeffs": np.eye(2)}),
    (TheoremReport, {"exact": (True, True, False), "residuals": (0, 0, 1),
                     "delta_divisible": True}),
    (DerivativeAlgebraReport, {"C": None, "beta_sq": None,
                               "heisenberg": False}),
    (CaseResult, {"case_id": "c", "passed": True, "residual": 0.5,
                  "tol": 1.0, "detail": "d"}),
)
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_fields_and_repr(cls, fields):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


def test_repr_literal():
    assert repr(HOParams(1.5, 0.5)) == "HOParams(omega=1.5, p0=0.5)"
    assert repr(CaseResult("c", True)) == (
        "CaseResult(case_id='c', passed=True, residual=None, tol=None, "
        "detail=None)")


@pytest.mark.parametrize("cls, fields", RECORDS, ids=RECORD_IDS)
def test_frozen(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_tuple_equality():
    assert HOParams(1.5, 0.5) == (1.5, 0.5)
    assert hash(HOParams(1.5, 0.5)) == hash((1.5, 0.5))
    assert OperadicParams(*range(9)) == tuple(range(9))


# (valid record, a change that makes it invalid, the error)
INVALID = (
    (HOParams(1.5, 0.5), {"omega": math.inf}, ValueError),
    (HOParams(1.5, 0.5), {"omega": math.nan}, ValueError),
    (HOParams(1.5, 0.5), {"omega": 0.0}, ValueError),
    (BianchiLabel(BianchiType.VIA, 2.5), {"a": 1.0}, ValueError),
    (BianchiLabel(BianchiType.VIIA, 0.7), {"a": None}, ValueError),
    (BianchiLabel(BianchiType.II), {"a": 1.0}, ValueError),
    (MultiOp(1, 2, np.eye(2)), {"degree": 0}, InvalidOperationError),
    (MultiOp(1, 2, np.eye(2)), {"coeffs": np.zeros((2, 2, 2))},
     InvalidOperationError),
    (MultiOp(1, 2, np.eye(2)), {"dim": 0}, InvalidOperationError),
)


@pytest.mark.parametrize("record, change, error", INVALID)
def test_invalid_fields_raise(record, change, error):
    with pytest.raises(error):
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(error):
        record._replace(**change)


def test_replace_builds_through_the_constructor():
    op = MultiOp(1, 2, np.eye(2))._replace(coeffs=np.ones((2, 2)))
    assert not op.coeffs.flags.writeable
    assert CaseResult("c", True)._replace(passed=False).passed is False
