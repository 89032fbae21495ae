"""The value types: immutable records with field-wise equality, hash and repr."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from freqpred.accuracy import PiPolynomial
from freqpred.combinatorics import CoefficientTable
from freqpred.prediction import CountStatistic, PredictionArray, Prior
from freqpred.simulator import (
    CovarianceEstimate,
    SimulationConfig,
    SimulationReport,
    StepAccuracy,
)

HALF = Fraction(1, 2)
STEP_FIELDS = {"k": 2, "hits": 61, "trials": 100, "estimate": 0.61, "stderr": 0.0488}
STEP = StepAccuracy(**STEP_FIELDS)

# type, its fields by keyword, and a replacement its checks reject (None: no checks)
CASES = [
    (PiPolynomial, {"a": 1, "dense": (1, -1, -3, 8, -4)}, None),
    (CoefficientTable, {"rows": ((1, -2), (3, -8, 4))}, {"rows": ((1, -2), (3, -8, 5))}),
    (CountStatistic, {"k": 4, "n": 3}, {"n": 5}),
    (PredictionArray, {"rows": ((HALF,), (Fraction(0), Fraction(1)))}, {"rows": ((HALF,), (HALF,))}),
    (Prior, {"kind": "beta", "alpha": HALF, "beta": Fraction(7, 2), "atoms": None}, {"alpha": -1}),
    (SimulationConfig, {"theta_source": 0.45, "horizon": 5, "replications": 100, "seed": 1}, {"horizon": 0}),
    (StepAccuracy, STEP_FIELDS, None),
    (SimulationReport, {"steps": (STEP,)}, None),
    (CovarianceEstimate, {"estimate": 0.0123, "stderr": 0.0021, "replications": 1000}, None),
]


@pytest.mark.parametrize("cls, fields, rejected", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type_contract(cls, fields, rejected):
    value, twin = cls(**fields), cls(**fields)
    assert value == twin and value is not twin
    assert hash(value) == hash(twin)
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is cls
    # the tuple behaviour: positional order, unpacking, _replace
    assert cls(*fields.values()) == value == tuple(fields.values())
    assert type(value._replace()) is cls and value._replace() == value
    if rejected is not None:
        with pytest.raises(ValueError):
            value._replace(**rejected)
