"""The package's records: __slots__ classes on FrozenRecord where the
constructor validates its inputs, plain NamedTuples everywhere else (the
certificate and the dual solution among them), none generated by
dataclasses, and none of them can be changed after construction."""

import importlib
import pkgutil

import numpy as np
import pytest

import wasslip
from wasslip.adversarial import AttackConfig, AttackResult, BallSpec
from wasslip.measures import CostMatrix, DiscreteMeasure, MetricSpec, PointSet
from wasslip.models import MLP, ActivationTag, MLPLayer
from wasslip.numerics import LPProblem, LPSolution, LPStatus, NormTag
from wasslip.robust import DualSolution, EnvelopeCheck, RobustCertificate, RobustInstance
from wasslip.suite import AdversarialBoundVerdict, VerdictRecord
from wasslip.train import EpochRecord, ObjectiveEval, ObjectiveKind, TrainConfig, TrainReport


def _modules():
    names = [wasslip.__name__] + [f"{wasslip.__name__}.{m.name}" for m in pkgutil.iter_modules(wasslip.__path__)]
    return [importlib.import_module(name) for name in names]


def _records():
    points = PointSet(np.array([[0.0, 1.0], [2.0, 3.0]]), [0, 1], 2)
    mu = DiscreteMeasure(points, [0.5, 0.5])
    metric = MetricSpec(NormTag.L2, 1.0, 2)
    layer = MLPLayer(np.eye(2), ActivationTag.IDENTITY, np.zeros(2))
    model = MLP((layer,))
    cert = RobustCertificate(0.1, 0.2, 1.0, 0.1, 1.0, 1.0)
    return [
        points,
        mu,
        metric,
        CostMatrix(np.zeros((2, 2))),
        layer,
        model,
        RobustInstance(mu, metric, 0.1),
        DualSolution(1.0, 0.2, np.array([0.1, 0.2]), np.array([0, 1]), 1.0),
        cert,
        BallSpec(NormTag.L2, 0.1),
        AttackConfig(),
        TrainConfig(ObjectiveKind.SPECTRAL, 0.1),
        LPProblem(np.ones(2)),
        LPSolution(LPStatus.OPTIMAL, 1.0, np.ones(2), np.ones(1), 1, 0),
        EnvelopeCheck((0.0,), 0.0, True, False),
        AttackResult(np.zeros((2, 2)), np.zeros(2), 0.0, "PGD", 0.1, NormTag.L2),
        AdversarialBoundVerdict(True, 0.1, 0.2, 0.0, 0.0, ()),
        VerdictRecord("check", True, {}),
        EpochRecord(0, 0.1, 0.0, 0.1, 1.0, 1.0),
        ObjectiveEval(0.1, 0.1, 0.0, [], []),
        TrainReport([], model, cert, False),
    ]


def _fields(record):
    return record._fields if isinstance(record, tuple) else type(record).__slots__


def test_no_dataclasses_in_any_module():
    for module in _modules():
        for name, value in vars(module).items():
            assert not hasattr(value, "__dataclass_fields__"), f"{module.__name__}.{name} is a dataclass"
            assert getattr(value, "__name__", None) not in ("dataclasses", "dataclass"), f"{module.__name__} imports {name}"


def test_twenty_one_distinct_records():
    assert len({type(record) for record in _records()}) == 21


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_record_cannot_be_changed(record):
    assert not hasattr(record, "__dict__")
    fields = _fields(record)
    assert fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert hasattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
