import logging

import pytest

from spectpp import autodiff as ad
from spectpp import model as M


@pytest.fixture(autouse=True)
def package_logger():
    """The spectpp logger, with its handlers restored after each test: an
    in-process CLI invocation attaches a stderr handler to it."""
    log = logging.getLogger("spectpp")
    handlers = list(log.handlers)
    yield log
    log.handlers[:] = handlers


@pytest.fixture()
def constructions(monkeypatch):
    """Counts of validated MixtureParams and MarkDistribution constructions:
    a full check of either class counts one, and the finiteness check of a
    forward's head rows, which validates the pair it builds, one of each."""
    counts = {"MixtureParams": 0, "MarkDistribution": 0}
    for cls in (M.MixtureParams, M.MarkDistribution):
        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)

    def head_rows(*outputs, _check=M._check_head_rows):
        counts["MixtureParams"] += 1
        counts["MarkDistribution"] += 1
        _check(*outputs)

    monkeypatch.setattr(M, "_check_head_rows", head_rows)
    return counts


@pytest.fixture()
def head_row_checks(monkeypatch):
    """Count of head-row finiteness checks."""
    counts = {"head_rows": 0}

    def counted(*outputs, _check=M._check_head_rows):
        counts["head_rows"] += 1
        _check(*outputs)

    monkeypatch.setattr(M, "_check_head_rows", counted)
    return counts


@pytest.fixture()
def tensors(monkeypatch):
    """Count of autodiff Tensor constructions."""
    counts = {"Tensor": 0}

    def counted(self, *args, _init=ad.Tensor.__init__, **kwargs):
        counts["Tensor"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    return counts
