import pytest

from spectpp import autodiff as ad
from spectpp import model as M


@pytest.fixture()
def constructions(monkeypatch):
    """Counts of validated MixtureParams and MarkDistribution constructions."""
    counts = {"MixtureParams": 0, "MarkDistribution": 0}
    for cls in (M.MixtureParams, M.MarkDistribution):
        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
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
