import logging
import math

import numpy as np
import pytest

from spectpp import autodiff as ad
from spectpp import model as M
from spectpp.core import RngStream


@pytest.fixture(autouse=True)
def package_logger():
    """The spectpp logger, with its handlers restored after each test: an
    in-process CLI invocation attaches a stderr handler to it."""
    log = logging.getLogger("spectpp")
    handlers = list(log.handlers)
    yield log
    log.handlers[:] = handlers


@pytest.fixture()
def head_row_checks(monkeypatch):
    """Count of head-row finiteness checks, each of one forward's heads'
    pre-activations and mark logits."""
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


@pytest.fixture()
def stalling_checkpoint():
    """A d=8 model whose next interval is LogNormal(0, 0.1) or
    LogNormal(-50, 0.1) with equal weights after any history: once the
    clock passes about 1e-6, an interval of the second kind is below its
    last bit and does not move it."""
    ckpt = M.init_checkpoint(M.ModelConfig(embed_dim=8, n_components=2, n_marks=1),
                             RngStream(0))
    ckpt.params["mix_mean_bias"] = np.array([0.0, -50.0])
    ckpt.params["mix_scale_bias"] = np.full(2, math.log(0.1))
    for name in ("mix_mean_proj", "mix_weight_proj", "mix_scale_proj"):
        ckpt.params[name] = np.zeros_like(ckpt.params[name])
    return ckpt
